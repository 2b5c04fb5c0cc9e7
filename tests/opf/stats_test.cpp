#include "opf/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "feeders/ieee13.hpp"

namespace dopf::opf {
namespace {

TEST(StatsTest, ModelSizesCountEquationsVarsNnz) {
  const auto net = dopf::feeders::ieee13();
  const OpfModel model = build_model(net);
  const ModelSizes s = model_sizes(model);
  EXPECT_EQ(s.rows, model.num_equations());
  EXPECT_EQ(s.cols, model.num_vars());
  std::size_t nnz = 0;
  for (const auto& eq : model.equations) nnz += eq.terms.size();
  EXPECT_EQ(s.nonzeros, nnz);
  // Table II ballpark for the 13-bus instance (paper: 456 x 454).
  EXPECT_GT(s.rows, 300u);
  EXPECT_LT(s.rows, 600u);
  EXPECT_GT(s.cols, 300u);
  EXPECT_LT(s.cols, 600u);
}

TEST(StatsTest, ComponentCountsIeee13MatchPaperTable3) {
  const auto net = dopf::feeders::ieee13();
  const auto model = build_model(net);
  const auto problem = decompose(net, model);
  const ComponentCounts c = component_counts(net, problem);
  EXPECT_EQ(c.nodes, 29u);
  EXPECT_EQ(c.lines, 28u);
  EXPECT_EQ(c.leaves, 7u);
  EXPECT_EQ(c.S, 50u);
  EXPECT_EQ(c.S, c.nodes + c.lines - c.leaves);
}

TEST(StatsTest, SubproblemStatsConsistency) {
  const auto net = dopf::feeders::ieee13();
  const auto problem = decompose(net);
  const SubproblemStats s = subproblem_stats(problem);
  EXPECT_LE(s.rows.min, static_cast<std::size_t>(s.rows.mean));
  EXPECT_GE(s.rows.max, static_cast<std::size_t>(s.rows.mean));
  EXPECT_GE(s.rows.stdev, 0.0);
  std::size_t rows = 0;
  for (const auto& comp : problem.components) rows += comp.num_rows();
  EXPECT_EQ(s.rows.sum, rows);
  EXPECT_EQ(s.cols.sum, problem.total_local_vars());
  // mean * count == sum.
  EXPECT_NEAR(s.rows.mean * static_cast<double>(problem.num_components()),
              static_cast<double>(s.rows.sum), 1e-9);
}

TEST(StatsTest, StdevMatchesDirectComputation) {
  const auto net = dopf::feeders::ieee13();
  const auto problem = decompose(net);
  const SubproblemStats s = subproblem_stats(problem);
  double mean = 0.0;
  for (const auto& comp : problem.components) {
    mean += static_cast<double>(comp.num_rows());
  }
  mean /= static_cast<double>(problem.num_components());
  double var = 0.0;
  for (const auto& comp : problem.components) {
    const double d = static_cast<double>(comp.num_rows()) - mean;
    var += d * d;
  }
  var /= static_cast<double>(problem.num_components());
  EXPECT_NEAR(s.rows.stdev, std::sqrt(var), 1e-9);
}

TEST(StatsTest, EmptyProblemGivesZeroStats) {
  DistributedProblem empty;
  const SubproblemStats s = subproblem_stats(empty);
  EXPECT_EQ(s.rows.min, 0u);
  EXPECT_EQ(s.rows.max, 0u);
  EXPECT_EQ(s.rows.sum, 0u);
}

}  // namespace
}  // namespace dopf::opf

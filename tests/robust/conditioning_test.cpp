#include "robust/conditioning.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "feeders/ieee13.hpp"
#include "opf/model.hpp"
#include "../linalg/matrix_literal.hpp"

namespace dopf::robust {
namespace {

using dopf::linalg::Matrix;
using dopf::testing::matrix_of;

dopf::opf::Component make_component(Matrix a) {
  dopf::opf::Component comp;
  comp.name = "test:block";
  comp.rows_before_reduction = a.rows();
  comp.b.assign(a.rows(), 0.0);
  comp.global.resize(a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j) {
    comp.global[j] = static_cast<int>(j);
  }
  comp.a = std::move(a);
  return comp;
}

/// cond(A A^T) as preflight estimates it for a block.
double estimate_gram_cond(Matrix a) {
  return analyze_component(make_component(std::move(a))).cond;
}

TEST(ConditioningTest, IdentityGramHasUnitCondition) {
  Matrix a = matrix_of({{1.0, 0.0, 0.0}, {0.0, 1.0, 0.0}});
  EXPECT_NEAR(estimate_gram_cond(a), 1.0, 1e-9);
}

TEST(ConditioningTest, DiagonalScalingIsEstimatedAccurately) {
  // G = diag(1, 100) => cond(G) = 100 exactly; the power/inverse iteration
  // estimate must land within a few percent.
  Matrix a = matrix_of({{1.0, 0.0}, {0.0, 10.0}});
  EXPECT_NEAR(estimate_gram_cond(a), 100.0, 1.0);
}

TEST(ConditioningTest, ParallelRowsGiveInfiniteCondition) {
  Matrix a = matrix_of({{1.0, 2.0}, {2.0, 4.0}});
  EXPECT_TRUE(std::isinf(estimate_gram_cond(a)));
}

TEST(ConditioningTest, EstimateIsDeterministic) {
  Matrix a = matrix_of({{3.0, 1.0, 0.5}, {0.2, 2.0, 1.0}});
  const double first = estimate_gram_cond(a);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(estimate_gram_cond(a), first);
  }
}

TEST(ConditioningTest, HealthyBlockClassified) {
  const BlockConditioning b =
      analyze_component(make_component(matrix_of({{1.0, 0.0}, {0.0, 1.0}})));
  EXPECT_EQ(b.health, BlockHealth::kHealthy);
  EXPECT_EQ(b.rank, 2u);
  EXPECT_EQ(b.ridge, 0.0);
}

TEST(ConditioningTest, MarginalBlockClassified) {
  // cond(G) = 1e10: above the 1e8 marginal threshold, below 1e12.
  const BlockConditioning b =
      analyze_component(make_component(matrix_of({{1.0, 0.0}, {0.0, 1e5}})));
  EXPECT_EQ(b.health, BlockHealth::kMarginal);
}

TEST(ConditioningTest, DegenerateBlockClassified) {
  // cond(G) = 1e14, but the Cholesky still succeeds: degenerate, finite.
  const BlockConditioning b =
      analyze_component(make_component(matrix_of({{1.0, 0.0}, {0.0, 1e7}})));
  EXPECT_EQ(b.health, BlockHealth::kDegenerate);
  EXPECT_TRUE(std::isfinite(b.cond));
}

TEST(ConditioningTest, RankDeficientBlockProbesRidge) {
  // Nearly parallel rows: the exact Gram Cholesky fails, and the analyzer
  // must report both the failure (cond = inf) and the ridge the remediation
  // path would need.
  const BlockConditioning b =
      analyze_component(make_component(matrix_of({{1.0, 0.0}, {1.0, 1e-7}})));
  EXPECT_EQ(b.health, BlockHealth::kDegenerate);
  EXPECT_TRUE(std::isinf(b.cond));
  EXPECT_GT(b.ridge, 0.0);
}

TEST(ConditioningTest, Ieee13BlocksAreAllHealthy) {
  // The paper's flagship feeder must pass its own preprocessing cleanly:
  // every component block well-conditioned, no ridge needed anywhere.
  const auto net = dopf::feeders::ieee13();
  const auto problem =
      dopf::opf::decompose(net, dopf::opf::build_model(net));
  const std::vector<BlockConditioning> blocks = analyze_conditioning(problem);
  ASSERT_EQ(blocks.size(), problem.num_components());
  for (const BlockConditioning& b : blocks) {
    EXPECT_EQ(b.health, BlockHealth::kHealthy) << b.component;
    EXPECT_EQ(b.ridge, 0.0) << b.component;
    EXPECT_EQ(b.rank, b.rows) << b.component;
  }
}

}  // namespace
}  // namespace dopf::robust

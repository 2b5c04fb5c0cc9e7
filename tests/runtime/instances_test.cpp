#include "runtime/instances.hpp"

#include <gtest/gtest.h>

#include "baseline/benchmark_admm.hpp"
#include "opf/stats.hpp"
#include "runtime/measure.hpp"

namespace dopf::runtime {
namespace {

TEST(InstancesTest, Ieee13MatchesPaperTable3) {
  const Instance inst = make_instance("ieee13");
  const auto counts = dopf::opf::component_counts(inst.net, inst.problem);
  EXPECT_EQ(counts.nodes, 29u);
  EXPECT_EQ(counts.lines, 28u);
  EXPECT_EQ(counts.leaves, 7u);
  EXPECT_EQ(counts.S, 50u);
}

TEST(InstancesTest, Ieee123MatchesPaperTable3) {
  const Instance inst = make_instance("ieee123");
  const auto counts = dopf::opf::component_counts(inst.net, inst.problem);
  EXPECT_EQ(counts.nodes, 147u);
  EXPECT_EQ(counts.lines, 146u);
  EXPECT_EQ(counts.leaves, 43u);
  EXPECT_EQ(counts.S, 250u);
}

TEST(InstancesTest, UnknownNameThrows) {
  EXPECT_THROW(make_instance("ieee999"), std::invalid_argument);
  EXPECT_TRUE(is_builtin("ieee13_overload"));
  EXPECT_FALSE(is_builtin("builtin:ieee13"));
  // Reached from load_network too, so the text names the builtins, not
  // make_instance.
  try {
    (void)load_network("builtin:nosuch");
    FAIL() << "unknown builtin accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "unknown builtin 'nosuch' (expected ieee13, ieee123, "
                 "ieee8500, ieee8500_mini, ieee13_overload)");
  }
}

TEST(InstancesTest, DecomposeOptionsArePassedThrough) {
  dopf::opf::DecomposeOptions opts;
  opts.merge_leaves = false;
  const Instance inst = make_instance("ieee13", opts);
  EXPECT_EQ(inst.problem.num_components(), 29u + 28u);
}

TEST(MeasureTest, SolverFreeCostsArePopulated) {
  const Instance inst = make_instance("ieee13");
  const IterationCosts costs =
      measure_solver_free(inst.problem, dopf::core::AdmmOptions{}, 20);
  EXPECT_EQ(costs.measured_iterations, 20);
  EXPECT_EQ(costs.component_seconds.size(), inst.problem.num_components());
  EXPECT_EQ(costs.payload_vars.size(), inst.problem.num_components());
  EXPECT_GT(costs.local_update_seconds, 0.0);
  EXPECT_GT(costs.global_update_seconds, 0.0);
  double sum = 0.0;
  for (double s : costs.component_seconds) {
    EXPECT_GE(s, 0.0);
    sum += s;
  }
  EXPECT_NEAR(sum, costs.local_update_seconds, 1e-12);
  for (std::size_t s = 0; s < costs.payload_vars.size(); ++s) {
    EXPECT_EQ(costs.payload_vars[s],
              inst.problem.components[s].num_vars());
  }
}

TEST(MeasureTest, NonPositiveIterationCountRejected) {
  const Instance inst = make_instance("ieee13");
  EXPECT_THROW(
      measure_solver_free(inst.problem, dopf::core::AdmmOptions{}, 0),
      std::invalid_argument);
  EXPECT_THROW(
      measure_benchmark(inst.problem, dopf::core::AdmmOptions{}, -3),
      std::invalid_argument);
}

TEST(MeasureTest, BenchmarkLocalUpdateCostsDominateSolverFree) {
  // The core performance claim at per-iteration granularity, counted in
  // work rather than host seconds. A solver-free local update applies one
  // precomputed projection per component: one matrix-vector product. The
  // benchmark's runs a warm-started QP, and every Newton iteration of it
  // forms x(mu) = clip(y - A_s' mu) and the gradient A_s x (two products);
  // every iteration that does not stop the QP also assembles and factors a
  // Newton Hessian, which solver-free never does after its precompute.
  const Instance inst = make_instance("ieee13");
  dopf::baseline::BenchmarkAdmm baseline(inst.problem,
                                         dopf::core::AdmmOptions{});
  constexpr int kIterations = 20;
  for (int t = 0; t < kIterations; ++t) {
    baseline.global_update();
    baseline.local_update();
    baseline.dual_update();
  }
  const long long updates =
      kIterations * static_cast<long long>(inst.problem.num_components());
  // Each QP's Newton iterations past its first follow a Hessian
  // factorization, so this asks that more than half of the local updates
  // factor a Hessian, and that the baseline spends more than 1.5 Newton
  // iterations (over three times solver-free's products) per update.
  EXPECT_GT(baseline.total_newton_iterations() - updates, updates / 2);
}

}  // namespace
}  // namespace dopf::runtime

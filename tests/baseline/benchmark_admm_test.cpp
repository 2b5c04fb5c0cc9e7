#include "baseline/benchmark_admm.hpp"

#include <gtest/gtest.h>

#include "core/admm.hpp"
#include "feeders/ieee13.hpp"
#include "opf/decompose.hpp"
#include "opf/model.hpp"
#include "solver/reference.hpp"

namespace dopf::baseline {
namespace {

using dopf::core::AdmmOptions;
using dopf::core::AdmmResult;

struct Fixture {
  dopf::network::Network net = dopf::feeders::ieee13();
  dopf::opf::OpfModel model = dopf::opf::build_model(net);
  dopf::opf::DistributedProblem problem = dopf::opf::decompose(net, model);
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

TEST(BenchmarkAdmmTest, ConvergesOnIeee13) {
  AdmmOptions opt;  // paper defaults
  BenchmarkAdmm admm(fixture().problem, opt);
  const AdmmResult res = admm.solve();
  ASSERT_TRUE(res.converged);
  // Paper Table V: 1064 iterations for IEEE13 — same order of magnitude.
  EXPECT_GT(res.iterations, 50);
  EXPECT_LT(res.iterations, 30000);
}

TEST(BenchmarkAdmmTest, AgreesWithSolverFreeSolution) {
  AdmmOptions opt;
  opt.eps_rel = 1e-5;
  opt.max_iterations = 200000;
  BenchmarkAdmm benchmark(fixture().problem, opt);
  dopf::core::SolverFreeAdmm ours(fixture().problem, opt);
  const AdmmResult rb = benchmark.solve();
  const AdmmResult ro = ours.solve();
  ASSERT_TRUE(rb.converged);
  ASSERT_TRUE(ro.converged);
  EXPECT_NEAR(rb.objective, ro.objective,
              1e-3 * (1.0 + std::abs(ro.objective)));
}

TEST(BenchmarkAdmmTest, ReachesReferenceOptimum) {
  AdmmOptions opt;
  opt.eps_rel = 1e-5;
  opt.max_iterations = 200000;
  BenchmarkAdmm admm(fixture().problem, opt);
  const AdmmResult res = admm.solve();
  ASSERT_TRUE(res.converged);
  const auto ref = dopf::solver::reference_solve(fixture().model);
  EXPECT_NEAR(res.objective, ref.objective,
              1e-3 * (1.0 + std::abs(ref.objective)));
  EXPECT_LT(fixture().model.equation_residual(res.x), 1e-3);
}

TEST(BenchmarkAdmmTest, LocalIterateRespectsBoundsAndEqualities) {
  // Model (8): the *local* iterates carry the bounds.
  AdmmOptions opt;
  BenchmarkAdmm admm(fixture().problem, opt);
  admm.global_update();
  admm.local_update();
  const auto z = admm.z();
  const auto& problem = fixture().problem;
  for (std::size_t s = 0; s < problem.num_components(); ++s) {
    const auto& comp = problem.components[s];
    const double* zs = z.data() + admm.offset(s);
    for (std::size_t j = 0; j < comp.num_vars(); ++j) {
      EXPECT_GE(zs[j], problem.lb[comp.global[j]] - 1e-7);
      EXPECT_LE(zs[j], problem.ub[comp.global[j]] + 1e-7);
    }
    for (std::size_t r = 0; r < comp.num_rows(); ++r) {
      double lhs = 0.0;
      for (std::size_t j = 0; j < comp.num_vars(); ++j) {
        lhs += comp.a(r, j) * zs[j];
      }
      EXPECT_NEAR(lhs, comp.b[r], 1e-6) << comp.name;
    }
  }
}

TEST(BenchmarkAdmmTest, GlobalUpdateIsUnclipped) {
  // The benchmark's xhat may leave the box (bounds live in the
  // subproblems); verify it does so at least once early in the run, which
  // distinguishes it from the solver-free global update.
  AdmmOptions opt;
  BenchmarkAdmm admm(fixture().problem, opt);
  const auto& problem = fixture().problem;
  bool escaped = false;
  for (int t = 0; t < 200 && !escaped; ++t) {
    admm.global_update();
    const auto x = admm.x();
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (x[i] < problem.lb[i] - 1e-12 || x[i] > problem.ub[i] + 1e-12) {
        escaped = true;
        break;
      }
    }
    admm.local_update();
    admm.dual_update();
  }
  EXPECT_TRUE(escaped);
}

TEST(BenchmarkAdmmTest, InnerSolverCountersAccumulate) {
  AdmmOptions opt;
  opt.max_iterations = 20;
  BenchmarkAdmm admm(fixture().problem, opt);
  admm.solve();
  EXPECT_GT(admm.total_newton_iterations(), 0);
}

TEST(BenchmarkAdmmTest, ResetReproducesRun) {
  AdmmOptions opt;
  opt.max_iterations = 30;
  BenchmarkAdmm admm(fixture().problem, opt);
  const AdmmResult a = admm.solve();
  admm.reset();
  const AdmmResult b = admm.solve();
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    EXPECT_NEAR(a.x[i], b.x[i], 1e-12);
  }
}

TEST(BenchmarkAdmmTest, PerIterationLocalUpdateCostsExceedSolverFree) {
  // The paper's headline: QP solves per component cost far more than the
  // closed-form matvec. Compare measured local-update time over the same
  // number of iterations.
  AdmmOptions opt;
  opt.max_iterations = 30;
  BenchmarkAdmm benchmark(fixture().problem, opt);
  dopf::core::SolverFreeAdmm ours(fixture().problem, opt);
  const AdmmResult rb = benchmark.solve();
  const AdmmResult ro = ours.solve();
  EXPECT_GT(rb.timing.local_update, 2.0 * ro.timing.local_update);
}

TEST(BenchmarkAdmmTest, PreCancelledTokenReturnsCancelled) {
  // The baseline polls the cancellation token at the check cadence, like
  // the solver-free driver: signals and deadlines stop it too.
  dopf::core::CancelToken cancel;
  cancel.request("test cancel");
  AdmmOptions opt;
  opt.check_every = 5;
  opt.cancel = &cancel;
  BenchmarkAdmm admm(fixture().problem, opt);
  const AdmmResult res = admm.solve();
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.status, dopf::core::AdmmStatus::kCancelled);
  EXPECT_EQ(res.iterations, 5);
}

}  // namespace
}  // namespace dopf::baseline

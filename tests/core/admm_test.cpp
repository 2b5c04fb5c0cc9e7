#include "core/admm.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "feeders/ieee13.hpp"
#include "opf/decompose.hpp"
#include "opf/model.hpp"
#include "solver/reference.hpp"

namespace dopf::core {
namespace {

using dopf::opf::DistributedProblem;
using dopf::opf::OpfModel;

struct Fixture {
  dopf::network::Network net = dopf::feeders::ieee13();
  OpfModel model = dopf::opf::build_model(net);
  DistributedProblem problem = dopf::opf::decompose(net, model);
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

TEST(SolverFreeAdmmTest, ConvergesOnIeee13AtPaperTolerance) {
  AdmmOptions opt;  // rho = 100, eps_rel = 1e-3 (paper defaults)
  SolverFreeAdmm admm(fixture().problem, opt);
  const AdmmResult res = admm.solve();
  ASSERT_TRUE(res.converged);
  // Paper Table V reports 944 iterations for IEEE13; same order expected.
  EXPECT_GT(res.iterations, 100);
  EXPECT_LT(res.iterations, 20000);
}

TEST(SolverFreeAdmmTest, ReachesReferenceOptimum) {
  AdmmOptions opt;
  opt.eps_rel = 1e-5;
  opt.max_iterations = 100000;
  SolverFreeAdmm admm(fixture().problem, opt);
  const AdmmResult res = admm.solve();
  ASSERT_TRUE(res.converged);

  const auto ref = dopf::solver::reference_solve(fixture().model);
  ASSERT_EQ(ref.status, dopf::solver::LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, ref.objective,
              1e-3 * (1.0 + std::abs(ref.objective)));
  EXPECT_LT(fixture().model.equation_residual(res.x), 1e-3);
  EXPECT_EQ(fixture().model.bound_violation(res.x), 0.0);
}

TEST(SolverFreeAdmmTest, ResidualsDecreaseOverall) {
  AdmmOptions opt;
  opt.eps_rel = 1e-4;
  opt.max_iterations = 50000;
  SolverFreeAdmm admm(fixture().problem, opt);
  const AdmmResult res = admm.solve();
  ASSERT_TRUE(res.converged);
  ASSERT_GT(res.history.size(), 10u);
  const auto& first = res.history.front();
  const auto& last = res.history.back();
  EXPECT_LT(last.primal_residual, first.primal_residual);
  EXPECT_LT(last.dual_residual, first.dual_residual * 10.0);
}

TEST(SolverFreeAdmmTest, TerminationCriterionExactlyEq16) {
  AdmmOptions opt;
  SolverFreeAdmm admm(fixture().problem, opt);
  admm.global_update();
  admm.local_update();
  admm.dual_update();
  const IterationRecord rec = admm.compute_residuals(1);
  EXPECT_EQ(admm.termination_satisfied(rec),
            rec.primal_residual <= rec.eps_primal &&
                rec.dual_residual <= rec.eps_dual);
  // One iteration from the paper's initial point cannot satisfy (16).
  EXPECT_FALSE(admm.termination_satisfied(rec));
}

TEST(SolverFreeAdmmTest, GlobalUpdateRespectsBounds) {
  AdmmOptions opt;
  SolverFreeAdmm admm(fixture().problem, opt);
  for (int t = 0; t < 5; ++t) {
    admm.global_update();
    const auto x = admm.x();
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_GE(x[i], fixture().problem.lb[i]);
      EXPECT_LE(x[i], fixture().problem.ub[i]);
    }
    admm.local_update();
    admm.dual_update();
  }
}

TEST(SolverFreeAdmmTest, LocalUpdateSatisfiesComponentConstraints) {
  AdmmOptions opt;
  SolverFreeAdmm admm(fixture().problem, opt);
  admm.global_update();
  admm.local_update();
  const auto z = admm.z();
  for (std::size_t s = 0; s < fixture().problem.num_components(); ++s) {
    const auto& comp = fixture().problem.components[s];
    const double* zs = z.data() + admm.offset(s);
    for (std::size_t r = 0; r < comp.num_rows(); ++r) {
      double lhs = 0.0;
      for (std::size_t j = 0; j < comp.num_vars(); ++j) {
        lhs += comp.a(r, j) * zs[j];
      }
      EXPECT_NEAR(lhs, comp.b[r], 1e-8) << comp.name << " row " << r;
    }
  }
}

TEST(SolverFreeAdmmTest, ResetReproducesIdenticalRun) {
  AdmmOptions opt;
  opt.max_iterations = 50;
  opt.check_every = 10;
  SolverFreeAdmm admm(fixture().problem, opt);
  const AdmmResult first = admm.solve();
  admm.reset();
  const AdmmResult second = admm.solve();
  ASSERT_EQ(first.x.size(), second.x.size());
  for (std::size_t i = 0; i < first.x.size(); ++i) {
    EXPECT_EQ(first.x[i], second.x[i]);
  }
}

TEST(SolverFreeAdmmTest, HistoryRespectsRecordEvery) {
  AdmmOptions opt;
  opt.max_iterations = 100;
  opt.check_every = 5;
  opt.record_every = 2;  // every second check
  SolverFreeAdmm admm(fixture().problem, opt);
  const AdmmResult res = admm.solve();
  EXPECT_EQ(res.history.size(), 10u);
  EXPECT_EQ(res.history.front().iteration, 10);
}

TEST(SolverFreeAdmmTest, AdaptiveRhoStillConverges) {
  AdmmOptions opt;
  opt.eps_rel = 1e-4;
  opt.max_iterations = 100000;
  opt.adaptive_rho = true;
  SolverFreeAdmm admm(fixture().problem, opt);
  const AdmmResult res = admm.solve();
  ASSERT_TRUE(res.converged);
  const auto ref = dopf::solver::reference_solve(fixture().model);
  EXPECT_NEAR(res.objective, ref.objective,
              1e-2 * (1.0 + std::abs(ref.objective)));
}

TEST(SolverFreeAdmmTest, TimingBreakdownIsPopulated) {
  AdmmOptions opt;
  opt.max_iterations = 50;
  SolverFreeAdmm admm(fixture().problem, opt);
  const AdmmResult res = admm.solve();
  EXPECT_EQ(res.timing.iterations, 50);
  EXPECT_GT(res.timing.local_update, 0.0);
  EXPECT_GT(res.timing.global_update, 0.0);
  EXPECT_GT(res.timing.dual_update, 0.0);
  EXPECT_GT(res.timing.total(), 0.0);
}

TEST(SolverFreeAdmmTest, ComponentTimersOnlyWhenRequested) {
  AdmmOptions opt;
  opt.max_iterations = 10;
  SolverFreeAdmm plain(fixture().problem, opt);
  auto res = plain.solve();
  double sum = 0.0;
  for (double s : res.component_seconds) sum += s;
  EXPECT_EQ(sum, 0.0);

  opt.record_component_times = true;
  SolverFreeAdmm timed(fixture().problem, opt);
  res = timed.solve();
  sum = 0.0;
  for (double s : res.component_seconds) sum += s;
  EXPECT_GT(sum, 0.0);
  EXPECT_EQ(res.component_seconds.size(),
            fixture().problem.num_components());
}

TEST(SolverFreeAdmmTest, OverRelaxationAcceleratesConvergence) {
  AdmmOptions base;
  base.eps_rel = 1e-4;
  base.max_iterations = 100000;
  SolverFreeAdmm plain(fixture().problem, base);
  const AdmmResult r1 = plain.solve();

  AdmmOptions relaxed = base;
  relaxed.relaxation = 1.6;
  SolverFreeAdmm fast(fixture().problem, relaxed);
  const AdmmResult r2 = fast.solve();

  ASSERT_TRUE(r1.converged);
  ASSERT_TRUE(r2.converged);
  EXPECT_LT(r2.iterations, r1.iterations);
  // And it must not change what is computed.
  const auto ref = dopf::solver::reference_solve(fixture().model);
  EXPECT_NEAR(r2.objective, ref.objective,
              5e-3 * (1.0 + std::abs(ref.objective)));
}

TEST(SolverFreeAdmmTest, RhoSweepAllConverge) {
  for (double rho : {10.0, 100.0, 1000.0}) {
    AdmmOptions opt;
    opt.rho = rho;
    opt.max_iterations = 200000;
    SolverFreeAdmm admm(fixture().problem, opt);
    const AdmmResult res = admm.solve();
    EXPECT_TRUE(res.converged) << "rho = " << rho;
  }
}

}  // namespace
}  // namespace dopf::core

/// Tests for solver robustness: status reporting, time limits, and
/// divergence detection on ill-posed inputs.

#include <gtest/gtest.h>

#include <limits>

#include "baseline/benchmark_admm.hpp"
#include "core/admm.hpp"
#include "feeders/ieee13.hpp"
#include "opf/decompose.hpp"

namespace dopf::core {
namespace {

const dopf::opf::DistributedProblem& problem() {
  static const auto net = dopf::feeders::ieee13();
  static const auto p = dopf::opf::decompose(net);
  return p;
}

TEST(AdmmStatusTest, ConvergedStatusReported) {
  AdmmOptions opt;
  SolverFreeAdmm admm(problem(), opt);
  const AdmmResult res = admm.solve();
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.status, AdmmStatus::kConverged);
}

TEST(AdmmStatusTest, IterationLimitStatusReported) {
  AdmmOptions opt;
  opt.max_iterations = 5;
  SolverFreeAdmm admm(problem(), opt);
  const AdmmResult res = admm.solve();
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.status, AdmmStatus::kIterationLimit);
  EXPECT_EQ(res.iterations, 5);
}

TEST(AdmmStatusTest, TimeLimitStops) {
  AdmmOptions opt;
  opt.max_iterations = 100000000;
  opt.time_limit_seconds = 0.05;
  SolverFreeAdmm admm(problem(), opt);
  const AdmmResult res = admm.solve();
  if (!res.converged) {  // on a slow machine it may legitimately converge
    EXPECT_EQ(res.status, AdmmStatus::kTimeLimit);
    EXPECT_LT(res.iterations, 100000000);
  }
}

TEST(AdmmStatusTest, BenchmarkTimeLimitStops) {
  AdmmOptions opt;
  opt.max_iterations = 100000000;
  opt.time_limit_seconds = 0.05;
  dopf::baseline::BenchmarkAdmm admm(problem(), opt);
  const AdmmResult res = admm.solve();
  if (!res.converged) {
    EXPECT_EQ(res.status, AdmmStatus::kTimeLimit);
  }
}

dopf::opf::DistributedProblem tiny_problem(double rhs) {
  // One component: x1 + x2 = rhs, with global bounds x in [0, 1]^2.
  dopf::opf::DistributedProblem p;
  p.num_vars = 2;
  p.c = {1.0, 1.0};
  p.lb = {0.0, 0.0};
  p.ub = {1.0, 1.0};
  p.x0 = {0.5, 0.5};
  dopf::opf::Component comp;
  comp.name = "eq";
  comp.a = dopf::linalg::Matrix{{1.0, 1.0}};
  comp.b = {rhs};
  comp.global = {0, 1};
  p.components.push_back(std::move(comp));
  p.copy_count = {1, 1};
  return p;
}

TEST(AdmmStatusTest, InfeasibleProblemDoesNotClaimConvergence) {
  // x1 + x2 = 4 conflicts with the box [0,1]^2: the primal residual is
  // bounded away from zero forever; the solver must stop at the iteration
  // limit without claiming success.
  const auto p = tiny_problem(4.0);
  AdmmOptions opt;
  opt.max_iterations = 2000;
  SolverFreeAdmm admm(p, opt);
  const AdmmResult res = admm.solve();
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.status, AdmmStatus::kIterationLimit);
  EXPECT_GT(res.primal_residual, 0.1);
}

TEST(AdmmStatusTest, NonFiniteDataDetectedAsDiverged) {
  const auto p = tiny_problem(std::numeric_limits<double>::quiet_NaN());
  AdmmOptions opt;
  opt.max_iterations = 1000;
  SolverFreeAdmm admm(p, opt);
  const AdmmResult res = admm.solve();
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.status, AdmmStatus::kDiverged);
  EXPECT_LT(res.iterations, 1000);
}

TEST(AdmmStatusTest, ExplodingRhoDetectedAsDiverged) {
  // rho at the edge of the double range overflows the dual residual and the
  // eps_dual scale (rho * ||z - z_prev||, rho * eps_rel * ||lambda||) to
  // infinity within a few iterations; the guard must flag divergence rather
  // than iterate on non-finite numbers or claim convergence.
  AdmmOptions opt;
  opt.rho = 1e308;
  opt.max_iterations = 1000;
  opt.check_every = 1;
  SolverFreeAdmm admm(problem(), opt);
  const AdmmResult res = admm.solve();
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.status, AdmmStatus::kDiverged);
  EXPECT_LT(res.iterations, 1000);
}

TEST(AdmmStatusTest, TimeLimitRecordsPartialProgress) {
  // An infeasible problem can never converge, so a tight time limit MUST
  // fire; the result still carries the partial iteration count and the
  // residual records accumulated before the stop.
  const auto p = tiny_problem(4.0);
  AdmmOptions opt;
  opt.max_iterations = 100000000;
  opt.time_limit_seconds = 0.05;
  opt.check_every = 10;
  SolverFreeAdmm admm(p, opt);
  const AdmmResult res = admm.solve();
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.status, AdmmStatus::kTimeLimit);
  EXPECT_GT(res.iterations, 0);
  EXPECT_LT(res.iterations, 100000000);
  ASSERT_FALSE(res.history.empty());
  EXPECT_LE(res.history.back().iteration, res.iterations);
  EXPECT_EQ(res.timing.iterations, res.iterations);
}

TEST(AdmmStatusTest, FeasibleTinyProblemConverges) {
  // Control for the two cases above: rhs = 1 is consistent with the box.
  const auto p = tiny_problem(1.0);
  AdmmOptions opt;
  SolverFreeAdmm admm(p, opt);
  const AdmmResult res = admm.solve();
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.x[0] + res.x[1], 1.0, 1e-2);
}

TEST(AdmmWarmStartTest, WarmStartCutsResolveIterations) {
  // Solve, perturb every load by +5% (same layout), re-solve cold vs warm.
  auto net = dopf::feeders::ieee13();
  auto model = dopf::opf::build_model(net);
  auto p1 = dopf::opf::decompose(net, model);
  AdmmOptions opt;
  SolverFreeAdmm first(p1, opt);
  const AdmmResult base = first.solve();
  ASSERT_TRUE(base.converged);
  const std::vector<double> lambda(first.lambda().begin(),
                                   first.lambda().end());

  for (std::size_t l = 0; l < net.num_loads(); ++l) {
    auto& load = net.load_mutable(static_cast<int>(l));
    for (auto ph : load.phases.phases()) {
      load.p_ref[ph] *= 1.05;
      load.q_ref[ph] *= 1.05;
    }
  }
  auto model2 = dopf::opf::build_model(net);
  auto p2 = dopf::opf::decompose(net, model2);

  SolverFreeAdmm cold(p2, opt);
  const AdmmResult rc = cold.solve();
  SolverFreeAdmm warm(p2, opt);
  warm.warm_start(base.x, lambda);
  const AdmmResult rw = warm.solve();
  ASSERT_TRUE(rc.converged);
  ASSERT_TRUE(rw.converged);
  EXPECT_LT(rw.iterations, rc.iterations / 2);
  EXPECT_NEAR(rw.objective, rc.objective,
              0.02 * (1.0 + std::abs(rc.objective)));
}

TEST(AdmmWarmStartTest, SizeMismatchThrows) {
  AdmmOptions opt;
  SolverFreeAdmm admm(problem(), opt);
  std::vector<double> wrong(3, 0.0);
  EXPECT_THROW(admm.warm_start(wrong), std::invalid_argument);
  std::vector<double> x(problem().num_vars, 0.0);
  std::vector<double> bad_lambda(5, 0.0);
  EXPECT_THROW(admm.warm_start(x, bad_lambda), std::invalid_argument);
}

TEST(AdmmStatusTest, StatusNamesAreStable) {
  EXPECT_STREQ(to_string(AdmmStatus::kConverged), "converged");
  EXPECT_STREQ(to_string(AdmmStatus::kIterationLimit), "iteration-limit");
  EXPECT_STREQ(to_string(AdmmStatus::kTimeLimit), "time-limit");
  EXPECT_STREQ(to_string(AdmmStatus::kDiverged), "diverged");
  EXPECT_STREQ(to_string(AdmmStatus::kCancelled), "cancelled");
}

TEST(AdmmCancelTest, PreCancelledTokenStopsAtFirstCheck) {
  // An infeasible problem never converges, so the only way out is the
  // token; it is polled at the check cadence, so exactly check_every
  // iterations run.
  const auto p = tiny_problem(4.0);
  CancelToken cancel;
  cancel.request("test cancel");
  AdmmOptions opt;
  opt.max_iterations = 100000000;
  opt.check_every = 25;
  opt.cancel = &cancel;
  SolverFreeAdmm admm(p, opt);
  const AdmmResult res = admm.solve();
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.status, AdmmStatus::kCancelled);
  EXPECT_EQ(res.iterations, 25);
  EXPECT_STREQ(cancel.reason(), "test cancel");
}

TEST(AdmmCancelTest, ExpiredDeadlineCancels) {
  const auto p = tiny_problem(4.0);
  CancelToken cancel;
  cancel.set_deadline_after(0.0);  // already expired
  AdmmOptions opt;
  opt.max_iterations = 100000000;
  opt.check_every = 10;
  opt.cancel = &cancel;
  SolverFreeAdmm admm(p, opt);
  const AdmmResult res = admm.solve();
  EXPECT_EQ(res.status, AdmmStatus::kCancelled);
  EXPECT_EQ(res.iterations, 10);
  EXPECT_STREQ(cancel.reason(), "deadline exceeded");
}

TEST(AdmmCancelTest, ConvergenceWinsOverPendingDeadline) {
  // A generous deadline must not perturb a run that converges first: the
  // result is bit-identical to the uncancellable solve.
  CancelToken cancel;
  cancel.set_deadline_after(3600.0);
  AdmmOptions opt;
  opt.cancel = &cancel;
  SolverFreeAdmm with_token(problem(), opt);
  const AdmmResult ra = with_token.solve();
  AdmmOptions bare;
  SolverFreeAdmm without(problem(), bare);
  const AdmmResult rb = without.solve();
  EXPECT_EQ(ra.status, AdmmStatus::kConverged);
  EXPECT_EQ(ra.iterations, rb.iterations);
  for (std::size_t i = 0; i < ra.x.size(); ++i) {
    ASSERT_EQ(ra.x[i], rb.x[i]);
  }
}

}  // namespace
}  // namespace dopf::core

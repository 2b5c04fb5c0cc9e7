/// Convergence watchdog: merit definition, stall escalation (nudge ->
/// restart-from-best -> stop), oscillation classification, and the solver
/// integration that turns persistent stalls into a clean kStalled status.

#include "core/watchdog.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/admm.hpp"
#include "feeders/ieee13.hpp"
#include "opf/decompose.hpp"
#include "runtime/instances.hpp"
#include "../linalg/matrix_literal.hpp"

namespace dopf::core {
namespace {

IterationRecord rec(int iteration, double pres, double dres,
                    double eps_p = 1.0, double eps_d = 1.0) {
  IterationRecord r;
  r.iteration = iteration;
  r.primal_residual = pres;
  r.dual_residual = dres;
  r.eps_primal = eps_p;
  r.eps_dual = eps_d;
  r.rho = 1.0;
  return r;
}

const dopf::opf::DistributedProblem& problem() {
  static const auto net = dopf::feeders::ieee13();
  static const auto p = dopf::opf::decompose(net);
  return p;
}

dopf::opf::DistributedProblem infeasible_problem() {
  // x1 + x2 = 4 conflicts with the box [0,1]^2: ADMM's primal residual is
  // bounded away from zero forever, so every watchdog window stalls.
  dopf::opf::DistributedProblem p;
  p.num_vars = 2;
  p.c = {1.0, 1.0};
  p.lb = {0.0, 0.0};
  p.ub = {1.0, 1.0};
  p.x0 = {0.5, 0.5};
  dopf::opf::Component comp;
  comp.name = "eq";
  comp.a = dopf::testing::matrix_of({{1.0, 1.0}});
  comp.b = {4.0};
  comp.global = {0, 1};
  p.components.push_back(std::move(comp));
  p.copy_count = {1, 1};
  return p;
}

TEST(WatchdogTest, MeritIsWorstResidualRatio) {
  EXPECT_DOUBLE_EQ(ConvergenceWatchdog::merit(rec(0, 3.0, 1.0, 2.0, 4.0)),
                   1.5);
  EXPECT_DOUBLE_EQ(ConvergenceWatchdog::merit(rec(0, 0.1, 0.8, 1.0, 0.5)),
                   1.6);
  // Zero tolerance (lambda still zero makes eps_dual zero on the first
  // checks): merit is +inf, never "the best so far".
  EXPECT_TRUE(
      std::isinf(ConvergenceWatchdog::merit(rec(0, 1.0, 1.0, 1.0, 0.0))));
}

TEST(WatchdogTest, SteadyImprovementNeverStalls) {
  ConvergenceWatchdog dog(/*window=*/5, /*min_improvement=*/1e-3,
                          /*max_restarts=*/2);
  double merit = 100.0;
  for (int t = 0; t < 100; ++t) {
    merit *= 0.9;  // 10% per check, far above the 0.1% floor
    const auto d = dog.observe(rec(t, merit, merit / 2.0));
    EXPECT_EQ(d.action, ConvergenceWatchdog::Action::kNone) << t;
    EXPECT_TRUE(d.new_best) << t;
  }
  EXPECT_EQ(dog.summary().stalls, 0);
}

TEST(WatchdogTest, EscalationSequenceNudgeRestartsStop) {
  const int window = 4;
  const int max_restarts = 2;
  ConvergenceWatchdog dog(window, 1e-3, max_restarts);
  using Action = ConvergenceWatchdog::Action;

  std::vector<Action> actions;
  int t = 0;
  // Flat merit: every window of checks stalls. Feed until kStop.
  while (actions.empty() || actions.back() != Action::kStop) {
    ASSERT_LT(t, 100) << "watchdog never escalated to kStop";
    actions.push_back(dog.observe(rec(t, 5.0, 5.0)).action);
    ++t;
  }
  std::vector<Action> escalations;
  for (const Action a : actions) {
    if (a != Action::kNone) escalations.push_back(a);
  }
  ASSERT_EQ(escalations.size(), static_cast<std::size_t>(max_restarts + 2));
  EXPECT_EQ(escalations[0], Action::kNudgeRho);
  EXPECT_EQ(escalations[1], Action::kRestartFromBest);
  EXPECT_EQ(escalations[2], Action::kRestartFromBest);
  EXPECT_EQ(escalations[3], Action::kStop);

  EXPECT_EQ(dog.summary().stalls, max_restarts + 2);
  EXPECT_EQ(dog.summary().rho_nudges, 1);
  EXPECT_EQ(dog.summary().restarts, max_restarts);
}

TEST(WatchdogTest, ImprovementAfterNudgeResetsEscalationWindow) {
  ConvergenceWatchdog dog(/*window=*/3, 1e-3, /*max_restarts=*/2);
  using Action = ConvergenceWatchdog::Action;
  // Stall once -> nudge.
  int t = 0;
  Action got = Action::kNone;
  for (; got == Action::kNone && t < 10; ++t) {
    got = dog.observe(rec(t, 5.0, 5.0)).action;
  }
  ASSERT_EQ(got, Action::kNudgeRho);
  // Now improve substantially: the stall window restarts from scratch, so
  // the next 2 flat checks must NOT trigger the restart escalation.
  EXPECT_EQ(dog.observe(rec(t++, 1.0, 1.0)).action, Action::kNone);
  EXPECT_EQ(dog.observe(rec(t++, 1.0, 1.0)).action, Action::kNone);
  EXPECT_EQ(dog.observe(rec(t++, 1.0, 1.0)).action, Action::kNone);
}

TEST(WatchdogTest, OscillationFlaggedInSummary) {
  const int window = 6;
  ConvergenceWatchdog dog(window, 1e-3, /*max_restarts=*/1);
  // Merit bounces between 5 and 6: no net improvement, sign of the delta
  // flips on every check.
  int t = 0;
  while (dog.summary().stalls == 0 && t < 50) {
    dog.observe(rec(t, (t % 2 == 0) ? 5.0 : 6.0, 1.0));
    ++t;
  }
  ASSERT_GT(dog.summary().stalls, 0);
  EXPECT_TRUE(dog.summary().oscillation_detected);
}

TEST(WatchdogTest, MonotoneStallIsNotOscillation) {
  const int window = 6;
  ConvergenceWatchdog dog(window, 1e-3, /*max_restarts=*/1);
  int t = 0;
  while (dog.summary().stalls == 0 && t < 50) {
    dog.observe(rec(t, 5.0, 1.0));  // perfectly flat
    ++t;
  }
  ASSERT_GT(dog.summary().stalls, 0);
  EXPECT_FALSE(dog.summary().oscillation_detected);
}

TEST(WatchdogTest, NonFiniteMeritDoesNotCountTowardStall) {
  ConvergenceWatchdog dog(/*window=*/2, 1e-3, /*max_restarts=*/1);
  using Action = ConvergenceWatchdog::Action;
  for (int t = 0; t < 20; ++t) {
    // eps_dual == 0 -> merit +inf: ignored, never stalls.
    EXPECT_EQ(dog.observe(rec(t, 1.0, 1.0, 1.0, 0.0)).action, Action::kNone);
  }
  EXPECT_EQ(dog.summary().stalls, 0);
}

TEST(WatchdogTest, NewBestTracksMinimumMerit) {
  ConvergenceWatchdog dog(/*window=*/10, 1e-3, /*max_restarts=*/1);
  EXPECT_TRUE(dog.observe(rec(0, 8.0, 1.0)).new_best);
  EXPECT_TRUE(dog.observe(rec(1, 4.0, 1.0)).new_best);
  EXPECT_FALSE(dog.observe(rec(2, 6.0, 1.0)).new_best);  // worse than 4
  EXPECT_TRUE(dog.observe(rec(3, 3.0, 1.0)).new_best);
  EXPECT_DOUBLE_EQ(dog.best_merit(), 3.0);
}

// ---- solver integration -------------------------------------------------

TEST(WatchdogSolverTest, InfeasibleProblemReportsStalled) {
  const auto p = infeasible_problem();
  AdmmOptions opt;
  opt.max_iterations = 50000;
  opt.check_every = 10;
  opt.watchdog = true;
  opt.watchdog_window = 100;
  opt.watchdog_max_restarts = 2;
  SolverFreeAdmm admm(p, opt);
  const AdmmResult res = admm.solve();
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.status, AdmmStatus::kStalled);
  // Gave up long before the iteration limit instead of burning it down.
  EXPECT_LT(res.iterations, opt.max_iterations);
  EXPECT_GE(res.watchdog.stalls, 2);
  EXPECT_EQ(res.watchdog.rho_nudges, 1);
  EXPECT_EQ(res.watchdog.restarts, opt.watchdog_max_restarts);
}

TEST(WatchdogSolverTest, RestartFromBestKeepsBestIterateQuality) {
  // Same infeasible problem, but compare against the plain run: the stalled
  // result must not be worse than where the solver's best check stood —
  // restart-from-best means the final iterate tracks the best merit seen.
  const auto p = infeasible_problem();
  AdmmOptions opt;
  opt.max_iterations = 50000;
  opt.check_every = 10;
  opt.watchdog = true;
  SolverFreeAdmm admm(p, opt);
  const AdmmResult res = admm.solve();
  ASSERT_EQ(res.status, AdmmStatus::kStalled);
  ASSERT_FALSE(res.history.empty());
  const double final_merit =
      ConvergenceWatchdog::merit(res.history.back());
  double best_seen = std::numeric_limits<double>::infinity();
  for (const auto& r : res.history) {
    const double m = ConvergenceWatchdog::merit(r);
    if (std::isfinite(m)) best_seen = std::min(best_seen, m);
  }
  // The last check happens right after a restart-from-best, so the final
  // merit must sit within a small factor of the best the run ever saw.
  EXPECT_LE(final_merit, best_seen * 2.0);
}

TEST(WatchdogSolverTest, ConvergingRunUnaffectedByWatchdog) {
  AdmmOptions base;
  SolverFreeAdmm plain(problem(), base);
  const AdmmResult ref = plain.solve();
  ASSERT_TRUE(ref.converged);

  AdmmOptions wd = base;
  wd.watchdog = true;
  SolverFreeAdmm guarded(problem(), wd);
  const AdmmResult res = guarded.solve();
  ASSERT_TRUE(res.converged);
  EXPECT_EQ(res.iterations, ref.iterations);
  EXPECT_EQ(res.watchdog.stalls, 0);
  ASSERT_EQ(res.x.size(), ref.x.size());
  for (std::size_t i = 0; i < res.x.size(); ++i) {
    ASSERT_EQ(res.x[i], ref.x[i]) << "x[" << i << "]";
  }
}

TEST(WatchdogSolverTest, StalledStatusNameStable) {
  EXPECT_STREQ(to_string(AdmmStatus::kStalled), "stalled");
}

TEST(WatchdogSolverTest, OverloadInstanceIsDeterministicallyStalled) {
  // The builtin "ieee13_overload" instance exists exactly for this: a
  // realistic feeder pushed past feasibility. Two runs must agree bit for
  // bit (the watchdog is deterministic), and both must stall.
  static const auto inst = dopf::runtime::make_instance("ieee13_overload");
  AdmmOptions opt;
  opt.max_iterations = 20000;
  opt.check_every = 10;
  opt.watchdog = true;
  SolverFreeAdmm a(inst.problem, opt);
  SolverFreeAdmm b(inst.problem, opt);
  const AdmmResult ra = a.solve();
  const AdmmResult rb = b.solve();
  EXPECT_EQ(ra.status, AdmmStatus::kStalled);
  EXPECT_EQ(rb.status, AdmmStatus::kStalled);
  EXPECT_EQ(ra.iterations, rb.iterations);
  ASSERT_EQ(ra.x.size(), rb.x.size());
  for (std::size_t i = 0; i < ra.x.size(); ++i) {
    ASSERT_EQ(ra.x[i], rb.x[i]) << "x[" << i << "]";
  }
}

}  // namespace
}  // namespace dopf::core

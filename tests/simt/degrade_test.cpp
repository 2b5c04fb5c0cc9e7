/// Degraded-mode consensus on the simulated multi-device backend: a
/// persistently slow device is carried with stale contributions up to the
/// staleness bound, quarantined past it, readmitted after probation when it
/// recovers, and the whole schedule is deterministic. A healthy run with
/// degrade enabled stays bit-identical to one without.

#include <gtest/gtest.h>

#include "core/admm.hpp"
#include "feeders/ieee13.hpp"
#include "opf/decompose.hpp"
#include "runtime/fault.hpp"
#include "runtime/health.hpp"
#include "multi_device_solve.hpp"

namespace dopf::simt {
namespace {

using dopf::core::AdmmResult;
using dopf::core::AdmmStatus;
using dopf::runtime::DeviceState;
using dopf::runtime::FaultPlan;

const dopf::opf::DistributedProblem& problem() {
  static const auto net = dopf::feeders::ieee13();
  static const auto p = dopf::opf::decompose(net);
  return p;
}

dopf::core::AdmmOptions admm_options(int max_iters = 5000) {
  dopf::core::AdmmOptions opt;
  opt.max_iterations = max_iters;
  opt.check_every = 10;
  return opt;
}

MultiGpuOptions base_options() {
  MultiGpuOptions mo;
  mo.num_devices = 3;
  return mo;
}

void expect_identical_run(const AdmmResult& a, const AdmmResult& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.status, b.status);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t t = 0; t < a.history.size(); ++t) {
    ASSERT_EQ(a.history[t].primal_residual, b.history[t].primal_residual)
        << "record " << t;
    ASSERT_EQ(a.history[t].dual_residual, b.history[t].dual_residual)
        << "record " << t;
  }
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    ASSERT_EQ(a.x[i], b.x[i]) << "entry " << i;
  }
}

TEST(DegradeTest, PersistentStragglerTerminatesUnderDegrade) {
  // Without a `until=`, the straggler never recovers: the run must still
  // terminate (no livelock), quarantine the device exactly once, and flag
  // the affected iterations in the timing breakdown.
  auto mo = base_options();
  mo.faults = FaultPlan::parse("straggle:device=1,from=30,factor=64");
  mo.degrade.enabled = true;
  MultiDeviceSolve admm(problem(), admm_options(), mo);
  const AdmmResult res = admm.solve();

  EXPECT_TRUE(res.converged) << to_string(res.status);
  EXPECT_GT(admm->degraded_iterations(), 0);
  EXPECT_EQ(admm->quarantines(), 1);
  EXPECT_EQ(admm->readmissions(), 0);
  EXPECT_EQ(admm->device_health(1).state(), DeviceState::kQuarantined);
  EXPECT_EQ(res.timing.degraded_iterations, admm->degraded_iterations());
  EXPECT_GT(res.timing.degrade, 0.0);
  EXPECT_EQ(admm->failovers(), 0);  // degrade handled it, not failover
}

TEST(DegradeTest, DegradedScheduleIsDeterministic) {
  auto make = [] {
    auto mo = base_options();
    mo.faults = FaultPlan::parse("straggle:device=1,from=30,factor=64");
    mo.degrade.enabled = true;
    return mo;
  };
  MultiDeviceSolve a(problem(), admm_options(), make());
  MultiDeviceSolve b(problem(), admm_options(), make());
  const AdmmResult ra = a.solve();
  const AdmmResult rb = b.solve();
  expect_identical_run(ra, rb);
  EXPECT_EQ(a->degraded_iterations(), b->degraded_iterations());
  EXPECT_EQ(a->quarantines(), b->quarantines());
  EXPECT_EQ(a->readmissions(), b->readmissions());
  EXPECT_EQ(a->degrade_seconds(), b->degrade_seconds());
}

TEST(DegradeTest, BoundedStragglerIsQuarantinedThenReadmitted) {
  // The straggle window closes at iteration 120: the device is quarantined
  // once the staleness bound is exhausted, earns readmission through a
  // clean probation streak, and finishes the run as a participant.
  auto mo = base_options();
  mo.faults = FaultPlan::parse("straggle:device=1,from=30,until=120,factor=64");
  mo.degrade.enabled = true;
  MultiDeviceSolve admm(problem(), admm_options(), mo);
  const AdmmResult res = admm.solve();

  EXPECT_TRUE(res.converged) << to_string(res.status);
  EXPECT_EQ(admm->quarantines(), 1);
  EXPECT_EQ(admm->readmissions(), 1);
  EXPECT_TRUE(admm->device_health(1).participating());
  EXPECT_GT(admm->degraded_iterations(), 0);
}

TEST(DegradeTest, StalenessBoundControlsQuarantine) {
  // A short straggle burst that fits inside a generous staleness bound is
  // ridden out with stale contributions only — no quarantine at all.
  auto mo = base_options();
  mo.faults = FaultPlan::parse("straggle:device=2,from=40,until=50,factor=64");
  mo.degrade.enabled = true;
  mo.degrade.staleness_bound = 100;
  MultiDeviceSolve admm(problem(), admm_options(), mo);
  const AdmmResult res = admm.solve();

  EXPECT_TRUE(res.converged) << to_string(res.status);
  EXPECT_EQ(admm->quarantines(), 0);
  EXPECT_EQ(admm->readmissions(), 0);
  EXPECT_GT(admm->degraded_iterations(), 0);
  EXPECT_TRUE(admm->device_health(2).participating());
}

TEST(DegradeTest, HealthyRunWithDegradeEnabledIsByteIdentical) {
  // Enabling the policy must cost nothing on a healthy fleet: same
  // trajectory, bit for bit, and zero degraded iterations.
  MultiDeviceSolve plain(problem(), admm_options(), base_options());
  const AdmmResult ref = plain.solve();

  auto mo = base_options();
  mo.degrade.enabled = true;
  MultiDeviceSolve guarded(problem(), admm_options(), mo);
  const AdmmResult res = guarded.solve();

  expect_identical_run(ref, res);
  EXPECT_EQ(guarded->degraded_iterations(), 0);
  EXPECT_EQ(guarded->quarantines(), 0);
  EXPECT_EQ(guarded->degrade_seconds(), 0.0);
}

TEST(DegradeTest, PersistentStragglerWithoutDegradeOnlyCostsTime) {
  // Control: with the policy off, a persistent straggler is the PR-3
  // behavior — simulated time grows, the math is untouched.
  MultiDeviceSolve clean(problem(), admm_options(120), base_options());
  const AdmmResult ref = clean.solve();

  auto mo = base_options();
  mo.faults = FaultPlan::parse("straggle:device=1,from=30,factor=64");
  MultiDeviceSolve faulted(problem(), admm_options(120), mo);
  const AdmmResult res = faulted.solve();

  expect_identical_run(ref, res);
  EXPECT_EQ(faulted->degraded_iterations(), 0);
  EXPECT_GT(res.timing.local_update, ref.timing.local_update);
}

TEST(DegradeTest, DegradedSolutionStaysCloseToClean) {
  // Stale contributions perturb the trajectory, but the fixed point is the
  // same problem: the degraded solution must agree with the clean one to
  // engineering accuracy.
  MultiDeviceSolve clean(problem(), admm_options(), base_options());
  const AdmmResult ref = clean.solve();
  ASSERT_TRUE(ref.converged);

  auto mo = base_options();
  mo.faults = FaultPlan::parse("straggle:device=1,from=30,factor=64");
  mo.degrade.enabled = true;
  MultiDeviceSolve degraded(problem(), admm_options(), mo);
  const AdmmResult res = degraded.solve();
  ASSERT_TRUE(res.converged);

  double worst = 0.0;
  ASSERT_EQ(res.x.size(), ref.x.size());
  for (std::size_t i = 0; i < ref.x.size(); ++i) {
    const double denom =
        std::max({1.0, std::abs(ref.x[i]), std::abs(res.x[i])});
    worst = std::max(worst, std::abs(ref.x[i] - res.x[i]) / denom);
  }
  EXPECT_LT(worst, 5e-2);
  EXPECT_NEAR(res.objective, ref.objective,
              5e-2 * (1.0 + std::abs(ref.objective)));
}

TEST(DegradeTest, RepeatedFailuresQuarantineWithoutStraggle) {
  // Persistent message drops past the retry budget are absorbed as stale
  // iterations and eventually tip the health tracker into quarantine —
  // degrade mode must not fall back to checkpoint failover for this.
  auto mo = base_options();
  mo.faults = FaultPlan::parse("drop:device=2,from=30");
  mo.recovery.max_retries = 2;
  mo.degrade.enabled = true;
  MultiDeviceSolve admm(problem(), admm_options(), mo);
  const AdmmResult res = admm.solve();

  EXPECT_TRUE(res.converged) << to_string(res.status);
  EXPECT_EQ(admm->quarantines(), 1);
  EXPECT_EQ(admm->failovers(), 0);
  EXPECT_GT(admm->degraded_iterations(), 0);
}

}  // namespace
}  // namespace dopf::simt

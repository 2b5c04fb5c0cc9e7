/// Fault injection and deterministic recovery on the simulated multi-device
/// backend: a killed device fails over from the last restart point and the
/// recovered run stays bit-identical to the fault-free one; drops and
/// stragglers move only simulated time; undetected corruption perturbs the
/// trajectory (which is what the golden comparator must catch).

#include <gtest/gtest.h>

#include <cmath>

#include "core/admm.hpp"
#include "feeders/ieee13.hpp"
#include "opf/decompose.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fault.hpp"
#include "multi_device_solve.hpp"

namespace dopf::simt {
namespace {

using dopf::core::AdmmResult;
using dopf::core::AdmmStatus;
using dopf::runtime::AdmmCheckpoint;
using dopf::runtime::FaultError;
using dopf::runtime::FaultPlan;

const dopf::opf::DistributedProblem& problem() {
  static const auto net = dopf::feeders::ieee13();
  static const auto p = dopf::opf::decompose(net);
  return p;
}

dopf::core::AdmmOptions admm_options(int max_iters = 120) {
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
    ASSERT_EQ(a.history[t].iteration, b.history[t].iteration) << "record " << t;
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

TEST(FaultRecoveryTest, KillFailoverReplaysBitIdentically) {
  MultiDeviceSolve clean(problem(), admm_options(), base_options());
  const AdmmResult ref = clean.solve();

  auto mo = base_options();
  mo.faults = FaultPlan::parse("kill:device=1,iter=60");
  MultiDeviceSolve faulted(problem(), admm_options(), mo, 25);
  const AdmmResult res = faulted.solve();

  expect_identical_run(ref, res);
  EXPECT_EQ(faulted->failovers(), 1);
  EXPECT_EQ(faulted->alive_devices(), 2u);
  EXPECT_GT(faulted->recovery_seconds(), 0.0);
  EXPECT_EQ(res.timing.recovery, faulted->recovery_seconds());
  // The replayed iterations make the faulted run's simulated total larger.
  EXPECT_GT(res.timing.total(), ref.timing.total());
}

TEST(FaultRecoveryTest, KillingTheAggregatorFailsOverToo) {
  MultiDeviceSolve clean(problem(), admm_options(), base_options());
  const AdmmResult ref = clean.solve();

  auto mo = base_options();
  mo.faults = FaultPlan::parse("kill:device=0,iter=40");
  MultiDeviceSolve faulted(problem(), admm_options(), mo, 20);
  const AdmmResult res = faulted.solve();
  expect_identical_run(ref, res);
  EXPECT_EQ(faulted->failovers(), 1);
}

TEST(FaultRecoveryTest, BackToBackKillsSurviveOnTheLastDevice) {
  MultiDeviceSolve clean(problem(), admm_options(), base_options());
  const AdmmResult ref = clean.solve();

  auto mo = base_options();
  mo.faults = FaultPlan::parse("kill:device=1,iter=30;kill:device=2,iter=50");
  MultiDeviceSolve faulted(problem(), admm_options(), mo, 10);
  const AdmmResult res = faulted.solve();
  expect_identical_run(ref, res);
  EXPECT_EQ(faulted->failovers(), 2);
  EXPECT_EQ(faulted->alive_devices(), 1u);
}

TEST(FaultRecoveryTest, KillWithoutFailoverThrows) {
  auto mo = base_options();
  mo.faults = FaultPlan::parse("kill:device=1,iter=20");
  mo.recovery.failover = false;
  MultiDeviceSolve admm(problem(), admm_options(), mo);
  EXPECT_THROW(admm.solve(), FaultError);
}

TEST(FaultRecoveryTest, FaultOnAMissingDeviceIsRejected) {
  // A plan naming device 7 on a 3-device backend would otherwise be
  // silently ignored; the backend refuses it, naming the entry.
  auto mo = base_options();
  mo.faults = FaultPlan::parse("drop:device=1,iter=5;kill:device=7,iter=120");
  try {
    MultiDeviceSolve admm(problem(), admm_options(), mo);
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("entry 2"), std::string::npos) << what;
    EXPECT_NE(what.find("kill:device=7,iter=120"), std::string::npos) << what;
  }
  mo.faults = FaultPlan::parse("kill:device=2,iter=120");
  EXPECT_NO_THROW(MultiDeviceSolve(problem(), admm_options(), mo));
}

TEST(FaultRecoveryTest, RetryBudgetExhaustionEscalatesToFailover) {
  MultiDeviceSolve clean(problem(), admm_options(), base_options());
  const AdmmResult ref = clean.solve();

  auto mo = base_options();
  mo.faults = FaultPlan::parse("drop:device=2,iter=35,count=9");
  mo.recovery.max_retries = 3;
  MultiDeviceSolve faulted(problem(), admm_options(), mo, 30);
  const AdmmResult res = faulted.solve();
  expect_identical_run(ref, res);
  EXPECT_EQ(faulted->failovers(), 1);
  EXPECT_EQ(faulted->alive_devices(), 2u);
}

TEST(FaultRecoveryTest, DropsAndStragglersMoveOnlySimulatedTime) {
  MultiDeviceSolve clean(problem(), admm_options(), base_options());
  const AdmmResult ref = clean.solve();

  auto mo = base_options();
  mo.faults = FaultPlan::parse(
      "drop:device=1,iter=15,count=2;"
      "straggle:device=2,iter=10,until=40,factor=8");
  MultiDeviceSolve faulted(problem(), admm_options(), mo);
  const AdmmResult res = faulted.solve();

  expect_identical_run(ref, res);
  EXPECT_EQ(faulted->failovers(), 0);
  EXPECT_EQ(faulted->message_retries(), 2);
  EXPECT_GT(res.timing.local_update, ref.timing.local_update);
}

TEST(FaultRecoveryTest, DetectedCorruptionIsResentIntact) {
  MultiDeviceSolve clean(problem(), admm_options(), base_options());
  const AdmmResult ref = clean.solve();

  auto mo = base_options();
  mo.faults = FaultPlan::parse("corrupt:device=1,iter=25,scale=64");
  // verify_messages default on
  MultiDeviceSolve faulted(problem(), admm_options(), mo);
  const AdmmResult res = faulted.solve();
  expect_identical_run(ref, res);
  EXPECT_EQ(faulted->message_retries(), 1);
}

TEST(FaultRecoveryTest, UndetectedCorruptionPerturbsTheTrajectory) {
  MultiDeviceSolve clean(problem(), admm_options(), base_options());
  const AdmmResult ref = clean.solve();

  auto mo = base_options();
  mo.faults = FaultPlan::parse("corrupt:device=1,iter=25,scale=64");
  mo.recovery.verify_messages = false;
  MultiDeviceSolve faulted(problem(), admm_options(), mo);
  const AdmmResult res = faulted.solve();

  bool differs = false;
  for (std::size_t i = 0; i < ref.x.size() && !differs; ++i) {
    differs = ref.x[i] != res.x[i];
  }
  EXPECT_TRUE(differs)
      << "a corrupted consensus payload must leave a detectable footprint";
}

TEST(FaultRecoveryTest, CheckpointFromCoreSolverResumesMultiGpu) {
  // Cross-backend restart: capture the serial solver's state at iteration
  // 50, restore it into the multi-device solver, and finish. The combined
  // trajectory must equal the uninterrupted multi-device run bit for bit.
  MultiDeviceSolve full(problem(), admm_options(100), base_options());
  const AdmmResult ref = full.solve();

  dopf::core::AdmmOptions opt;
  opt.max_iterations = 50;
  opt.check_every = 10;
  dopf::core::SolverFreeAdmm serial(problem(), opt);
  AdmmCheckpoint ck;
  serial.set_checkpoint_hook(
      50, [&](const dopf::core::SolverFreeAdmm& solver, int iteration) {
        ck = AdmmCheckpoint::capture(solver, iteration, "ieee13");
      });
  serial.solve();
  ASSERT_EQ(ck.iteration, 50);

  MultiDeviceSolve resumed(problem(), admm_options(100), base_options());
  ck.restore(&resumed.admm, "ieee13");
  const AdmmResult res = resumed.solve();
  EXPECT_EQ(res.iterations, ref.iterations);
  ASSERT_EQ(res.x.size(), ref.x.size());
  for (std::size_t i = 0; i < ref.x.size(); ++i) {
    ASSERT_EQ(res.x[i], ref.x[i]) << "entry " << i;
  }
  ASSERT_FALSE(res.history.empty());
  EXPECT_GT(res.history.front().iteration, 50);
}

TEST(FaultRecoveryTest, ConvergedRunsReportConvergedStatus) {
  dopf::core::AdmmOptions opt;
  opt.check_every = 10;
  MultiGpuOptions mo;
  mo.num_devices = 2;
  MultiDeviceSolve admm(problem(), opt, mo);
  const AdmmResult res = admm.solve();
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.status, AdmmStatus::kConverged);
}

TEST(FaultRecoveryTest, PeriodicCheckpointWritesFile) {
  // The driver's checkpoint hook persists multi-device runs like any other.
  const std::string path = ::testing::TempDir() + "/dopf_mgpu_test.ckpt";
  MultiDeviceSolve admm(problem(), admm_options(60), base_options());
  admm.admm.set_checkpoint_hook(
      20, [&](const dopf::core::SolverFreeAdmm& solver, int iteration) {
        dopf::runtime::save_checkpoint(
            AdmmCheckpoint::capture(solver, iteration, "ieee13"), path);
      });
  admm.solve();
  const AdmmCheckpoint ck = dopf::runtime::load_checkpoint(path);
  EXPECT_EQ(ck.label, "ieee13");
  EXPECT_EQ(ck.iteration, 60);
  EXPECT_EQ(ck.x.size(), problem().num_vars);
}

}  // namespace
}  // namespace dopf::simt

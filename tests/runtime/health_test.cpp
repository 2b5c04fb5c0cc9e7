/// DeviceHealth state machine: EWMA tracking, failure streaks, the
/// healthy -> degraded -> quarantined -> probation -> healthy lifecycle, and
/// the one-shot quarantine/readmission edge signals.

#include "runtime/health.hpp"

#include <gtest/gtest.h>

namespace dopf::runtime {
namespace {

DegradePolicy tight_policy() {
  DegradePolicy p;
  p.enabled = true;
  p.ewma_alpha = 0.5;
  p.straggle_threshold = 2.0;
  p.failure_threshold = 3;
  p.staleness_bound = 4;
  p.probation_iterations = 3;
  return p;
}

TEST(DeviceHealthTest, StartsHealthyAndStaysHealthyOnNominalInput) {
  DeviceHealth h(tight_policy());
  EXPECT_EQ(h.state(), DeviceState::kHealthy);
  EXPECT_TRUE(h.participating());
  for (int t = 0; t < 100; ++t) {
    EXPECT_EQ(h.observe(1.0, 0), DeviceState::kHealthy);
  }
  EXPECT_DOUBLE_EQ(h.ewma_straggle(), 1.0);
  EXPECT_EQ(h.consecutive_failures(), 0);
  EXPECT_FALSE(h.quarantine_pending());
}

TEST(DeviceHealthTest, EwmaSmoothsTheStraggleFactor) {
  DeviceHealth h(tight_policy());
  // One observation at 9.0 with alpha 0.5: 0.5*9 + 0.5*1 = 5.
  h.observe(9.0, 0);
  EXPECT_DOUBLE_EQ(h.ewma_straggle(), 5.0);
  // Back to nominal: decays geometrically, 0.5*1 + 0.5*5 = 3.
  h.observe(1.0, 0);
  EXPECT_DOUBLE_EQ(h.ewma_straggle(), 3.0);
}

TEST(DeviceHealthTest, OneSlowIterationDoesNotDegrade) {
  // A single 3x blip smooths to 0.5*3 + 0.5*1 = 2.0, at (not above) the
  // threshold: the device stays a full participant.
  DeviceHealth h(tight_policy());
  EXPECT_EQ(h.observe(3.0, 0), DeviceState::kHealthy);
  EXPECT_EQ(h.observe(1.0, 0), DeviceState::kHealthy);
}

TEST(DeviceHealthTest, PersistentStraggleDegradesThenQuarantines) {
  DeviceHealth h(tight_policy());
  EXPECT_EQ(h.observe(64.0, 0), DeviceState::kDegraded);
  EXPECT_EQ(h.staleness(), 1);
  // Staleness accrues while unhealthy; past the bound the edge signal fires.
  for (int t = 0; t < 4; ++t) {
    h.observe(64.0, 0);
  }
  EXPECT_EQ(h.staleness(), 5);
  EXPECT_TRUE(h.quarantine_pending());
  EXPECT_EQ(h.state(), DeviceState::kDegraded);  // caller has not acked yet

  h.acknowledge();
  EXPECT_FALSE(h.quarantine_pending());
  EXPECT_EQ(h.state(), DeviceState::kQuarantined);
  EXPECT_FALSE(h.participating());
}

TEST(DeviceHealthTest, RecoveryWithinBoundRejoinsImmediately) {
  // A mild straggler (EWMA decays below the threshold within the staleness
  // bound) must rejoin without ever arming the quarantine signal.
  DeviceHealth h(tight_policy());
  h.observe(6.0, 0);
  ASSERT_EQ(h.state(), DeviceState::kDegraded);
  // Nominal again: the EWMA needs a few iterations to decay below 2.
  int t = 0;
  while (h.state() == DeviceState::kDegraded && t < 20) {
    h.observe(1.0, 0);
    ++t;
  }
  EXPECT_EQ(h.state(), DeviceState::kHealthy);
  EXPECT_EQ(h.staleness(), 0);
  EXPECT_FALSE(h.quarantine_pending());
}

TEST(DeviceHealthTest, ConsecutiveFailuresDegradeWithoutStraggle) {
  DeviceHealth h(tight_policy());
  EXPECT_EQ(h.observe(1.0, 1), DeviceState::kHealthy);
  EXPECT_EQ(h.observe(1.0, 2), DeviceState::kHealthy);
  EXPECT_EQ(h.observe(1.0, 1), DeviceState::kDegraded);  // 3rd in a row
  EXPECT_EQ(h.consecutive_failures(), 3);
  // One clean delivery resets the streak and the device rejoins.
  EXPECT_EQ(h.observe(1.0, 0), DeviceState::kHealthy);
  EXPECT_EQ(h.consecutive_failures(), 0);
}

TEST(DeviceHealthTest, ProbationEarnsReadmissionAndForgivesHistory) {
  DeviceHealth h(tight_policy());
  // Drive into quarantine.
  for (int t = 0; t < 6; ++t) h.observe(64.0, 0);
  ASSERT_TRUE(h.quarantine_pending());
  h.acknowledge();
  ASSERT_EQ(h.state(), DeviceState::kQuarantined);

  // Still sick: the probation streak never starts.
  h.observe(64.0, 0);
  EXPECT_EQ(h.probation_streak(), 0);
  EXPECT_EQ(h.state(), DeviceState::kQuarantined);

  // Healthy probes: EWMA must first decay below the threshold, then a
  // clean streak of `probation_iterations` earns the readmission signal.
  int t = 0;
  while (!h.readmission_pending() && t < 50) {
    h.observe(1.0, 0);
    ++t;
  }
  ASSERT_TRUE(h.readmission_pending());
  EXPECT_EQ(h.state(), DeviceState::kProbation);
  EXPECT_EQ(h.probation_streak(), tight_policy().probation_iterations);

  h.acknowledge();
  EXPECT_EQ(h.state(), DeviceState::kHealthy);
  EXPECT_TRUE(h.participating());
  // History forgiven: back to the pristine tracker values.
  EXPECT_DOUBLE_EQ(h.ewma_straggle(), 1.0);
  EXPECT_EQ(h.consecutive_failures(), 0);
}

TEST(DeviceHealthTest, UnhealthyProbeResetsProbationStreak) {
  DeviceHealth h(tight_policy());
  for (int t = 0; t < 6; ++t) h.observe(64.0, 0);
  h.acknowledge();
  ASSERT_EQ(h.state(), DeviceState::kQuarantined);
  // Decay the EWMA to healthy, start a streak (but stop short of the
  // readmission threshold)...
  for (int t = 0; t < 20 && h.probation_streak() < 2; ++t) h.observe(1.0, 0);
  ASSERT_EQ(h.probation_streak(), 2);
  ASSERT_FALSE(h.readmission_pending());
  // ...then relapse: the streak resets to zero.
  h.observe(64.0, 0);
  EXPECT_EQ(h.probation_streak(), 0);
  EXPECT_EQ(h.state(), DeviceState::kQuarantined);
}

}  // namespace
}  // namespace dopf::runtime

#pragma once

#include <string>

namespace dopf::runtime {

/// Opt-in graceful-degradation policy for the multi-device solver: instead
/// of blocking on (or failing over away from) a chronically slow or lossy
/// device, the aggregator stops waiting for it and proceeds on its last-good
/// contribution, bounded by `staleness_bound`. Strictly opt-in: with
/// `enabled == false` the solver behaves exactly as before, bit for bit.
struct DegradePolicy {
  bool enabled = false;
  /// EWMA smoothing weight for the observed per-iteration straggle factor
  /// (1.0 = instantaneous, small = slow to react and slow to forgive).
  double ewma_alpha = 0.5;
  /// EWMA straggle factor above which the device counts as unhealthy —
  /// the aggregator will no longer wait for its kernels.
  double straggle_threshold = 2.0;
  /// Consecutive iterations with delivery failures (drops or CRC
  /// rejections) above which the device counts as unhealthy.
  int failure_threshold = 3;
  /// Bounded staleness S: the number of consecutive iterations the global
  /// update may proceed on the device's last-good contribution. Past the
  /// bound the device is quarantined and its components re-partitioned
  /// onto the survivors.
  int staleness_bound = 8;
  /// Consecutive healthy observations a quarantined device must show
  /// before it is readmitted (probation protocol).
  int probation_iterations = 25;
};

/// Where a device stands in the degradation lifecycle.
enum class DeviceState {
  kHealthy,      ///< full participant
  kDegraded,     ///< not waited for; last-good contribution in use
  kQuarantined,  ///< components re-partitioned away; heartbeat-probed
  kProbation,    ///< quarantined, but showing a clean streak
};

/// Per-device health tracker: EWMA of the straggle factor, a
/// consecutive-delivery-failure counter, and the
/// healthy -> degraded -> quarantined -> probation -> healthy state
/// machine of DESIGN.md §7. Driven purely by per-iteration observations,
/// so two identical runs trace identical state sequences.
class DeviceHealth {
 public:
  DeviceHealth() = default;
  explicit DeviceHealth(const DegradePolicy& policy) : policy_(policy) {}

  /// Feed one iteration's observations: the device's kernel-time multiplier
  /// (1.0 = nominal) and how many delivery failures (drops + CRC rejects)
  /// its uploads suffered. Quarantined devices are probed with the same
  /// signals. Returns the state after the transition, if any.
  DeviceState observe(double straggle_factor, int delivery_failures);

  DeviceState state() const;
  /// True when the tracker currently trusts the device (kHealthy only).
  bool participating() const { return state() == DeviceState::kHealthy; }
  /// True when the device crossed the staleness bound this observe() call
  /// and must be quarantined by the caller (one-shot edge signal).
  bool quarantine_pending() const { return quarantine_pending_; }
  /// True when the device completed probation this observe() call and must
  /// be readmitted by the caller (one-shot edge signal).
  bool readmission_pending() const { return readmission_pending_; }
  /// Acknowledge the pending transition (after re-partitioning).
  void acknowledge();

  double ewma_straggle() const { return ewma_straggle_; }
  int consecutive_failures() const { return consecutive_failures_; }
  /// Iterations the device's contribution has been stale (degraded only).
  int staleness() const { return staleness_; }
  /// Clean streak accumulated towards readmission (quarantine only).
  int probation_streak() const { return probation_streak_; }

 private:
  bool unhealthy_now() const;

  DegradePolicy policy_;
  double ewma_straggle_ = 1.0;
  int consecutive_failures_ = 0;
  int staleness_ = 0;
  int probation_streak_ = 0;
  bool degraded_ = false;
  bool quarantined_ = false;
  bool quarantine_pending_ = false;
  bool readmission_pending_ = false;
};

}  // namespace dopf::runtime

#include "runtime/health.hpp"

namespace dopf::runtime {

DeviceState DeviceHealth::state() const {
  if (quarantined_) {
    return probation_streak_ > 0 ? DeviceState::kProbation
                                 : DeviceState::kQuarantined;
  }
  return degraded_ ? DeviceState::kDegraded : DeviceState::kHealthy;
}

bool DeviceHealth::unhealthy_now() const {
  return ewma_straggle_ > policy_.straggle_threshold ||
         consecutive_failures_ >= policy_.failure_threshold;
}

DeviceState DeviceHealth::observe(double straggle_factor,
                                  int delivery_failures) {
  ewma_straggle_ = policy_.ewma_alpha * straggle_factor +
                   (1.0 - policy_.ewma_alpha) * ewma_straggle_;
  if (delivery_failures > 0) {
    ++consecutive_failures_;
  } else {
    consecutive_failures_ = 0;
  }

  if (quarantined_) {
    // Probation: the device is out of the partition but still probed. A
    // clean streak of `probation_iterations` observations earns readmission.
    if (unhealthy_now()) {
      probation_streak_ = 0;
    } else {
      ++probation_streak_;
      if (probation_streak_ >= policy_.probation_iterations) {
        readmission_pending_ = true;
      }
    }
    return state();
  }

  if (degraded_) {
    if (unhealthy_now()) {
      ++staleness_;
      if (staleness_ > policy_.staleness_bound) {
        // Past the bound the stale contribution is no longer trustworthy:
        // hand the device to the caller for quarantine + re-partition.
        quarantine_pending_ = true;
      }
    } else {
      // Recovered within the staleness bound: rejoin immediately.
      degraded_ = false;
      staleness_ = 0;
    }
    return state();
  }

  if (unhealthy_now()) {
    degraded_ = true;
    staleness_ = 1;
    if (staleness_ > policy_.staleness_bound) quarantine_pending_ = true;
  }
  return state();
}

void DeviceHealth::acknowledge() {
  if (quarantine_pending_) {
    quarantine_pending_ = false;
    quarantined_ = true;
    degraded_ = false;
    staleness_ = 0;
    probation_streak_ = 0;
  } else if (readmission_pending_) {
    readmission_pending_ = false;
    quarantined_ = false;
    probation_streak_ = 0;
    // Forgive the history that got the device quarantined so it is not
    // instantly re-degraded on its first healthy iteration back.
    ewma_straggle_ = 1.0;
    consecutive_failures_ = 0;
  }
}

}  // namespace dopf::runtime

#pragma once

#include <vector>

#include "runtime/comm_model.hpp"
#include "runtime/fault.hpp"
#include "runtime/health.hpp"
#include "runtime/partition.hpp"
#include "simt/simt_backend.hpp"

namespace dopf::simt {

struct MultiGpuOptions {
  /// Kernel launch shapes on every device.
  SimtBackend::Config gpu;
  std::size_t num_devices = 2;
  /// Hardware model used for every device (defaults to the A100-like spec).
  DeviceSpec device_spec;
  dopf::runtime::CommModel comm;        ///< inter-node MPI model
  dopf::runtime::StagingModel staging;  ///< GPU <-> host PCIe model

  /// Deterministic fault schedule injected into the run (empty = none).
  dopf::runtime::FaultPlan faults;
  /// Reaction to injected faults: message retry/backoff, CRC verification
  /// of consensus payloads, and checkpoint-based device failover.
  dopf::runtime::RecoveryPolicy recovery;

  /// Graceful degradation under persistent faults (runtime/health.hpp):
  /// per-device health tracking with bounded-staleness consensus,
  /// quarantine past the staleness bound, and probation-based readmission.
  /// Off by default, and strictly opt-in at the bit level: a run whose
  /// devices never trip the policy is byte-identical to one without it.
  dopf::runtime::DegradePolicy degrade;
};

/// Functional multi-GPU execution of Algorithm 1 (the paper's Sec. IV-E /
/// Fig. 3 middle row) as an ExecutionBackend of core::SolverFreeAdmm:
/// components are block-partitioned across `num_devices` simulated GPUs;
/// the lowest-indexed live device doubles as the aggregator running the
/// global update. Every device executes its kernels bit-exactly (component
/// order is preserved, so results equal the single-device and CPU paths),
/// while the per-iteration *simulated* time accounts for
///   max over devices of the local/dual kernel time
///   + PCIe staging of each device's consensus payload
///   + MPI messages between the aggregator and the other devices.
/// The driver's TimingBreakdown reports these simulated seconds.
///
/// Fault tolerance (options.faults / options.recovery): injected message
/// drops and CRC-detected corruption are re-sent with timeout+backoff
/// (priced through the CommModel); stragglers multiply a device's kernel
/// span; a killed device triggers failover in begin_iteration — its
/// components are re-partitioned onto the survivors and the backend asks
/// the driver to rewind to its restart point (refreshed at the
/// set_checkpoint_hook cadence), so a recovered run's trace is
/// byte-identical to the fault-free one. Recovery cost is reported in
/// TimingBreakdown::recovery.
///
/// Degraded mode (options.degrade.enabled): persistent pathologies that
/// would livelock the transient machinery (a chronic straggler, a link
/// whose uploads keep failing) are absorbed instead of retried forever. A
/// per-device DeviceHealth tracker (EWMA straggle + consecutive delivery
/// failures) decides when the aggregator stops waiting for a device; the
/// global update then proceeds on that device's last-good contribution
/// (its z / lambda slices freeze) for up to `staleness_bound` iterations.
/// Past the bound the device is quarantined — its components re-partition
/// onto the survivors with NO rollback — and it is readmitted after a
/// clean probation streak. Degraded iterations are counted in
/// TimingBreakdown::degraded_iterations and their cost (give-up timeouts,
/// re-partition traffic) priced in TimingBreakdown::degrade. Traces of a
/// degraded run legitimately diverge bitwise from the fault-free one, but
/// must converge to the same solution within tolerance.
class MultiDeviceBackend final : public dopf::core::ExecutionBackend {
 public:
  /// Partitions `pack`'s components over the devices and charges each
  /// device its slice of the problem-image upload. Only the pack's layout
  /// is kept; the kernels read the pack the driver passes in.
  MultiDeviceBackend(const dopf::core::PackedLocalSolvers& pack,
                     MultiGpuOptions options);

  const char* name() const override { return "multigpu"; }
  void global_update(const dopf::core::PackedLocalSolvers& pack,
                     dopf::core::PackedState& state) override;
  void local_update(const dopf::core::PackedLocalSolvers& pack,
                    dopf::core::PackedState& state) override;
  void dual_update(const dopf::core::PackedLocalSolvers& pack,
                   dopf::core::PackedState& state) override;
  /// Deterministic chunk-tree sums, unpriced (the residual reduction rides
  /// along with the consensus traffic).
  dopf::core::ResidualSums residual_sums(
      const dopf::core::PackedLocalSolvers& pack,
      const dopf::core::PackedState& state) override;
  /// Device kills and exhausted retry budgets (failover, kRewind), then the
  /// degraded-mode health pass.
  dopf::core::IterationStart begin_iteration(int t) override;
  bool can_rewind() const override { return true; }
  void report_simulated_timing(
      dopf::core::TimingBreakdown& timing) const override;

  std::size_t num_devices() const { return devices_.size(); }
  std::size_t alive_devices() const;
  const Device& device(std::size_t d) const { return devices_[d]; }

  /// Fault-handling counters.
  int failovers() const { return failovers_; }
  int message_retries() const { return retries_; }
  /// Simulated seconds spent in failover recovery.
  double recovery_seconds() const { return sim_recovery_; }

  /// Degraded-mode counters (all zero unless options.degrade.enabled and
  /// the policy tripped).
  int degraded_iterations() const { return degraded_iterations_; }
  int quarantines() const { return quarantines_; }
  int readmissions() const { return readmissions_; }
  /// Simulated seconds spent on degradation (give-up timeouts on stale
  /// devices, quarantine/readmission re-partition traffic).
  double degrade_seconds() const { return sim_degrade_; }
  const dopf::runtime::DeviceHealth& device_health(std::size_t d) const {
    return health_[d];
  }

 private:
  /// Recompute the partition over the live devices (aggregator = lowest).
  void repartition();
  /// Device `device` is lost: re-partition and price the restart-point
  /// redistribution plus the problem-image re-upload.
  void fail_over(std::size_t device);
  /// Degraded-mode health pass for iteration_: feed every device's
  /// observations to its tracker, mark stale devices, and execute pending
  /// quarantines/readmissions. Returns true when this iteration runs
  /// degraded (some device stale or quarantined).
  bool degrade_step();
  /// Freeze a stale device's contribution: restore its z slices to the
  /// previous iterate (called after the driver swapped z/z_prev).
  void keep_stale_contribution(std::size_t d,
                               const dopf::core::PackedLocalSolvers& pack,
                               dopf::core::PackedState& state) const;
  double launch_dual_on(std::size_t d,
                        const dopf::core::PackedLocalSolvers& pack,
                        dopf::core::PackedState& state);

  MultiGpuOptions options_;
  std::vector<int> comp_nvars_;    // per component (the pack's layout)
  std::size_t image_bytes_ = 0;    // problem image size
  std::size_t restart_bytes_ = 0;  // serialized restart point size
  std::vector<Device> devices_;
  std::vector<char> alive_;
  std::size_t aggregator_ = 0;
  dopf::runtime::Partition partition_;     // per device; empty when dead
  std::vector<std::size_t> payload_vars_;  // per device
  dopf::runtime::FaultInjector injector_;
  int iteration_ = 0;  // the iteration begin_iteration announced
  int failovers_ = 0;
  int retries_ = 0;

  // Degraded-mode state (all inert unless options_.degrade.enabled).
  std::vector<dopf::runtime::DeviceHealth> health_;  // per device
  std::vector<char> quarantined_;  // per device; re-partitioned away
  std::vector<char> stale_;        // per device, this iteration only
  int degraded_iterations_ = 0;
  int quarantines_ = 0;
  int readmissions_ = 0;

  double sim_global_ = 0.0;
  double sim_local_ = 0.0;
  double sim_dual_ = 0.0;
  double sim_recovery_ = 0.0;
  double sim_degrade_ = 0.0;
  std::vector<dopf::core::ResidualSums> partials_;
};

}  // namespace dopf::simt

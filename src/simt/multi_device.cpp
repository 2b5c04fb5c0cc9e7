#include "simt/multi_device.hpp"

#include <algorithm>
#include <cstdio>

#include "core/admm.hpp"

namespace dopf::simt {

using dopf::core::IterationStart;
using dopf::core::PackedLocalSolvers;
using dopf::core::PackedState;
using dopf::core::ResidualSums;
using dopf::runtime::DeviceHealth;
using dopf::runtime::DeviceState;
using dopf::runtime::FaultError;
using dopf::runtime::FaultEvent;
using dopf::runtime::retry_cost_seconds;

namespace {
/// Launch shapes, interconnect and PCIe models of every device.
constexpr int kThreadsPerBlock = SimtBackend::Config{}.threads_per_block;
constexpr dopf::runtime::CommModel kComm{};
constexpr dopf::runtime::StagingModel kStaging{};
}  // namespace

MultiDeviceBackend::MultiDeviceBackend(const PackedLocalSolvers& pack,
                                       MultiGpuOptions options)
    : options_(std::move(options)),
      comp_nvars_(pack.comp_nvars.begin(), pack.comp_nvars.end()),
      image_bytes_(pack.image_bytes()),
      // What a rank ships to recover a peer: the four iterate vectors plus
      // rho and the iteration: the payload of a runtime::AdmmCheckpoint.
      restart_bytes_(sizeof(double) *
                         (pack.num_global() + 3 * pack.total_local()) +
                     sizeof(double) + sizeof(int)),
      injector_(options_.faults) {
  devices_.assign(std::max<std::size_t>(1, options_.num_devices),
                  Device(options_.device_spec));
  const auto& events = options_.faults.events;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].device >= devices_.size()) {
      throw FaultError("fault spec: entry " + std::to_string(i + 1) + " ('" +
                       events[i].to_string() + "') names device " +
                       std::to_string(events[i].device) + ", but the backend has " +
                       std::to_string(devices_.size()) + " device(s)");
    }
  }
  alive_.assign(devices_.size(), 1);
  health_.assign(devices_.size(), DeviceHealth(options_.degrade));
  quarantined_.assign(devices_.size(), 0);
  stale_.assign(devices_.size(), 0);
  repartition();
  // Each device uploads its slice of the problem image once.
  for (Device& device : devices_) {
    device.record_transfer(image_bytes_ / devices_.size());
  }
}

std::size_t MultiDeviceBackend::alive_devices() const {
  return static_cast<std::size_t>(
      std::count(alive_.begin(), alive_.end(), char(1)));
}

void MultiDeviceBackend::repartition() {
  std::vector<std::size_t> live;
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    if (alive_[d] && !quarantined_[d]) live.push_back(d);
  }
  if (live.empty()) {
    throw FaultError("multi-gpu: no surviving devices");
  }
  aggregator_ = live.front();
  const dopf::runtime::Partition parts =
      dopf::runtime::block_partition(comp_nvars_.size(), live.size());
  partition_.assign(devices_.size(), {});
  payload_vars_.assign(devices_.size(), 0);
  for (std::size_t i = 0; i < live.size(); ++i) {
    partition_[live[i]] = parts[i];
    for (std::size_t s : parts[i]) {
      payload_vars_[live[i]] += static_cast<std::size_t>(comp_nvars_[s]);
    }
  }
}

void MultiDeviceBackend::global_update(const PackedLocalSolvers& pack,
                                       PackedState& state) {
  // The aggregator runs the diagonal global update over all entries.
  Device& agg = devices_[aggregator_];
  const double before = agg.ledger().kernel_seconds;
  launch_global_update(agg, pack, state);
  sim_global_ += agg.ledger().kernel_seconds - before;
}

void MultiDeviceBackend::local_update(const PackedLocalSolvers& pack,
                                      PackedState& state) {
  // Devices run concurrently: the phase time is the slowest kernel plus the
  // consensus traffic (PCIe staging per device, MPI to the aggregator; the
  // aggregator handles peers serially). Injected faults price in here:
  // stragglers stretch a device's kernel span, dropped or CRC-rejected
  // uploads cost timeout+backoff retries, and undetected corruption mangles
  // the payload itself.
  const int t = iteration_;
  double span = 0.0;
  double comm = 0.0;
  double staging = 0.0;
  const bool multi = alive_devices() > 1;
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    if (!alive_[d] || quarantined_[d]) continue;
    if (stale_[d]) {
      // Degraded: the aggregator stops waiting for this device. Its
      // last-good contribution stays in the consensus state, and the only
      // cost is the give-up timeout (no kernels, no staging, no retries).
      keep_stale_contribution(d, pack, state);
      sim_degrade_ += options_.recovery.retry_timeout_s;
      continue;
    }
    double dev_span = 0.0;
    if (!partition_[d].empty()) {  // idle rank: skip the zero-block launch
      const double before = devices_[d].ledger().kernel_seconds;
      launch_local_update(devices_[d], pack, state, partition_[d],
                          kThreadsPerBlock);
      dev_span = devices_[d].ledger().kernel_seconds - before;
    }
    dev_span *= injector_.straggle_factor(d, t);
    span = std::max(span, dev_span);
    const std::size_t down = payload_vars_[d] * sizeof(double);
    const std::size_t up = 2 * payload_vars_[d] * sizeof(double);
    if (!multi) continue;
    staging = std::max(staging, kStaging.transfer_seconds(down) +
                                    kStaging.transfer_seconds(up));
    devices_[d].record_transfer(down + up);
    if (d == aggregator_) continue;
    comm += kComm.message_seconds(down) + kComm.message_seconds(up);

    const int drops = injector_.message_drops(d, t);
    if (drops > 0) {
      // begin_iteration already escalated budget overruns, so here the
      // retries always succeed; price them and move on.
      comm += retry_cost_seconds(options_.recovery, kComm, up, drops);
      retries_ += drops;
      injector_.consume_drops(d, t);
    }
    if (const FaultEvent* ev = injector_.corruption(d, t)) {
      if (options_.recovery.verify_messages) {
        // CRC rejects the payload; one re-send restores it intact.
        comm += retry_cost_seconds(options_.recovery, kComm, up, 1);
        ++retries_;
      } else {
        // Undetected: the mangled x_s silently enters the consensus state
        // (this is what the invariant checker / golden comparator must
        // catch).
        for (std::size_t s : partition_[d]) {
          const auto off = static_cast<std::size_t>(pack.comp_offset[s]);
          const auto ns = static_cast<std::size_t>(pack.comp_nvars[s]);
          for (std::size_t j = 0; j < ns; ++j) state.z[off + j] *= ev->factor;
        }
      }
      injector_.consume_corruption(d, t);
    }
  }
  sim_local_ += span + comm + staging;
}

double MultiDeviceBackend::launch_dual_on(std::size_t d,
                                          const PackedLocalSolvers& pack,
                                          PackedState& state) {
  const auto& part = partition_[d];
  if (part.empty()) return 0.0;  // idle rank: skip the zero-block launch
  const double before = devices_[d].ledger().kernel_seconds;
  devices_[d].launch(
      "dual_update", static_cast<int>(part.size()),
      kElementwiseBlock, [&](BlockContext& ctx) {
        const std::size_t s = part[ctx.block_index];
        const auto off = static_cast<std::size_t>(pack.comp_offset[s]);
        dual_block(ctx, pack, state, off,
                   off + static_cast<std::size_t>(pack.comp_nvars[s]));
      });
  return devices_[d].ledger().kernel_seconds - before;
}

void MultiDeviceBackend::dual_update(const PackedLocalSolvers& pack,
                                     PackedState& state) {
  double span = 0.0;
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    // A stale device's duals freeze along with its local solution (the
    // device never received x, so it cannot have updated lambda).
    if (!alive_[d] || quarantined_[d] || stale_[d]) continue;
    span = std::max(span, launch_dual_on(d, pack, state) *
                              injector_.straggle_factor(d, iteration_));
  }
  sim_dual_ += span;
}

ResidualSums MultiDeviceBackend::residual_sums(const PackedLocalSolvers& pack,
                                               const PackedState& state) {
  partials_.assign(dopf::core::residual_num_chunks(pack.total_local()),
                   ResidualSums{});
  dopf::core::residual_chunks(pack, state, 0, partials_.size(),
                              partials_.data());
  return dopf::core::combine_residual_chunks(partials_);
}

void MultiDeviceBackend::keep_stale_contribution(
    std::size_t d, const PackedLocalSolvers& pack, PackedState& state) const {
  // The driver swapped z_prev/z, so the device's last-good solution lives
  // in z_prev; copy it back so z keeps the stale contribution.
  for (std::size_t s : partition_[d]) {
    const auto off = static_cast<std::size_t>(pack.comp_offset[s]);
    const auto ns = static_cast<std::size_t>(pack.comp_nvars[s]);
    std::copy_n(state.z_prev.begin() + static_cast<std::ptrdiff_t>(off), ns,
                state.z.begin() + static_cast<std::ptrdiff_t>(off));
  }
}

bool MultiDeviceBackend::degrade_step() {
  const std::size_t image_slice = image_bytes_ / devices_.size();
  bool degraded = false;
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    stale_[d] = 0;
    if (!alive_[d]) continue;
    const int drops = injector_.message_drops(d, iteration_);
    const FaultEvent* corr = injector_.corruption(d, iteration_);
    const int failures =
        drops + ((corr && options_.recovery.verify_messages) ? 1 : 0);
    health_[d].observe(injector_.straggle_factor(d, iteration_), failures);

    if (health_[d].quarantine_pending()) {
      quarantined_[d] = 1;
      health_[d].acknowledge();
      repartition();  // survivors take over; NO rollback — state is global
      sim_degrade_ += kStaging.transfer_seconds(image_slice) +
                      kComm.message_seconds(image_slice);
      ++quarantines_;
    } else if (health_[d].readmission_pending()) {
      quarantined_[d] = 0;
      health_[d].acknowledge();
      repartition();
      // The readmitted device re-uploads its slice of the problem image.
      sim_degrade_ += kStaging.transfer_seconds(image_slice) +
                      kComm.message_seconds(image_slice);
      devices_[d].record_transfer(image_slice);
      ++readmissions_;
    }

    if (quarantined_[d]) {
      degraded = true;
      continue;
    }
    // Stale when the tracker degraded the device, or when this iteration's
    // delivery failures exceed the retry budget (stop waiting instead of
    // escalating to failover, which would livelock on a persistent fault).
    if (health_[d].state() == DeviceState::kDegraded ||
        drops > options_.recovery.max_retries) {
      stale_[d] = 1;
      degraded = true;
    }
  }
  return degraded;
}

void MultiDeviceBackend::fail_over(std::size_t device) {
  alive_[device] = 0;
  repartition();  // throws FaultError when nobody survives

  // Price the recovery: the aggregator re-stages the restart point across
  // PCIe, ships it to every survivor, and the dead device's slice of the
  // problem image is re-uploaded to its new owners. The driver then rolls
  // the consensus state back to the restart point and replays; every
  // survivor executes the identical kernel expressions over the identical
  // component order, so the replay is bit-for-bit the fault-free run.
  const std::size_t image_slice = image_bytes_ / devices_.size();
  double cost = kStaging.transfer_seconds(restart_bytes_);
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    if (!alive_[d]) continue;
    if (d != aggregator_) cost += kComm.message_seconds(restart_bytes_);
    cost += kStaging.transfer_seconds(
        image_slice / std::max<std::size_t>(1, alive_devices()));
    devices_[d].record_transfer(restart_bytes_);
  }
  sim_recovery_ += cost;
  ++failovers_;
}

IterationStart MultiDeviceBackend::begin_iteration(int t) {
  iteration_ = t;
  const std::size_t scan = injector_.empty() ? 0 : devices_.size();
  for (std::size_t d = 0; d < scan; ++d) {
    if (!alive_[d]) continue;
    const bool killed = injector_.kill_scheduled(d, t);
    // In degraded mode an exhausted retry budget makes the iteration stale
    // (degrade_step) instead of escalating to a rollback failover — a
    // persistent drop would otherwise replay the same window forever.
    const bool link_lost = !killed && !options_.degrade.enabled &&
                           d != aggregator_ &&
                           injector_.message_drops(d, t) >
                               options_.recovery.max_retries;
    if (!killed && !link_lost) continue;
    if (!options_.recovery.failover) {
      throw FaultError(
          "device " + std::to_string(d) +
          (killed ? " failed" : " exhausted its message retry budget") +
          " at iteration " + std::to_string(t) + " and failover is disabled");
    }
    if (killed) {
      injector_.consume_kill(d, t);
    } else {
      injector_.consume_drops(d, t);
    }
    fail_over(d);
    return IterationStart::kRewind;
  }
  if (options_.degrade.enabled && degrade_step()) ++degraded_iterations_;
  return IterationStart::kProceed;
}

std::string MultiDeviceBackend::fault_report() const {
  char line[256];
  std::string out;
  if (failovers_ > 0 || retries_ > 0) {
    std::snprintf(line, sizeof(line),
                  "fault recovery: %d failover(s), %d message retr%s, %zu/%zu "
                  "devices alive, %.2e simulated recovery seconds\n",
                  failovers_, retries_, retries_ == 1 ? "y" : "ies",
                  alive_devices(), num_devices(), sim_recovery_);
    out += line;
  }
  if (degraded_iterations_ > 0) {
    std::snprintf(line, sizeof(line),
                  "degraded mode: %d degraded iteration(s), %d quarantine(s), "
                  "%d readmission(s), %.2e simulated degrade seconds\n",
                  degraded_iterations_, quarantines_, readmissions_,
                  sim_degrade_);
    out += line;
  }
  return out;
}

void MultiDeviceBackend::report_simulated_timing(
    dopf::core::TimingBreakdown& timing) const {
  timing.global_update = sim_global_;
  timing.local_update = sim_local_;
  timing.dual_update = sim_dual_;
  timing.residuals = 0.0;
  timing.recovery = sim_recovery_;
  timing.degrade = sim_degrade_;
  timing.degraded_iterations = degraded_iterations_;
}

}  // namespace dopf::simt

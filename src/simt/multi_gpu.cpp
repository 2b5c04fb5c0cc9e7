#include "simt/multi_gpu.hpp"

#include <algorithm>
#include <cmath>

#include "core/packed_kernels.hpp"
#include "core/watchdog.hpp"
#include "linalg/vector_ops.hpp"
#include "runtime/checkpoint.hpp"

namespace dopf::simt {

using dopf::core::AdmmResult;
using dopf::core::AdmmStatus;
using dopf::core::IterationRecord;
using dopf::core::LocalSolvers;
using dopf::core::ResidualSums;
using dopf::opf::DistributedProblem;
using dopf::runtime::AdmmCheckpoint;
using dopf::runtime::DeviceHealth;
using dopf::runtime::DeviceState;
using dopf::runtime::FaultError;
using dopf::runtime::FaultEvent;
using dopf::runtime::retry_cost_seconds;
namespace kernels = dopf::core::kernels;

MultiGpuSolverFreeAdmm::MultiGpuSolverFreeAdmm(
    const DistributedProblem& problem, MultiGpuOptions options)
    : problem_(&problem),
      options_(options),
      rho_(options.gpu.admm.rho) {
  // Single-shot wrapper: precompute through a throwaway SolveModel (same
  // factorization path as the session layers, byte-identical image).
  const dopf::core::SolveModel model(problem, options.gpu.admm.projector);
  image_ = model.make_pack();
  init_state();
}

MultiGpuSolverFreeAdmm::MultiGpuSolverFreeAdmm(
    const dopf::core::SolveModel& model, MultiGpuOptions options)
    : problem_(&model.problem()),
      options_(options),
      rho_(options.gpu.admm.rho) {
  image_ = model.make_pack();
  init_state();
}

void MultiGpuSolverFreeAdmm::init_state() {
  devices_.assign(std::max<std::size_t>(1, options_.num_devices),
                  Device(options_.device_spec));
  alive_.assign(devices_.size(), 1);
  health_.assign(devices_.size(), DeviceHealth(options_.degrade));
  quarantined_.assign(devices_.size(), 0);
  stale_.assign(devices_.size(), 0);
  repartition();

  x_ = image_.x0;
  z_.assign(image_.total_local(), 0.0);
  lambda_.assign(image_.total_local(), 0.0);
  y_scratch_.assign(image_.total_local(), 0.0);
  for (std::size_t pos = 0; pos < z_.size(); ++pos) {
    z_[pos] = image_.x0[image_.global_idx[pos]];
  }
  z_prev_ = z_;
  // Each device uploads its slice of the problem image once.
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    devices_[d].record_transfer(image_.bytes() / devices_.size());
  }
}

std::size_t MultiGpuSolverFreeAdmm::alive_devices() const {
  return static_cast<std::size_t>(
      std::count(alive_.begin(), alive_.end(), char(1)));
}

void MultiGpuSolverFreeAdmm::repartition() {
  std::vector<std::size_t> live;
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    if (alive_[d] && !quarantined_[d]) live.push_back(d);
  }
  if (live.empty()) {
    throw FaultError("multi-gpu: no surviving devices");
  }
  aggregator_ = live.front();
  const dopf::runtime::Partition parts =
      dopf::runtime::block_partition(problem_->components.size(), live.size());
  partition_.assign(devices_.size(), {});
  payload_vars_.assign(devices_.size(), 0);
  for (std::size_t i = 0; i < live.size(); ++i) {
    partition_[live[i]] = parts[i];
    for (std::size_t s : parts[i]) {
      payload_vars_[live[i]] += problem_->components[s].num_vars();
    }
  }
}

void MultiGpuSolverFreeAdmm::restore_state(const AdmmCheckpoint& checkpoint) {
  if (!options_.label.empty() && !checkpoint.label.empty() &&
      checkpoint.label != options_.label) {
    throw FaultError("multi-gpu restore: checkpoint was recorded on '" +
                     checkpoint.label + "' but this run solves '" +
                     options_.label + "' — refusing to restore");
  }
  if (checkpoint.x.size() != x_.size() ||
      checkpoint.z.size() != z_.size() ||
      checkpoint.z_prev.size() != z_prev_.size() ||
      checkpoint.lambda.size() != lambda_.size()) {
    throw FaultError(
        "multi-gpu restore: checkpoint does not fit this problem (x " +
        std::to_string(checkpoint.x.size()) + "/" +
        std::to_string(x_.size()) + ", z " +
        std::to_string(checkpoint.z.size()) + "/" +
        std::to_string(z_.size()) + " values) — wrong feeder?");
  }
  if (checkpoint.model_fingerprint != 0 &&
      checkpoint.model_fingerprint !=
          dopf::core::topology_fingerprint(image_)) {
    throw FaultError(
        "multi-gpu restore: checkpoint model fingerprint does not match "
        "this run's topology — refusing to restore");
  }
  if (checkpoint.scenario_fingerprint != 0 &&
      checkpoint.scenario_fingerprint !=
          dopf::core::scenario_fingerprint(image_)) {
    throw FaultError(
        "multi-gpu restore: checkpoint scenario fingerprint does not match "
        "this run's bound loads/costs/bounds — refusing to restore");
  }
  x_ = checkpoint.x;
  z_ = checkpoint.z;
  z_prev_ = checkpoint.z_prev;
  lambda_ = checkpoint.lambda;
  rho_ = checkpoint.rho;
  start_iteration_ = checkpoint.iteration;
}

void MultiGpuSolverFreeAdmm::global_update() {
  // The aggregator runs the diagonal global update over all entries.
  const std::size_t n = image_.num_global();
  const int T = options_.gpu.elementwise_block;
  const int blocks = static_cast<int>((n + T - 1) / T);
  Device& agg = devices_[aggregator_];
  const double before = agg.ledger().kernel_seconds;
  agg.launch("global_update", blocks, T, [&](BlockContext& ctx) {
    const std::size_t begin = static_cast<std::size_t>(ctx.block_index) * T;
    const std::size_t end = std::min(n, begin + T);
    double max_flops = 0.0, max_bytes = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      kernels::global_entry(image_, z_.data(), lambda_.data(), rho_, i,
                            x_.data());
      const double deg = static_cast<double>(image_.gather_ptr[i + 1] -
                                             image_.gather_ptr[i]);
      max_flops = std::max(max_flops, 3.0 * deg + 5.0);
      max_bytes = std::max(max_bytes, 24.0 * deg + 40.0);
    }
    ctx.charge(end - begin, max_flops, max_bytes);
  });
  sim_global_ += agg.ledger().kernel_seconds - before;
}

double MultiGpuSolverFreeAdmm::launch_local_on(std::size_t d) {
  const int T = options_.gpu.threads_per_block;
  const double before = devices_[d].ledger().kernel_seconds;
  const auto& part = partition_[d];
  if (part.empty()) return 0.0;  // idle rank: skip the zero-block launch
  devices_[d].launch(
      "local_update", static_cast<int>(part.size()), T,
      [&](BlockContext& ctx) {
        const std::size_t s = part[ctx.block_index];
        const std::size_t ns = static_cast<std::size_t>(image_.comp_nvars[s]);
        kernels::stage_component(image_, x_.data(), lambda_.data(), rho_, s,
                                 y_scratch_.data());
        ctx.charge(ns, 3.0, 28.0);
        kernels::project_component(image_, s, y_scratch_.data(), z_.data());
        ctx.charge(ns, 2.0 * static_cast<double>(ns) + 1.0,
                   8.0 * static_cast<double>(ns) + 24.0);
      });
  return devices_[d].ledger().kernel_seconds - before;
}

void MultiGpuSolverFreeAdmm::local_update(int iteration) {
  z_prev_.swap(z_);
  // Devices run concurrently: the phase time is the slowest kernel plus the
  // consensus traffic (PCIe staging per device, MPI to the aggregator; the
  // aggregator handles peers serially). Injected faults price in here:
  // stragglers stretch a device's kernel span, dropped or CRC-rejected
  // uploads cost timeout+backoff retries, and undetected corruption mangles
  // the payload itself.
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
      keep_stale_contribution(d);
      sim_degrade_ += options_.recovery.retry_timeout_s;
      continue;
    }
    double dev_span = launch_local_on(d);
    dev_span *= injector_.straggle_factor(d, iteration);
    span = std::max(span, dev_span);
    const std::size_t down = payload_vars_[d] * sizeof(double);
    const std::size_t up = 2 * payload_vars_[d] * sizeof(double);
    if (multi) {
      staging = std::max(staging, options_.staging.transfer_seconds(down) +
                                      options_.staging.transfer_seconds(up));
      devices_[d].record_transfer(down + up);
      if (d != aggregator_) {
        comm += options_.comm.message_seconds(down) +
                options_.comm.message_seconds(up);

        const int drops = injector_.message_drops(d, iteration);
        if (drops > 0) {
          // process_device_faults already escalated budget overruns, so
          // here the retries always succeed; price them and move on.
          comm += retry_cost_seconds(options_.recovery, options_.comm, up,
                                     drops);
          retries_ += drops;
          injector_.consume_drops(d, iteration);
        }
        if (const FaultEvent* ev = injector_.corruption(d, iteration)) {
          if (options_.recovery.verify_messages) {
            // CRC rejects the payload; one re-send restores it intact.
            comm += retry_cost_seconds(options_.recovery, options_.comm, up,
                                       1);
            ++retries_;
          } else {
            // Undetected: the mangled x_s silently enters the consensus
            // state (this is what the invariant checker / golden
            // comparator must catch).
            for (std::size_t s : partition_[d]) {
              const auto off = static_cast<std::size_t>(image_.comp_offset[s]);
              const auto ns = static_cast<std::size_t>(image_.comp_nvars[s]);
              for (std::size_t j = 0; j < ns; ++j) {
                z_[off + j] *= ev->factor;
              }
            }
          }
          injector_.consume_corruption(d, iteration);
        }
      }
    }
  }
  sim_local_ += span + comm + staging;
}

double MultiGpuSolverFreeAdmm::launch_dual_on(std::size_t d) {
  const int T = options_.gpu.elementwise_block;
  const double before = devices_[d].ledger().kernel_seconds;
  const auto& part = partition_[d];
  if (part.empty()) return 0.0;  // idle rank: skip the zero-block launch
  devices_[d].launch("dual_update", static_cast<int>(part.size()), T,
                     [&](BlockContext& ctx) {
                       const std::size_t s = part[ctx.block_index];
                       const std::size_t ns =
                           static_cast<std::size_t>(image_.comp_nvars[s]);
                       const std::size_t off =
                           static_cast<std::size_t>(image_.comp_offset[s]);
                       for (std::size_t j = 0; j < ns; ++j) {
                         kernels::dual_entry(image_, x_.data(), z_.data(),
                                             rho_, off + j, lambda_.data());
                       }
                       ctx.charge(ns, 3.0, 44.0);
                     });
  return devices_[d].ledger().kernel_seconds - before;
}

void MultiGpuSolverFreeAdmm::dual_update(int iteration) {
  double span = 0.0;
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    // A stale device's duals freeze along with its local solution (the
    // device never received x, so it cannot have updated lambda).
    if (!alive_[d] || quarantined_[d] || stale_[d]) continue;
    span = std::max(span,
                    launch_dual_on(d) * injector_.straggle_factor(d, iteration));
  }
  sim_dual_ += span;
}

void MultiGpuSolverFreeAdmm::keep_stale_contribution(std::size_t d) {
  // local_update swapped z_prev_/z_, so the device's last-good solution
  // lives in z_prev_; copy it back so z keeps the stale contribution.
  for (std::size_t s : partition_[d]) {
    const auto off = static_cast<std::size_t>(image_.comp_offset[s]);
    const auto ns = static_cast<std::size_t>(image_.comp_nvars[s]);
    std::copy(z_prev_.begin() + static_cast<std::ptrdiff_t>(off),
              z_prev_.begin() + static_cast<std::ptrdiff_t>(off + ns),
              z_.begin() + static_cast<std::ptrdiff_t>(off));
  }
}

bool MultiGpuSolverFreeAdmm::degrade_step(int iteration) {
  const std::size_t image_slice = image_.bytes() / devices_.size();
  bool degraded = false;
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    stale_[d] = 0;
    if (!alive_[d]) continue;
    const int drops = injector_.message_drops(d, iteration);
    const FaultEvent* corr = injector_.corruption(d, iteration);
    const int failures =
        drops + ((corr && options_.recovery.verify_messages) ? 1 : 0);
    health_[d].observe(injector_.straggle_factor(d, iteration), failures);

    if (health_[d].quarantine_pending()) {
      quarantined_[d] = 1;
      health_[d].acknowledge();
      repartition();  // survivors take over; NO rollback — state is global
      sim_degrade_ += options_.staging.transfer_seconds(image_slice) +
                      options_.comm.message_seconds(image_slice);
      ++quarantines_;
    } else if (health_[d].readmission_pending()) {
      quarantined_[d] = 0;
      health_[d].acknowledge();
      repartition();
      // The readmitted device re-uploads its slice of the problem image.
      sim_degrade_ += options_.staging.transfer_seconds(image_slice) +
                      options_.comm.message_seconds(image_slice);
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

IterationRecord MultiGpuSolverFreeAdmm::compute_residuals(int iteration) {
  // Same deterministic chunk-tree reduction as every single-device backend,
  // so the multi-GPU residual history stays byte-identical to them.
  IterationRecord rec;
  rec.iteration = iteration;
  rec.rho = rho_;
  dopf::core::PackedState st;
  st.rho = rho_;
  st.x = x_;
  st.z = z_;
  st.z_prev = z_prev_;
  st.lambda = lambda_;
  st.y = y_scratch_;
  std::vector<ResidualSums> partials(
      dopf::core::residual_num_chunks(image_.total_local()));
  dopf::core::residual_chunks(image_, st, 0, partials.size(),
                              partials.data());
  const ResidualSums sums = dopf::core::combine_residual_chunks(partials);
  rec.primal_residual = std::sqrt(sums.pres2);
  rec.dual_residual = rho_ * std::sqrt(sums.dz2);
  rec.eps_primal =
      options_.gpu.admm.eps_rel * std::sqrt(std::max(sums.bx2, sums.z2));
  rec.eps_dual = options_.gpu.admm.eps_rel * std::sqrt(sums.l2);
  return rec;
}

void MultiGpuSolverFreeAdmm::take_checkpoint(int iteration,
                                             const AdmmResult& result,
                                             int recorded) {
  checkpoint_.label = options_.label;
  checkpoint_.model_fingerprint = dopf::core::topology_fingerprint(image_);
  checkpoint_.scenario_fingerprint = dopf::core::scenario_fingerprint(image_);
  checkpoint_.iteration = iteration;
  checkpoint_.rho = rho_;
  checkpoint_.x = x_;
  checkpoint_.z = z_;
  checkpoint_.z_prev = z_prev_;
  checkpoint_.lambda = lambda_;
  ck_history_size_ = result.history.size();
  ck_recorded_ = recorded;
  if (!options_.checkpoint_path.empty()) {
    dopf::runtime::save_checkpoint(checkpoint_, options_.checkpoint_path);
  }
}

void MultiGpuSolverFreeAdmm::fail_over(std::size_t device, AdmmResult* result,
                                       int* recorded) {
  alive_[device] = 0;
  repartition();  // throws FaultError when nobody survives

  // Deterministic recovery: roll the consensus state back to the restart
  // point and replay. Every survivor executes the identical kernel
  // expressions over the identical component order, so the replayed
  // trajectory is bit-for-bit the fault-free one.
  x_ = checkpoint_.x;
  z_ = checkpoint_.z;
  z_prev_ = checkpoint_.z_prev;
  lambda_ = checkpoint_.lambda;
  rho_ = checkpoint_.rho;
  result->history.resize(ck_history_size_);
  *recorded = ck_recorded_;

  // Price the recovery: the aggregator re-stages the checkpoint across
  // PCIe, ships it to every survivor, and the dead device's slice of the
  // problem image is re-uploaded to its new owners.
  const std::size_t ck_bytes = dopf::runtime::checkpoint_bytes(checkpoint_);
  const std::size_t image_slice = image_.bytes() / devices_.size();
  double cost = options_.staging.transfer_seconds(ck_bytes);
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    if (!alive_[d]) continue;
    if (d != aggregator_) cost += options_.comm.message_seconds(ck_bytes);
    cost += options_.staging.transfer_seconds(
        image_slice / std::max<std::size_t>(1, alive_devices()));
    devices_[d].record_transfer(ck_bytes);
  }
  sim_recovery_ += cost;
  ++failovers_;
}

bool MultiGpuSolverFreeAdmm::process_device_faults(int iteration,
                                                   AdmmResult* result,
                                                   int* recorded) {
  for (std::size_t d = 0; d < devices_.size(); ++d) {
    if (!alive_[d]) continue;
    const bool killed = injector_.kill_scheduled(d, iteration);
    // In degraded mode an exhausted retry budget makes the iteration stale
    // (degrade_step) instead of escalating to a rollback failover — a
    // persistent drop would otherwise replay the same window forever.
    const bool link_lost = !killed && !options_.degrade.enabled &&
                           d != aggregator_ &&
                           injector_.message_drops(d, iteration) >
                               options_.recovery.max_retries;
    if (!killed && !link_lost) continue;
    if (!options_.recovery.failover) {
      throw FaultError(
          "device " + std::to_string(d) +
          (killed ? " failed" : " exhausted its message retry budget") +
          " at iteration " + std::to_string(iteration) +
          " and failover is disabled");
    }
    if (killed) {
      injector_.consume_kill(d, iteration);
    } else {
      injector_.consume_drops(d, iteration);
    }
    fail_over(d, result, recorded);
    return true;
  }
  return false;
}

AdmmResult MultiGpuSolverFreeAdmm::solve() {
  AdmmResult result;
  const auto& opt = options_.gpu.admm;
  injector_ = dopf::runtime::FaultInjector(options_.faults);
  int recorded = 0;
  result.iterations = start_iteration_;
  // The initial state is always a valid restart point; periodic
  // checkpointing (options_.checkpoint_every) refreshes it.
  take_checkpoint(start_iteration_, result, recorded);

  // Watchdog state (inert unless opt.watchdog): mirror of the core solver.
  dopf::core::ConvergenceWatchdog watchdog(opt.watchdog_window,
                                           opt.watchdog_min_improvement,
                                           opt.watchdog_max_restarts);
  std::vector<double> best_x, best_z, best_z_prev, best_lambda;
  double best_rho = rho_;

  int t = start_iteration_ + 1;
  while (t <= opt.max_iterations) {
    if (!injector_.empty() &&
        process_device_faults(t, &result, &recorded)) {
      t = checkpoint_.iteration + 1;  // rolled back: replay from the restart
      continue;
    }
    if (options_.degrade.enabled && degrade_step(t)) {
      ++degraded_iterations_;
    }
    global_update();
    local_update(t);
    dual_update(t);
    ++iterations_run_;
    result.iterations = t;
    if (t % opt.check_every == 0) {
      const IterationRecord rec = compute_residuals(t);
      if (++recorded % opt.record_every == 0) result.history.push_back(rec);
      result.primal_residual = rec.primal_residual;
      result.dual_residual = rec.dual_residual;
      if (!std::isfinite(rec.primal_residual) ||
          !std::isfinite(rec.dual_residual) ||
          !std::isfinite(rec.eps_primal) || !std::isfinite(rec.eps_dual)) {
        result.status = AdmmStatus::kDiverged;
        break;
      }
      if (rec.primal_residual <= rec.eps_primal &&
          rec.dual_residual <= rec.eps_dual) {
        result.converged = true;
        result.status = AdmmStatus::kConverged;
        break;
      }
      if (opt.cancel && opt.cancel->cancelled()) {
        result.status = AdmmStatus::kCancelled;
        break;
      }
      if (opt.watchdog) {
        const auto decision = watchdog.observe(rec);
        if (decision.new_best) {
          best_x = x_;
          best_z = z_;
          best_z_prev = z_prev_;
          best_lambda = lambda_;
          best_rho = rho_;
        }
        using Action = dopf::core::ConvergenceWatchdog::Action;
        if (decision.action == Action::kNudgeRho) {
          if (rec.primal_residual > rec.dual_residual) {
            rho_ *= opt.adaptive_factor;
          } else {
            rho_ /= opt.adaptive_factor;
          }
        } else if (decision.action == Action::kRestartFromBest) {
          if (!best_x.empty()) {
            x_ = best_x;
            z_ = best_z;
            z_prev_ = best_z_prev;
            lambda_ = best_lambda;
            rho_ = best_rho;
          }
        } else if (decision.action == Action::kStop) {
          result.status = AdmmStatus::kStalled;
          result.watchdog = watchdog.summary();
          break;
        }
        result.watchdog = watchdog.summary();
      }
    }
    if (options_.checkpoint_every > 0 &&
        t % options_.checkpoint_every == 0) {
      take_checkpoint(t, result, recorded);
    }
    ++t;
  }
  result.x.assign(x_.begin(), x_.end());
  result.objective = dopf::linalg::dot(problem_->c, x_);
  result.final_rho = rho_;
  result.timing.global_update = sim_global_;
  result.timing.local_update = sim_local_;
  result.timing.dual_update = sim_dual_;
  result.timing.recovery = sim_recovery_;
  result.timing.degrade = sim_degrade_;
  result.timing.iterations = iterations_run_;
  result.timing.degraded_iterations = degraded_iterations_;
  return result;
}

MultiGpuSolverFreeAdmm::IterationAverages
MultiGpuSolverFreeAdmm::iteration_averages() const {
  IterationAverages avg;
  if (iterations_run_ == 0) return avg;
  const double n = static_cast<double>(iterations_run_);
  avg.global_update = sim_global_ / n;
  avg.local_update = sim_local_ / n;
  avg.dual_update = sim_dual_ / n;
  return avg;
}

}  // namespace dopf::simt

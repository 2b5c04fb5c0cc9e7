#include "core/admm.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/packed_kernels.hpp"
#include "core/scenario_binding.hpp"
#include "core/solve_model.hpp"
#include "core/watchdog.hpp"
#include "linalg/vector_ops.hpp"

namespace dopf::core {

using Clock = std::chrono::steady_clock;
using dopf::opf::DistributedProblem;

namespace {
double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Uniform per-message quantization (communication-compression extension):
/// snap every entry to one of 2^bits levels spanning [-max|v|, +max|v|].
void quantize_message(std::span<double> v, int bits) {
  if (bits <= 0 || bits >= 52 || v.empty()) return;
  double scale = 0.0;
  for (double x : v) scale = std::max(scale, std::abs(x));
  if (scale == 0.0) return;
  const double levels = std::ldexp(1.0, bits) - 1.0;  // 2^bits - 1
  const double delta = 2.0 * scale / levels;
  for (double& x : v) x = std::round(x / delta) * delta;
}
}  // namespace

const char* to_string(AdmmStatus status) {
  switch (status) {
    case AdmmStatus::kConverged:
      return "converged";
    case AdmmStatus::kIterationLimit:
      return "iteration-limit";
    case AdmmStatus::kTimeLimit:
      return "time-limit";
    case AdmmStatus::kDiverged:
      return "diverged";
    case AdmmStatus::kStalled:
      return "stalled";
    case AdmmStatus::kCancelled:
      return "cancelled";
  }
  return "?";
}

SolverFreeAdmm::SolverFreeAdmm(const DistributedProblem& problem,
                               AdmmOptions options)
    : options_(options), backend_(make_serial_backend()), rho_(options.rho) {
  // Thin wrapper over the session layers: model (factorize) + binding
  // (pack) in one call. The pack bytes match the historical fused
  // precompute exactly, so golden traces are unaffected.
  owned_model_ = std::make_unique<SolveModel>(problem, options.projector);
  owned_binding_ = std::make_unique<ScenarioBinding>(*owned_model_);
  problem_ = &owned_model_->problem();
  pack_ = &owned_binding_->pack();
  timing_.precompute =
      owned_model_->precompute_seconds() + owned_binding_->bind_seconds();
  init_storage();
}

SolverFreeAdmm::SolverFreeAdmm(const DistributedProblem& problem,
                               AdmmOptions options, LocalSolvers solvers)
    : options_(options), backend_(make_serial_backend()), rho_(options.rho) {
  owned_model_ = std::make_unique<SolveModel>(problem, options.projector,
                                              std::move(solvers));
  owned_binding_ = std::make_unique<ScenarioBinding>(*owned_model_);
  problem_ = &owned_model_->problem();
  pack_ = &owned_binding_->pack();
  init_storage();
}

SolverFreeAdmm::SolverFreeAdmm(ScenarioBinding& binding, AdmmOptions options)
    : problem_(&binding.model().problem()),
      options_(options),
      pack_(&binding.pack()),
      backend_(make_serial_backend()),
      rho_(options.rho) {
  timing_.precompute =
      binding.model().precompute_seconds() + binding.bind_seconds();
  init_storage();
}

SolverFreeAdmm::~SolverFreeAdmm() = default;

void SolverFreeAdmm::set_backend(std::unique_ptr<ExecutionBackend> backend) {
  if (backend && !plain_path() &&
      std::string_view(backend->name()) != "serial") {
    throw std::invalid_argument(
        std::string("relaxation/quantize_bits run a serial-only path; the ") +
        backend->name() + " backend would not execute them");
  }
  backend_ = backend ? std::move(backend) : make_serial_backend();
}

void SolverFreeAdmm::init_storage() {
  total_local_ = pack_->total_local();
  x_.assign(pack_->num_global(), 0.0);
  z_.assign(total_local_, 0.0);
  z_prev_.assign(total_local_, 0.0);
  lambda_.assign(total_local_, 0.0);
  y_scratch_.assign(total_local_, 0.0);
  reset();
}

PackedState SolverFreeAdmm::packed_state() {
  PackedState st;
  st.rho = rho_;
  st.x = x_;
  st.z = z_;
  st.z_prev = z_prev_;
  st.lambda = lambda_;
  st.y = y_scratch_;
  if (options_.record_component_times) {
    st.component_seconds = component_seconds_;
  }
  return st;
}

bool SolverFreeAdmm::plain_path() const {
  return options_.relaxation == 1.0 && options_.quantize_bits == 0;
}

void SolverFreeAdmm::reset() {
  rho_ = options_.rho;
  start_iteration_ = 0;
  x_ = pack_->x0;
  std::fill(lambda_.begin(), lambda_.end(), 0.0);
  // z_s = B_s x0 (the paper's per-element initial values are encoded in x0).
  for (std::size_t pos = 0; pos < total_local_; ++pos) {
    z_[pos] = pack_->x0[pack_->global_idx[pos]];
  }
  z_prev_ = z_;
  component_seconds_.assign(pack_->num_components(), 0.0);
  timing_.global_update = timing_.local_update = timing_.dual_update =
      timing_.residuals = 0.0;
  timing_.iterations = 0;
}

void SolverFreeAdmm::warm_start(std::span<const double> x,
                                std::span<const double> lambda) {
  if (x.size() != pack_->num_global()) {
    throw std::invalid_argument("warm_start: x size mismatch");
  }
  if (!lambda.empty() && lambda.size() != total_local_) {
    throw std::invalid_argument("warm_start: lambda size mismatch");
  }
  std::copy(x.begin(), x.end(), x_.begin());
  for (std::size_t pos = 0; pos < total_local_; ++pos) {
    z_[pos] = x_[pack_->global_idx[pos]];
  }
  z_prev_ = z_;
  if (lambda.empty()) {
    std::fill(lambda_.begin(), lambda_.end(), 0.0);
  } else {
    std::copy(lambda.begin(), lambda.end(), lambda_.begin());
  }
}

void SolverFreeAdmm::capture(int iteration, IterateSnapshot* out) const {
  out->iteration = iteration;
  out->rho = rho_;
  out->x.assign(x_.begin(), x_.end());
  out->z.assign(z_.begin(), z_.end());
  out->z_prev.assign(z_prev_.begin(), z_prev_.end());
  out->lambda.assign(lambda_.begin(), lambda_.end());
}

void SolverFreeAdmm::load(const IterateSnapshot& state) {
  rho_ = state.rho;
  std::copy(state.x.begin(), state.x.end(), x_.begin());
  std::copy(state.z.begin(), state.z.end(), z_.begin());
  std::copy(state.z_prev.begin(), state.z_prev.end(), z_prev_.begin());
  std::copy(state.lambda.begin(), state.lambda.end(), lambda_.begin());
}

void SolverFreeAdmm::restore_state(const IterateSnapshot& state) {
  if (state.iteration < 0) {
    throw std::invalid_argument("restore_state: negative iteration");
  }
  if (state.x.size() != pack_->num_global() ||
      state.z.size() != total_local_ || state.z_prev.size() != total_local_ ||
      state.lambda.size() != total_local_) {
    throw std::invalid_argument("restore_state: state size mismatch");
  }
  start_iteration_ = state.iteration;
  load(state);
}

void SolverFreeAdmm::set_checkpoint_hook(int every, CheckpointHook hook) {
  checkpoint_every_ = every;
  checkpoint_hook_ = std::move(hook);
}

void SolverFreeAdmm::global_update() {
  // (18) runs on the backend unconditionally: the extensions only alter the
  // local/dual messages, never the operator-side consensus step.
  PackedState st = packed_state();
  backend_->global_update(*pack_, st);
}

void SolverFreeAdmm::local_update() {
  z_prev_.swap(z_);
  PackedState st = packed_state();
  if (plain_path()) {
    backend_->local_update(*pack_, st);
    return;
  }
  local_update_extension();
}

void SolverFreeAdmm::local_update_extension() {
  // (15) with the CPU-side extensions (over-relaxation, quantized
  // messages). Runs serially over the packed pool; the extensions model
  // agent-side message mangling.
  const bool timed = options_.record_component_times;
  const int qbits = options_.quantize_bits;
  const double alpha = options_.relaxation;
  for (std::size_t s = 0; s < pack_->num_components(); ++s) {
    const std::size_t ns = static_cast<std::size_t>(pack_->comp_nvars[s]);
    const std::size_t off = static_cast<std::size_t>(pack_->comp_offset[s]);
    double* y = y_scratch_.data() + off;
    const double* ls = lambda_.data() + off;
    double* zs = z_.data() + off;
    const double* zp = z_prev_.data() + off;

    const auto start = timed ? Clock::now() : Clock::time_point{};
    if (alpha == 1.0) {
      for (std::size_t j = 0; j < ns; ++j) {
        y[j] = x_[pack_->global_idx[off + j]];
      }
    } else {
      for (std::size_t j = 0; j < ns; ++j) {
        y[j] = alpha * x_[pack_->global_idx[off + j]] +
               (1.0 - alpha) * zp[j];
      }
    }
    if (qbits > 0) {
      // The operator -> agent broadcast of B_s x is compressed; the agent's
      // own dual variables stay exact.
      quantize_message({y, ns}, qbits);
    }
    for (std::size_t j = 0; j < ns; ++j) {
      y[j] += ls[j] / rho_;
    }
    kernels::project_component(*pack_, s, y_scratch_.data(), z_.data());
    if (qbits > 0) {
      // The agent -> operator reply (x_s) is compressed symmetrically.
      quantize_message({zs, ns}, qbits);
    }
    if (timed) component_seconds_[s] += seconds_since(start);
  }
}

void SolverFreeAdmm::dual_update() {
  if (plain_path()) {
    PackedState st = packed_state();
    backend_->dual_update(*pack_, st);
    return;
  }
  dual_update_extension();
}

void SolverFreeAdmm::dual_update_extension() {
  // (12) with extensions: under over-relaxation B_s x is replaced by the
  // same relaxed combination the local update saw.
  const double alpha = options_.relaxation;
  for (std::size_t s = 0; s < pack_->num_components(); ++s) {
    const std::size_t ns = static_cast<std::size_t>(pack_->comp_nvars[s]);
    const std::size_t off = static_cast<std::size_t>(pack_->comp_offset[s]);
    double* ls = lambda_.data() + off;
    const double* zs = z_.data() + off;
    const double* zp = z_prev_.data() + off;
    if (alpha == 1.0) {
      for (std::size_t j = 0; j < ns; ++j) {
        ls[j] += rho_ * (x_[pack_->global_idx[off + j]] - zs[j]);
      }
    } else {
      for (std::size_t j = 0; j < ns; ++j) {
        const double relaxed =
            alpha * x_[pack_->global_idx[off + j]] + (1.0 - alpha) * zp[j];
        ls[j] += rho_ * (relaxed - zs[j]);
      }
    }
    if (options_.quantize_bits > 0) {
      // lambda_s rides along in the agent -> operator message.
      quantize_message({ls, ns}, options_.quantize_bits);
    }
  }
}

IterationRecord SolverFreeAdmm::compute_residuals(int iteration) {
  const PackedState st = packed_state();
  return residual_record(iteration, backend_->residual_sums(*pack_, st));
}

IterationRecord SolverFreeAdmm::dual_update_and_residuals(int iteration) {
  if (!plain_path()) {
    dual_update();
    return compute_residuals(iteration);
  }
  PackedState st = packed_state();
  return residual_record(iteration,
                         backend_->dual_update_and_residuals(*pack_, st));
}

IterationRecord SolverFreeAdmm::residual_record(
    int iteration, const ResidualSums& sums) const {
  // With each row of B_s selecting one distinct global variable,
  //   pres  = ||Bx - z||, dres = rho ||z - z_prev||,
  //   eps_p = eps_rel * max(||Bx||, ||z||), eps_d = eps_rel * ||lambda||.
  IterationRecord rec;
  rec.iteration = iteration;
  rec.rho = rho_;
  rec.primal_residual = std::sqrt(sums.pres2);
  rec.dual_residual = rho_ * std::sqrt(sums.dz2);
  rec.eps_primal = options_.eps_rel * std::sqrt(std::max(sums.bx2, sums.z2));
  rec.eps_dual = options_.eps_rel * std::sqrt(sums.l2);
  return rec;
}

bool SolverFreeAdmm::termination_satisfied(const IterationRecord& rec) const {
  return rec.primal_residual <= rec.eps_primal &&
         rec.dual_residual <= rec.eps_dual;
}

double SolverFreeAdmm::objective() const {
  return dopf::linalg::dot(pack_->c, x_);
}

AdmmResult SolverFreeAdmm::solve() {
  if (solves_run_ > 0) {
    // A repeat run reuses the factorization: zero the one-time precompute
    // (it used to be re-reported — and re-summed — on every run) and count
    // the reuse instead.
    timing_.precompute = 0.0;
    ++timing_.precompute_reuse_count;
  }
  ++solves_run_;
  AdmmResult result;
  int recorded = 0;
  const auto wall_start = Clock::now();
  // Watchdog state: the monitor plus the best-merit iterate snapshot it can
  // roll the solver back to. Untouched (and cost-free) when watchdog is off.
  ConvergenceWatchdog watchdog(options_.watchdog_window,
                               options_.watchdog_min_improvement,
                               options_.watchdog_max_restarts);
  IterateSnapshot best;
  // Restart point of a backend that can lose device state (multi-device
  // failover), with the history bookkeeping to rewind. Backends that never
  // rewind copy nothing.
  const bool rewinds = backend_->can_rewind();
  IterateSnapshot restart;
  std::size_t restart_history = 0;
  int restart_recorded = 0;
  if (rewinds) capture(start_iteration_, &restart);
  // A restored checkpoint resumes at start_iteration_ + 1; the iterate state
  // was already placed by restore_state, so the loop body is oblivious.
  result.iterations = start_iteration_;
  for (int t = start_iteration_ + 1; t <= options_.max_iterations; ++t) {
    if (backend_->begin_iteration(t) == IterationStart::kRewind) {
      if (!rewinds) {
        throw std::logic_error(std::string(backend_->name()) +
                               " requested a rewind without can_rewind()");
      }
      // Replay from the restart point: every update is deterministic, so
      // the replayed trajectory is bit-for-bit the uninterrupted one.
      load(restart);
      result.history.resize(restart_history);
      recorded = restart_recorded;
      t = restart.iteration;  // the loop increment resumes after it
      continue;
    }
    auto tic = Clock::now();
    global_update();
    timing_.global_update += seconds_since(tic);

    tic = Clock::now();
    local_update();
    timing_.local_update += seconds_since(tic);

    // A check iteration fuses the residual sums into the dual pass; that
    // pass is booked as dual-update time.
    const bool check = t % options_.check_every == 0;
    IterationRecord rec;
    tic = Clock::now();
    if (check) {
      rec = dual_update_and_residuals(t);
    } else {
      dual_update();
    }
    timing_.dual_update += seconds_since(tic);
    ++timing_.iterations;

    result.iterations = t;
    if (check) {
      if (++recorded % options_.record_every == 0) {
        result.history.push_back(rec);
      }
      result.primal_residual = rec.primal_residual;
      result.dual_residual = rec.dual_residual;
      // Divergence guard first: a non-finite residual, tolerance, or rho
      // means the iterate itself is non-finite (NaN/Inf propagates into
      // every sum), and NaN comparisons must never be read as convergence.
      if (!std::isfinite(rec.primal_residual) ||
          !std::isfinite(rec.dual_residual) ||
          !std::isfinite(rec.eps_primal) || !std::isfinite(rec.eps_dual) ||
          !std::isfinite(rec.rho)) {
        result.status = AdmmStatus::kDiverged;
        break;
      }
      if (termination_satisfied(rec)) {
        result.converged = true;
        result.status = AdmmStatus::kConverged;
        break;
      }
      // Cooperative cancellation (signal/deadline/caller): stop at the same
      // cadence as the termination test, leaving a valid restorable iterate.
      if (options_.cancel && options_.cancel->cancelled()) {
        result.status = AdmmStatus::kCancelled;
        break;
      }
      if (options_.time_limit_seconds > 0.0 &&
          seconds_since(wall_start) > options_.time_limit_seconds) {
        result.status = AdmmStatus::kTimeLimit;
        break;
      }
      if (options_.watchdog) {
        const auto decision = watchdog.observe(rec);
        if (decision.new_best) capture(t, &best);
        if (decision.action == ConvergenceWatchdog::Action::kNudgeRho) {
          // Forced residual balancing: same rule as adaptive_rho, but
          // applied regardless of the adaptive_ratio trigger.
          if (rec.primal_residual > rec.dual_residual) {
            rho_ *= options_.adaptive_factor;
          } else {
            rho_ /= options_.adaptive_factor;
          }
        } else if (decision.action ==
                   ConvergenceWatchdog::Action::kRestartFromBest) {
          if (!best.x.empty()) load(best);
        } else if (decision.action == ConvergenceWatchdog::Action::kStop) {
          result.status = AdmmStatus::kStalled;
          result.watchdog = watchdog.summary();
          break;
        }
        result.watchdog = watchdog.summary();
      }
      // Residual balancing (extension): scale rho toward balanced residuals.
      if (options_.adaptive_rho && t <= options_.adaptive_until &&
          t % options_.adaptive_every == 0) {
        if (rec.primal_residual >
            options_.adaptive_ratio * rec.dual_residual) {
          rho_ *= options_.adaptive_factor;
        } else if (rec.dual_residual >
                   options_.adaptive_ratio * rec.primal_residual) {
          rho_ /= options_.adaptive_factor;
        }
      }
    }
    if (checkpoint_every_ > 0 && t % checkpoint_every_ == 0) {
      if (rewinds) {
        capture(t, &restart);
        restart_history = result.history.size();
        restart_recorded = recorded;
      }
      if (checkpoint_hook_) checkpoint_hook_(*this, t);
    }
  }
  result.x.assign(x_.begin(), x_.end());
  result.objective = objective();
  result.final_rho = rho_;
  result.timing = timing_;
  backend_->report_simulated_timing(result.timing);
  result.component_seconds.assign(component_seconds_.begin(),
                                  component_seconds_.end());
  return result;
}

}  // namespace dopf::core

#include "core/admm.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/scenario_binding.hpp"
#include "core/solve_model.hpp"
#include "core/watchdog.hpp"
#include "linalg/vector_ops.hpp"

namespace dopf::core {

using Clock = std::chrono::steady_clock;
using dopf::opf::DistributedProblem;

namespace {
// Residual balancing (AdmmOptions::adaptive_rho): every kAdaptiveEvery
// iterations up to kAdaptiveUntil, scale rho by kAdaptiveFactor when one
// residual exceeds kAdaptiveRatio times the other. The watchdog's forced
// nudge uses the same factor.
constexpr double kAdaptiveRatio = 10.0;
constexpr double kAdaptiveFactor = 2.0;
constexpr int kAdaptiveEvery = 100;
constexpr int kAdaptiveUntil = 10000;
/// Relative merit improvement the watchdog counts as progress.
constexpr double kWatchdogMinImprovement = 1e-3;

double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}
}  // namespace

bool admissible_parameter(double value) {
  return std::isfinite(value) && value > 0.0;
}

const char* to_string(AdmmStatus status) {
  switch (status) {
    case AdmmStatus::kConverged:
      return "converged";
    case AdmmStatus::kIterationLimit:
      return "iteration-limit";
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
  binding_ = owned_binding_.get();
  init_storage();
}

SolverFreeAdmm::SolverFreeAdmm(ScenarioBinding& binding, AdmmOptions options)
    : options_(options),
      binding_(&binding),
      backend_(make_serial_backend()),
      rho_(options.rho) {
  init_storage();
}

SolverFreeAdmm::~SolverFreeAdmm() = default;

void SolverFreeAdmm::set_backend(std::unique_ptr<ExecutionBackend> backend) {
  backend_ = backend ? std::move(backend) : make_serial_backend();
}

void SolverFreeAdmm::init_storage() {
  timing_.precompute =
      binding_->model().precompute_seconds() + binding_->bind_seconds();
  total_local_ = packed().total_local();
  x_.assign(packed().num_global(), 0.0);
  z_.assign(total_local_, 0.0);
  z_prev_.assign(total_local_, 0.0);
  lambda_.assign(total_local_, 0.0);
  y_scratch_.assign(total_local_, 0.0);
  reset();
}

PackedState SolverFreeAdmm::packed_state() {
  PackedState st;
  st.rho = rho_;
  st.alpha = options_.relaxation;
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

void SolverFreeAdmm::reset() {
  rho_ = options_.rho;
  start_iteration_ = 0;
  x_ = packed().x0;
  std::fill(lambda_.begin(), lambda_.end(), 0.0);
  // z_s = B_s x0 (the paper's per-element initial values are encoded in x0).
  for (std::size_t pos = 0; pos < total_local_; ++pos) {
    z_[pos] = packed().x0[packed().global_idx[pos]];
  }
  z_prev_ = z_;
  component_seconds_.assign(packed().num_components(), 0.0);
  timing_.global_update = timing_.local_update = timing_.dual_update =
      timing_.residuals = 0.0;
  timing_.iterations = 0;
}

void SolverFreeAdmm::warm_start(std::span<const double> x,
                                std::span<const double> lambda) {
  if (x.size() != packed().num_global()) {
    throw std::invalid_argument("warm_start: x size mismatch");
  }
  if (!lambda.empty() && lambda.size() != total_local_) {
    throw std::invalid_argument("warm_start: lambda size mismatch");
  }
  std::copy(x.begin(), x.end(), x_.begin());
  for (std::size_t pos = 0; pos < total_local_; ++pos) {
    z_[pos] = x_[packed().global_idx[pos]];
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
  if (state.x.size() != packed().num_global() ||
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
  PackedState st = packed_state();
  backend_->global_update(packed(), st);
}

void SolverFreeAdmm::local_update() {
  z_prev_.swap(z_);
  PackedState st = packed_state();
  backend_->local_update(packed(), st);
}

void SolverFreeAdmm::dual_update() {
  PackedState st = packed_state();
  backend_->dual_update(packed(), st);
}

IterationRecord SolverFreeAdmm::compute_residuals(int iteration) {
  const PackedState st = packed_state();
  return residual_record(iteration, backend_->residual_sums(packed(), st));
}

IterationRecord SolverFreeAdmm::dual_update_and_residuals(int iteration) {
  PackedState st = packed_state();
  return residual_record(iteration,
                         backend_->dual_update_and_residuals(packed(), st));
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
  return dopf::linalg::dot(packed().c, x_);
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
  // A simulated backend reports totals since it was built; this solve's
  // share is the difference against the totals before it.
  TimingBreakdown simulated_before;
  backend_->report_simulated_timing(simulated_before);
  AdmmResult result;
  int recorded = 0;
  // Watchdog state: the monitor plus the best-merit iterate snapshot it can
  // roll the solver back to. Untouched (and cost-free) when watchdog is off.
  ConvergenceWatchdog watchdog(options_.watchdog_window,
                               kWatchdogMinImprovement,
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
    // One clock read between phases: each ends the phase before it and
    // starts the next.
    const auto t0 = Clock::now();
    global_update();
    const auto t1 = Clock::now();
    timing_.global_update += seconds_between(t0, t1);
    local_update();
    const auto t2 = Clock::now();
    timing_.local_update += seconds_between(t1, t2);

    // A check iteration fuses the residual sums into the dual pass; that
    // pass is booked as dual-update time.
    const bool check = t % options_.check_every == 0;
    IterationRecord rec;
    if (check) {
      rec = dual_update_and_residuals(t);
    } else {
      dual_update();
    }
    timing_.dual_update += seconds_since(t2);
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
      if (options_.watchdog) {
        const auto decision = watchdog.observe(rec);
        if (decision.new_best) capture(t, &best);
        if (decision.action == ConvergenceWatchdog::Action::kNudgeRho) {
          // Forced residual balancing: same rule as adaptive_rho, but
          // applied regardless of the kAdaptiveRatio trigger.
          if (rec.primal_residual > rec.dual_residual) {
            rho_ *= kAdaptiveFactor;
          } else {
            rho_ /= kAdaptiveFactor;
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
      if (options_.adaptive_rho && t <= kAdaptiveUntil &&
          t % kAdaptiveEvery == 0) {
        if (rec.primal_residual > kAdaptiveRatio * rec.dual_residual) {
          rho_ *= kAdaptiveFactor;
        } else if (rec.dual_residual > kAdaptiveRatio * rec.primal_residual) {
          rho_ /= kAdaptiveFactor;
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
  result.timing.global_update -= simulated_before.global_update;
  result.timing.local_update -= simulated_before.local_update;
  result.timing.dual_update -= simulated_before.dual_update;
  result.timing.residuals -= simulated_before.residuals;
  result.timing.recovery -= simulated_before.recovery;
  result.timing.degrade -= simulated_before.degrade;
  result.timing.degraded_iterations -= simulated_before.degraded_iterations;
  result.component_seconds.assign(component_seconds_.begin(),
                                  component_seconds_.end());
  return result;
}

}  // namespace dopf::core

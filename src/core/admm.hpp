#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/backend.hpp"
#include "core/cancel.hpp"
#include "core/packed_solvers.hpp"
#include "opf/decompose.hpp"

namespace dopf::core {

class SolveModel;
class ScenarioBinding;

/// Options shared by the solver-free ADMM and the benchmark ADMM.
/// The extension fields (adaptive_rho, relaxation, quantize_bits) are
/// honoured by core::SolverFreeAdmm only; the benchmark ADMM reproduces the
/// paper's comparison configuration and ignores them.
struct AdmmOptions {
  double rho = 100.0;     ///< penalty parameter (paper default)
  double eps_rel = 1e-3;  ///< relative tolerance in (16) (paper default)
  int max_iterations = 200000;
  /// Wall-clock budget in seconds; <= 0 disables. Checked at the same
  /// cadence as the termination criterion.
  double time_limit_seconds = 0.0;
  /// Evaluate the termination criterion every k iterations (1 = paper).
  int check_every = 1;
  /// Record an IterationRecord every k checks (for residual plots).
  int record_every = 1;

  /// Residual balancing [29] (extension; off reproduces the paper).
  bool adaptive_rho = false;
  double adaptive_ratio = 10.0;  ///< trigger when residuals differ by this
  double adaptive_factor = 2.0;  ///< multiply/divide rho by this
  int adaptive_every = 100;      ///< check cadence
  int adaptive_until = 10000;    ///< freeze rho afterwards (keeps theory)

  /// Over-relaxation factor alpha (standard ADMM acceleration; 1.0
  /// reproduces the paper, 1.5-1.8 typically reduces iterations). The
  /// local/dual updates see alpha*B_s x + (1-alpha)*x_s^(t) instead of
  /// B_s x. Note: the paper's ref [30] (multiple local updates) targets
  /// *inexact* local solvers and is a no-op for closed-form local steps,
  /// so this is the acceleration we expose instead.
  double relaxation = 1.0;

  /// Communication compression (the future-work direction of the paper's
  /// ref [37]): quantize every operator<->agent message to this many bits
  /// per entry with per-component uniform quantization. 0 disables
  /// (lossless, reproduces the paper). Inexact-ADMM territory: expect more
  /// iterations in exchange for an 8x-64/bits reduction in traffic.
  ///
  /// relaxation != 1 and quantize_bits > 0 run a serial extension path
  /// that bypasses the execution backend, so SolverFreeAdmm::set_backend
  /// rejects every non-serial backend while either is set.
  int quantize_bits = 0;

  /// Accumulate per-component local-update wall time (adds timer overhead;
  /// enable only for the runtime/cluster measurement benches).
  bool record_component_times = false;

  /// Convergence watchdog (extension; off reproduces the paper): monitor
  /// the residual merit max(pres/eps_primal, dres/eps_dual) at every
  /// termination check, remember the best iterate seen, and when no
  /// relative merit improvement of at least `watchdog_min_improvement`
  /// lands within `watchdog_window` iterations, escalate through
  /// safeguarded actions: a residual-balancing rho nudge (the adaptive_rho
  /// rule, forced), then restart-from-best-iterate (up to
  /// `watchdog_max_restarts` times), then a clean kStalled stop. The
  /// window is counted in iterations, not checks, so the verdict does not
  /// depend on check_every; the default rides out the multi-hundred-
  /// iteration merit plateaus healthy ADMM runs exhibit.
  bool watchdog = false;
  int watchdog_window = 1000;  ///< stall window, counted in iterations
  double watchdog_min_improvement = 1e-3;  ///< relative merit improvement
  int watchdog_max_restarts = 2;  ///< restart-from-best budget before kStalled

  /// Cooperative cancellation/deadline token (not owned; must outlive the
  /// solve). Polled at the termination-check cadence by both ADMMs, so a
  /// request lands within `check_every` iterations at zero hot-path cost.
  /// nullptr disables. A cancelled solve stops cleanly with AdmmStatus::kCancelled
  /// and a valid (restorable) iterate.
  const CancelToken* cancel = nullptr;

  /// Local-solver factorization policy (the preflight remediation knob,
  /// robust::Preflight): default builds exact projectors and raises
  /// opf::ConditioningError on a non-SPD Gram matrix; with
  /// `projector.auto_regularize` set, a reported Tikhonov ridge is applied
  /// instead. Precompute-only — does not affect the per-iteration kernels.
  dopf::linalg::ProjectorOptions projector;
};

/// One sampled point of the residual trajectories (Fig. 2).
struct IterationRecord {
  int iteration = 0;
  double primal_residual = 0.0;
  double dual_residual = 0.0;
  double eps_primal = 0.0;
  double eps_dual = 0.0;
  double rho = 0.0;
};

/// Wall-clock breakdown per update kind (Fig. 3): seconds spent in total,
/// and the number of iterations over which they accumulated.
struct TimingBreakdown {
  double precompute = 0.0;
  double global_update = 0.0;
  double local_update = 0.0;
  /// core::SolverFreeAdmm books its check iterations' fused dual+residual
  /// pass here, so its `residuals` stays zero on wall-clock backends; the
  /// SIMT backend and the benchmark ADMM price and time the residual pass
  /// separately.
  double dual_update = 0.0;
  double residuals = 0.0;
  /// Simulated seconds spent recovering from injected faults (checkpoint
  /// redistribution + problem re-upload on device failover). Zero on
  /// fault-free runs; populated by simt::MultiDeviceBackend.
  double recovery = 0.0;
  /// Simulated seconds spent on graceful degradation (exhausted retry
  /// budgets on stale iterations, quarantine/readmission re-partitioning).
  /// Zero unless a DegradePolicy is enabled and trips.
  double degrade = 0.0;
  int iterations = 0;
  /// Iterations where at least one device's contribution was stale or
  /// quarantined (degraded-mode consensus); 0 on healthy runs.
  int degraded_iterations = 0;
  /// How many times this solve reused an existing precompute instead of
  /// paying it: bumped when solve() runs again on the same solver (the
  /// precompute field is zeroed then, fixing the old double-count) and for
  /// every warm session solve that needed no factorization work.
  int precompute_reuse_count = 0;
  /// Single-component projector re-derivations performed for this solve
  /// (topology edits routed through ScenarioBinding); 0 for load-only
  /// rebinds and single-shot runs.
  int refactorizations = 0;

  /// Per-iteration update time only: the one-time `precompute` (local-solver
  /// factorization + packing) is deliberately EXCLUDED, because the paper's
  /// per-iteration figures (Fig. 3/4) amortize it away. Use
  /// total_with_precompute() for end-to-end wall time.
  double total() const {
    return global_update + local_update + dual_update + residuals + recovery +
           degrade;
  }

  /// End-to-end: precompute plus every per-iteration phase.
  double total_with_precompute() const { return precompute + total(); }
};

/// Why the iteration stopped.
enum class AdmmStatus {
  kConverged,       ///< (16) satisfied
  kIterationLimit,  ///< max_iterations reached
  kTimeLimit,       ///< time_limit_seconds exceeded
  kDiverged,        ///< non-finite residuals (model inconsistent or rho bad)
  kStalled,         ///< watchdog: no residual progress, safeguards exhausted
  kCancelled,       ///< cooperative cancellation (signal, deadline, caller)
};

const char* to_string(AdmmStatus status);

/// What the convergence watchdog did during a solve (all zero when off).
struct WatchdogSummary {
  int stalls = 0;      ///< stall windows detected
  int rho_nudges = 0;  ///< forced residual-balancing rho adjustments
  int restarts = 0;    ///< restart-from-best-iterate actions
  bool oscillation_detected = false;  ///< merit bounced rather than crept
};

/// The complete iterate state Algorithm 1 carries between iterations,
/// captured after iteration `iteration`'s dual update. One type serves the
/// watchdog's best iterate, the restart point of rewinding backends, and
/// (as the base of runtime::AdmmCheckpoint) durable checkpoints.
struct IterateSnapshot {
  int iteration = 0;
  double rho = 0.0;
  std::vector<double> x;       ///< global iterate
  std::vector<double> z;       ///< local solutions, concatenated
  std::vector<double> z_prev;  ///< previous local solutions
  std::vector<double> lambda;  ///< duals, concatenated
};

struct AdmmResult {
  std::vector<double> x;  ///< global solution (clipped to bounds)
  AdmmStatus status = AdmmStatus::kIterationLimit;
  bool converged = false;
  /// True when this solve started from retained session state rather than
  /// the paper's initial point (set by core::SolveSession).
  bool warm_started = false;
  int iterations = 0;
  double objective = 0.0;
  double primal_residual = 0.0;
  double dual_residual = 0.0;
  double final_rho = 0.0;
  std::vector<IterationRecord> history;
  TimingBreakdown timing;
  WatchdogSummary watchdog;  ///< populated when options.watchdog is on
  /// Per-component cumulative local-update seconds (empty unless
  /// record_component_times).
  std::vector<double> component_seconds;
};

/// The paper's contribution (Algorithm 1): solver-free consensus ADMM for
/// the component-wise distributed model (9).
///
/// Per iteration:
///   global update (13)/(18): x = clip((rho*B'z - c - B'lambda) / (rho*deg))
///   local update  (15):      x_s = proj_{A_s x = b_s}(B_s x + lambda_s/rho)
///   dual update   (12):      lambda_s += rho*(B_s x - x_s)
/// with termination by the relative primal/dual residuals (16).
///
/// solve() is the only solver-free iteration loop: execution is delegated
/// to an ExecutionBackend over the packed SoA storage (serial by default;
/// inject runtime::make_threaded_backend, a simt::SimtBackend or a
/// simt::MultiDeviceBackend via set_backend), and termination, divergence
/// guard, cancellation, time limit, adaptive rho, watchdog, history
/// sampling and checkpointing behave the same on every backend. All
/// backends produce byte-identical iterates. The extension options
/// (relaxation != 1, quantize_bits > 0) run on a built-in serial path, so
/// set_backend rejects non-serial backends while they are set.
///
/// The class also exposes the individual updates so the virtual-cluster
/// harness can drive one step at a time.
class SolverFreeAdmm {
 public:
  /// Single-shot entry points: thin wrappers that build an owned
  /// SolveModel + ScenarioBinding internally (model+bind+solve in one
  /// call) — byte-identical to the historical fused precompute.
  /// Precomputes the local solvers unless a precomputed set is supplied.
  SolverFreeAdmm(const dopf::opf::DistributedProblem& problem,
                 AdmmOptions options);
  SolverFreeAdmm(const dopf::opf::DistributedProblem& problem,
                 AdmmOptions options, LocalSolvers solvers);
  /// Session entry point: iterate over an externally owned binding's pack
  /// (zero precompute here; the model already paid it). `binding` must
  /// outlive the solver; its in-place scenario rebinds are picked up by
  /// the next solve automatically.
  SolverFreeAdmm(ScenarioBinding& binding, AdmmOptions options);
  ~SolverFreeAdmm();

  /// Replace the execution backend (nullptr restores the serial backend).
  /// The iterate state is untouched, so backends may even be swapped
  /// mid-solve without perturbing the trajectory. Throws
  /// std::invalid_argument for a non-serial backend while the options
  /// select the serial-only extension path (relaxation, quantize_bits).
  void set_backend(std::unique_ptr<ExecutionBackend> backend);
  ExecutionBackend& backend() { return *backend_; }
  const ExecutionBackend& backend() const { return *backend_; }

  /// Run Algorithm 1 to termination.
  AdmmResult solve();

  // --- Step-level API (state machine: call in global->local->dual order).
  void global_update();
  void local_update();
  void dual_update();
  /// Residuals of (16) for the current iterate.
  IterationRecord compute_residuals(int iteration);
  /// dual_update() then compute_residuals(), in one fused backend pass on
  /// the plain path (same bits as the two calls).
  IterationRecord dual_update_and_residuals(int iteration);
  bool termination_satisfied(const IterationRecord& rec) const;

  std::span<const double> x() const { return x_; }
  /// Concatenated local solutions z = [x_1; ...; x_S] of (17).
  std::span<const double> z() const { return z_; }
  /// Previous local solutions (needed to restart the dual residual).
  std::span<const double> z_prev() const { return z_prev_; }
  std::span<const double> lambda() const { return lambda_; }
  double rho() const { return rho_; }
  /// The packed per-iteration problem image shared by every backend.
  const PackedLocalSolvers& packed() const { return *pack_; }
  /// Start offset of component s within z / lambda.
  std::size_t offset(std::size_t s) const {
    return static_cast<std::size_t>(pack_->comp_offset[s]);
  }

  /// Reset iterates to the paper's initial point (Sec. V-A).
  void reset();

  /// Warm-start from a previous solution of a problem with the same
  /// variable layout (e.g. after a load or price change on an unchanged
  /// topology): x seeds the global iterate, z_s = B_s x, and `lambda`
  /// (concatenated, size = total local dimension) seeds the duals — pass an
  /// empty span to zero them. Cuts re-solve iterations substantially for
  /// small perturbations; see examples/dynamic_topology.
  void warm_start(std::span<const double> x,
                  std::span<const double> lambda = {});

  /// Copy the current iterate state into `out` as the state after
  /// `iteration` (reuses out's storage).
  void capture(int iteration, IterateSnapshot* out) const;
  /// Restore a complete iterate state (checkpoint restart): a subsequent
  /// solve() continues at state.iteration+1 and — because every update is
  /// deterministic — reproduces the uninterrupted run bit-for-bit from that
  /// point. Throws std::invalid_argument on a size mismatch.
  void restore_state(const IterateSnapshot& state);
  /// Iteration the next solve() resumes after (0 = fresh run).
  int start_iteration() const { return start_iteration_; }

  /// Invoke `hook` every `every` iterations inside solve() with the solver's
  /// current state (periodic checkpointing; see runtime/checkpoint.hpp).
  /// The same cadence refreshes the in-memory restart point of a backend
  /// that can rewind; an empty hook keeps that restart point in memory
  /// only. every <= 0 disables both.
  using CheckpointHook = std::function<void(const SolverFreeAdmm&, int)>;
  void set_checkpoint_hook(int every, CheckpointHook hook);

  const dopf::opf::DistributedProblem& problem() const { return *problem_; }
  const AdmmOptions& options() const { return options_; }

  /// Objective c'x of the current global iterate.
  double objective() const;

  std::span<const double> component_seconds() const {
    return component_seconds_;
  }
  TimingBreakdown& timing() { return timing_; }

 private:
  void init_storage();
  PackedState packed_state();
  /// True when the configured options follow the plain paper algorithm for
  /// the local/dual updates (no relaxation / quantization), i.e. when those
  /// updates can be delegated to the backend.
  bool plain_path() const;
  /// Overwrite the iterate state with `state` (no bookkeeping).
  void load(const IterateSnapshot& state);
  IterationRecord residual_record(int iteration,
                                  const ResidualSums& sums) const;
  void local_update_extension();
  void dual_update_extension();

  const dopf::opf::DistributedProblem* problem_ = nullptr;
  AdmmOptions options_;
  // Owned only on the single-shot wrapper paths; the session path borrows
  // an external binding. Either way the iteration loop sees one pack.
  std::unique_ptr<SolveModel> owned_model_;
  std::unique_ptr<ScenarioBinding> owned_binding_;
  const PackedLocalSolvers* pack_ = nullptr;
  std::unique_ptr<ExecutionBackend> backend_;
  double rho_;
  int solves_run_ = 0;
  int start_iteration_ = 0;
  int checkpoint_every_ = 0;
  CheckpointHook checkpoint_hook_;

  std::size_t total_local_ = 0;  // sum n_s

  std::vector<double> x_;       // global iterate (n)
  std::vector<double> z_;       // local solutions, concatenated
  std::vector<double> z_prev_;  // previous local solutions (for dres)
  std::vector<double> lambda_;  // duals, concatenated
  std::vector<double> y_scratch_;

  std::vector<double> component_seconds_;
  TimingBreakdown timing_;
};

}  // namespace dopf::core

#pragma once

#include "core/admm.hpp"
#include "core/scenario_binding.hpp"

namespace dopf::core {

/// Lifetime counters for a SolveSession (the numbers the scenario sweep
/// CLI and the session-reuse bench report).
struct SessionStats {
  int solves = 0;
  int cold_solves = 0;
  int warm_solves = 0;
  /// Warm solves that also needed zero factorization work since the
  /// previous solve — the full precompute-reuse case.
  int precompute_reuses = 0;
  /// Component refactorizations applied through rebind()/the binding.
  int refactorizations = 0;
  /// RHS-only component rebinds (cached-factorization re-derivations).
  int rhs_rebinds = 0;
};

/// Layer 3 of the session architecture: iterate state that survives across
/// solves. A SolveSession drives one SolverFreeAdmm over a ScenarioBinding
/// and keeps the consensus state (x, z, lambda) between solve() calls, so
/// after a scenario rebind the next solve warm-starts from the previous
/// solution instead of the paper's initial point — the warm-start tracking
/// setting of Kim & Kim (arXiv:2110.06879).
///
/// Per-solve TimingBreakdown is cleaned up here: the one-time model
/// precompute is attributed to the first solve only; later solves report
/// precompute_reuse_count plus exactly the refactorizations their rebinds
/// caused.
class SolveSession {
 public:
  /// `binding` must outlive the session.
  SolveSession(ScenarioBinding& binding, AdmmOptions options);

  /// Replace the execution backend (nullptr restores serial).
  void set_backend(std::unique_ptr<ExecutionBackend> backend) {
    solver_.set_backend(std::move(backend));
  }

  ScenarioBinding& binding() { return *binding_; }
  /// The underlying stepper (checkpoint hooks, step-level API).
  SolverFreeAdmm& solver() { return solver_; }
  const SolverFreeAdmm& solver() const { return solver_; }
  const SessionStats& stats() const { return stats_; }
  /// True when the next solve() will start from retained state.
  bool warm() const { return warm_; }

  /// Rebind the scenario through the binding, folding its per-component
  /// work into the session counters. Warm state is kept: the previous
  /// solution seeds the perturbed problem.
  RebindStats rebind(const dopf::opf::DistributedProblem& scenario);

  /// Solve the currently bound scenario: cold on the first call (or after
  /// reset()), warm-started from the previous solution afterwards.
  AdmmResult solve();

  /// Forget the retained iterate state; the next solve() starts cold.
  void reset() { warm_ = false; }

  /// Mark the session warm after an external state restore (streaming
  /// checkpoint resume): the caller has placed a previous solve's iterate
  /// state into solver() via restore_state, and the next solve() must
  /// treat it as retained warm state instead of resetting it.
  void mark_warm() { warm_ = true; }

 private:
  ScenarioBinding* binding_;
  SolverFreeAdmm solver_;
  SessionStats stats_;
  bool warm_ = false;
  int model_refactorizations_seen_ = 0;
};

}  // namespace dopf::core

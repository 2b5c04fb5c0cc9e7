#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/solve_model.hpp"

namespace dopf::core {

/// What one rebind() did, per component: how many components were left
/// untouched, how many needed only a right-hand-side re-derivation through
/// the cached factorization, and how many were genuinely refactorized.
struct RebindStats {
  int unchanged = 0;
  int rhs_rebinds = 0;
  int refactorizations = 0;
  bool objective_changed = false;
  bool bounds_changed = false;
  bool initial_point_changed = false;

  bool any_change() const {
    return rhs_rebinds > 0 || refactorizations > 0 || objective_changed ||
           bounds_changed || initial_point_changed;
  }
};

/// Layer 2 of the session architecture: the per-scenario half of a solve.
/// A ScenarioBinding owns the packed SoA pool (the image every execution
/// backend iterates over) and rebinds its scenario slices — bbar, c,
/// lb/ub, x0 — in place against an unchanging SolveModel.
///
/// Dirty tracking is per component: rebind() diffs a re-decomposed
/// scenario problem against the currently bound data and
///   - leaves untouched components alone,
///   - routes b_s-only changes through SolveModel::rebind_rhs, straight
///     into the pack's bbar slice (zero refactorizations, bbar
///     bit-identical to a cold build),
///   - routes A_s changes through SolveModel::refresh_component (exactly
///     that component refactorized).
/// A scenario whose component variable sets differ from the model's is
/// rejected with std::invalid_argument — that is a different model, not a
/// scenario.
class ScenarioBinding {
 public:
  /// Bind the model's base scenario. `model` must outlive the binding.
  explicit ScenarioBinding(SolveModel& model);

  const SolveModel& model() const { return *model_; }

  /// The packed image backends iterate over. Invalidated slices are
  /// updated in place by the setters below; the reference stays stable.
  const PackedLocalSolvers& pack() const { return pack_; }

  /// Wall seconds spent packing the base scenario (the non-factorization
  /// part of the precompute).
  double bind_seconds() const { return bind_seconds_; }

  /// Resident bytes: this object, the pack (PackedLocalSolvers::bytes) and
  /// the bound right-hand sides, counted by container capacity. The model
  /// is counted by SolveModel::bytes.
  std::size_t bytes() const;

  /// Rebind component s to a new right-hand side b_s through the cached
  /// factorization (no refactorization).
  void set_rhs(std::size_t s, std::span<const double> b);
  void set_objective(std::span<const double> c);
  void set_bounds(std::span<const double> lb, std::span<const double> ub);
  void set_initial_point(std::span<const double> x0);

  /// Diff `scenario` (a re-decomposition of the same network under edited
  /// loads/costs/bounds) against the bound data and apply the minimal
  /// update per the dirty-tracking rules above.
  RebindStats rebind(const dopf::opf::DistributedProblem& scenario);

  /// Totals accumulated across every rebind since construction.
  const RebindStats& lifetime() const { return lifetime_; }

  /// topology_fingerprint(pack()), computed when the binding is built and
  /// after each rebind that refactorized: nothing else changes the
  /// topology.
  std::uint64_t model_fingerprint() const { return model_fp_; }
  std::uint64_t scenario_fingerprint() const {
    return dopf::core::scenario_fingerprint(pack_);
  }

 private:
  std::span<double> bbar_slice(std::size_t s);

  SolveModel* model_;
  PackedLocalSolvers pack_;
  /// Currently bound right-hand sides, per component (diff baseline: the
  /// model's base b_s is not updated by rhs-only rebinds).
  std::vector<std::vector<double>> bound_b_;
  RebindStats lifetime_;
  std::uint64_t model_fp_ = 0;
  double bind_seconds_ = 0.0;
};

}  // namespace dopf::core

#pragma once

#include <cstdint>
#include <span>

#include "core/packed_solvers.hpp"
#include "opf/decompose.hpp"

namespace dopf::core {

/// Layer 1 of the session architecture: the immutable-topology half of a
/// solve. A SolveModel owns the decomposed problem and the per-component
/// projector factorizations — the O(m^2 n + m^3) "Precomputation" step of
/// Algorithm 1 that is identical across load-only scenario variations.
/// Scenario data (b_s, c, bounds, x0) lives one layer up in
/// ScenarioBinding, which rebinds against this model without repaying the
/// factorization.
///
/// The projectors are built with keep_factorization so rebind_rhs() can
/// re-derive bbar_s for a new b_s through the retained Cholesky factor —
/// bit-identical to a cold build, at triangular-solve cost. A genuine
/// topology edit (A_s changed) goes through refresh_component(), which
/// refactorizes exactly that component and nothing else.
class SolveModel {
 public:
  /// Factorize every component of `problem` (one full precompute).
  /// Throws opf::ConditioningError with component provenance when a Gram
  /// matrix is not SPD under `options`.
  explicit SolveModel(const dopf::opf::DistributedProblem& problem,
                      dopf::linalg::ProjectorOptions options = {});

  /// The base problem this model was built from (owned copy; topology rows
  /// track refresh_component edits).
  const dopf::opf::DistributedProblem& problem() const { return problem_; }

  std::size_t num_components() const { return solvers_.projectors.size(); }
  std::size_t num_vars() const { return problem_.num_vars; }

  /// Wall seconds spent in the initial factorization pass.
  double precompute_seconds() const { return precompute_seconds_; }
  /// Largest Tikhonov ridge any projector needed (0 = all exact).
  double max_ridge() const { return solvers_.max_ridge; }
  /// Lifetime count of single-component refactorizations performed via
  /// refresh_component (the initial full precompute is not counted).
  int refactorizations() const { return refactorizations_; }

  /// Resident bytes: this object, its copy of the problem and every
  /// projector, counted by container capacity (allocator overhead aside).
  std::size_t bytes() const;

  const dopf::linalg::AffineProjector& projector(std::size_t s) const {
    return solvers_.projectors[s];
  }

  /// Pack topology + base-scenario data into the flat SoA pool consumed by
  /// every execution backend.
  PackedLocalSolvers make_pack() const {
    return PackedLocalSolvers::build(problem_, solvers_);
  }

  /// bbar_s for a new right-hand side via the retained factorization — no
  /// refactorization, bit-identical to a cold build with the same A_s.
  std::vector<double> rebind_rhs(std::size_t s, std::span<const double> b);

  /// Re-derive component `s` from an edited topology block: exactly one
  /// factorization. The component's variable set (global map, n_s) must be
  /// unchanged — a different variable layout is a different model. Updates
  /// the stored base problem so later scenario diffs compare against the
  /// edited topology.
  void refresh_component(std::size_t s, const dopf::opf::Component& comp);

 private:
  dopf::opf::DistributedProblem problem_;
  dopf::linalg::ProjectorOptions options_;
  LocalSolvers solvers_;
  double precompute_seconds_ = 0.0;
  int refactorizations_ = 0;
};

/// FNV-1a fingerprint of a pack's topology arrays (dims, offsets, Abar
/// bits, gather structure). Two packs with equal topology fingerprints
/// came from the same SolveModel precompute.
std::uint64_t topology_fingerprint(const PackedLocalSolvers& pack);

/// FNV-1a fingerprint of a pack's scenario arrays (bbar, c, lb, ub, x0).
/// Changes whenever a ScenarioBinding rebinds data; checkpoints carry both
/// fingerprints so a resume against edited loads fails loudly.
std::uint64_t scenario_fingerprint(const PackedLocalSolvers& pack);

}  // namespace dopf::core

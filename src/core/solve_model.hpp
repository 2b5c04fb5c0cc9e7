#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/packed_solvers.hpp"
#include "linalg/affine_projector.hpp"
#include "opf/decompose.hpp"

namespace dopf::core {

/// Layer 1 of the session architecture: the immutable-topology half of a
/// solve. A SolveModel owns the decomposed problem and, per component, the
/// lower Cholesky factor L_s of the Gram matrix A_s A_s^T — the
/// O(m^2 n + m^3) factor step of Algorithm 1's precompute, identical
/// across load-only scenario variations. Abar_s and bbar_s are assembled
/// from A_s, L_s and b_s into the pack (make_pack); scenario data (b_s, c,
/// bounds, x0) lives one layer up in ScenarioBinding, which rebinds
/// against this model without repaying the factorization.
///
/// rebind_rhs() re-derives bbar_s for a new b_s through the stored factor —
/// bit-identical to a cold build, at triangular-solve cost. A genuine
/// topology edit (A_s changed) goes through refresh_component(), which
/// refactors exactly that component and nothing else.
class SolveModel {
 public:
  /// Factor every component of `problem` (one full precompute).
  /// Throws opf::ConditioningError with component provenance when a Gram
  /// matrix is not SPD under `options`.
  explicit SolveModel(const dopf::opf::DistributedProblem& problem,
                      dopf::linalg::ProjectorOptions options = {});

  /// The base problem this model was built from (owned copy; topology rows
  /// track refresh_component edits).
  const dopf::opf::DistributedProblem& problem() const { return problem_; }

  std::size_t num_components() const { return problem_.components.size(); }

  /// Wall seconds spent in the initial factorization pass.
  double precompute_seconds() const { return precompute_seconds_; }
  /// Largest Tikhonov ridge any factor needed (0 = all exact). Nonzero
  /// only under `options.auto_regularize` (preflight remediation).
  double max_ridge() const { return max_ridge_; }
  /// Lifetime count of single-component refactorizations performed via
  /// refresh_component (the initial full precompute is not counted).
  int refactorizations() const { return refactorizations_; }

  /// Resident bytes: this object, its copy of the problem and the factor
  /// store, counted by container capacity (allocator overhead aside).
  std::size_t bytes() const;

  /// Assemble every Abar_s and bbar_s from its factor and pack them with
  /// the base scenario into the flat SoA pool consumed by every execution
  /// backend. The dense Abar_s blocks live only until the image is built.
  PackedLocalSolvers make_pack() const;

  /// Abar_s into `abar` (n_s x n_s row-major) and bbar_s into `bbar`
  /// (n_s), assembled from the stored factor: what a pack holds for
  /// component s.
  void assemble(std::size_t s, std::span<double> abar,
                std::span<double> bbar) const;

  /// bbar_s for a new right-hand side b_s, written into `bbar` (n_s):
  /// the assembly's bbar arithmetic replayed through the stored factor —
  /// no refactorization, bit-identical to a cold build with the same A_s.
  void rebind_rhs(std::size_t s, std::span<const double> b,
                  std::span<double> bbar) const;

  /// Re-derive component `s` from an edited topology block: exactly one
  /// factorization. The component's variable set (global map, n_s) must be
  /// unchanged — a different variable layout is a different model. Updates
  /// the stored base problem so later scenario diffs compare against the
  /// edited topology.
  void refresh_component(std::size_t s, const dopf::opf::Component& comp);

 private:
  const double* factor(std::size_t s) const {
    return factors_.data() + factor_offset_[s];
  }

  dopf::opf::DistributedProblem problem_;
  dopf::linalg::ProjectorOptions options_;
  /// Every L_s, m_s x m_s row-major, in component order: L_s starts at
  /// factor_offset_[s] (S + 1 entries).
  std::vector<double> factors_;
  std::vector<std::size_t> factor_offset_;
  double max_ridge_ = 0.0;
  double precompute_seconds_ = 0.0;
  int refactorizations_ = 0;
};

/// Fingerprint of a pack's topology arrays (dims, offsets, Abar bits,
/// gather structure): FNV-1a steps from verify::kFingerprintSeed, which is
/// not the standard offset basis. Two packs with equal topology fingerprints
/// came from the same SolveModel precompute.
std::uint64_t topology_fingerprint(const PackedLocalSolvers& pack);

/// Fingerprint of a pack's scenario arrays (bbar, c, lb, ub, x0), hashed
/// the same way.
/// Changes whenever a ScenarioBinding rebinds data; checkpoints carry both
/// fingerprints so a resume against edited loads fails loudly.
std::uint64_t scenario_fingerprint(const PackedLocalSolvers& pack);

}  // namespace dopf::core

#pragma once

#include <optional>
#include <span>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"

namespace dopf::linalg {

/// Policy for building an AffineProjector when `A A^T` turns out not to be
/// numerically SPD (near-duplicate constraint rows that survived the RREF
/// tolerance). This is the preflight remediation knob: with
/// `auto_regularize` off the build fails with a status (strict behaviour);
/// with it on, a Tikhonov ridge `sigma I` is added to the Gram matrix —
/// starting at `ridge_rel * max(1, max diag(A A^T))` and doubling up to
/// `max_ridge_doublings` times — and the applied perturbation is reported.
struct ProjectorOptions {
  double chol_tol = 1e-12;
  bool auto_regularize = false;
  double ridge_rel = 1e-10;
  int max_ridge_doublings = 24;
  /// Retain A and the (possibly ridged) Cholesky factor of the Gram matrix
  /// so rebind_rhs() can re-derive bbar for a new b without refactorizing —
  /// the mechanism behind scenario rebinding (core::ScenarioBinding). Off
  /// by default: single-shot projectors keep today's memory footprint.
  bool keep_factorization = false;
};

/// Outcome of try_build: whether the projector exists, the Tikhonov ridge
/// that was applied (0 = exact projector), and on failure the offending
/// Cholesky pivot for row-level provenance.
struct ProjectorStatus {
  bool ok = false;
  double ridge = 0.0;
  std::size_t pivot_index = 0;
  double pivot_value = 0.0;
};

/// Precomputed orthogonal projector onto the affine set {x : A x = b} for a
/// full-row-rank A.
///
/// This is exactly the paper's local-update machinery (15):
///   Abar = A^T (A A^T)^{-1} A - I       (15b)
///   bbar = A^T (A A^T)^{-1} b           (15c)
///   x_s^{t+1} = (1/rho) * Abar * d + bbar,   d = -rho*v - lambda   (15a)
/// which algebraically equals the projection P(v + lambda/rho) with
///   P(y) = (I - A^T (A A^T)^{-1} A) y + bbar = -Abar y + ... note the
/// sign: Abar = A^T(AA^T)^{-1}A - I so P(y) = -Abar*y + ... Careful readers:
/// (1/rho)*Abar*(-rho*y) + bbar = -Abar*y + bbar = (I - A^T(AA^T)^{-1}A) y + bbar.
///
/// Construction is O(m^2 n + m^3) and happens once per component (the
/// "Precomputation" step, lines 2-3 of Algorithm 1); project_into() is a
/// dense matvec, the entirety of the per-iteration local update.
class AffineProjector {
 public:
  /// `a` must have full row rank (run row_reduce() first if unsure).
  /// Throws SingularMatrixError if A A^T is numerically singular.
  AffineProjector(const Matrix& a, std::span<const double> b);

  /// Status-returning construction. Returns nullopt (with `status->ok`
  /// false) when `A A^T` is not SPD and regularization is off or
  /// exhausted; otherwise the built projector, with `status->ridge`
  /// recording any Tikhonov perturbation that was needed.
  static std::optional<AffineProjector> try_build(
      const Matrix& a, std::span<const double> b,
      const ProjectorOptions& options = {}, ProjectorStatus* status = nullptr);

  /// try_build for a group of blocks of one shape (equal rows, equal
  /// columns), built up to eight at a time in vector lanes
  /// (linalg/lanes.hpp). Entry k is bit-identical to
  /// try_build(*a[k], b[k], options, &status[k]); try_build is this with a
  /// group of one.
  static std::vector<std::optional<AffineProjector>> try_build_group(
      std::span<const Matrix* const> a,
      std::span<const std::span<const double>> b,
      const ProjectorOptions& options, std::span<ProjectorStatus> status);

  std::size_t dim() const noexcept { return abar_.rows(); }
  std::size_t num_constraints() const noexcept { return m_; }

  /// Tikhonov ridge baked into this projector (0 for an exact projector).
  double ridge() const noexcept { return ridge_; }

  /// Recompute bbar (15c) for a new right-hand side through the retained
  /// factorization: bit-identical to a cold build with the same A and the
  /// new b, at the cost of one triangular solve instead of a full
  /// refactorization. Throws std::logic_error unless the projector was
  /// built with keep_factorization, std::invalid_argument on a size
  /// mismatch.
  void rebind_rhs(std::span<const double> b);

  /// The projection form of (15a): out = argmin_{Ax=b} ||x - y||_2
  /// = -Abar y + bbar.
  void project_into(std::span<const double> y, std::span<double> out) const;

  /// Abar from (15b); exposed for the SIMT kernels, which index its rows
  /// directly from "device" memory.
  const Matrix& abar() const noexcept { return abar_; }
  /// bbar from (15c).
  std::span<const double> bbar() const noexcept { return bbar_; }

  /// Heap bytes this projector holds: Abar, bbar and, when retained, the
  /// factor and A.
  std::size_t heap_bytes() const;

 private:
  friend struct ProjectorLanes;  // the lane build behind try_build_group
  AffineProjector() = default;

  std::size_t m_ = 0;
  double ridge_ = 0.0;
  Matrix abar_;                // (15b), n x n
  std::vector<double> bbar_;   // (15c), n
  // Retained only under keep_factorization (scenario rebinding): the
  // lower Cholesky factor of the (possibly ridged) Gram matrix, and A.
  std::optional<Matrix> factor_;
  Matrix a_;
};

}  // namespace dopf::linalg

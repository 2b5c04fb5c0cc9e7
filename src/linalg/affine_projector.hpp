#pragma once

#include <optional>
#include <span>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"

namespace dopf::linalg {

/// Smallest Cholesky pivot of the Gram matrix `A A^T` that counts as
/// positive: a block whose factor meets a smaller one is not SPD.
inline constexpr double kCholTol = 1e-12;
/// First Tikhonov ridge of the fallback, relative to max(1, max diag A A^T).
inline constexpr double kRidgeRel = 1e-10;

/// Policy for building an AffineProjector when `A A^T` turns out not to be
/// numerically SPD (near-duplicate constraint rows that survived the RREF
/// tolerance). This is the preflight remediation knob: with
/// `auto_regularize` off the build fails with a status (strict behaviour);
/// with it on, a Tikhonov ridge `sigma I` is added to the Gram matrix —
/// starting at `kRidgeRel * max(1, max diag(A A^T))` and doubling up to
/// `max_ridge_doublings` times — and the applied perturbation is reported.
struct ProjectorOptions {
  bool auto_regularize = false;
  int max_ridge_doublings = 24;
};

/// Outcome of the factor step (and of try_build): whether the Gram matrix
/// factored, the Tikhonov ridge that was applied (0 = exact projector),
/// and on failure the offending Cholesky pivot for row-level provenance.
struct ProjectorStatus {
  bool ok = false;
  double ridge = 0.0;
  std::size_t pivot_index = 0;
  double pivot_value = 0.0;
};

/// One block of the factor step: A (m x n) in; out, the lower Cholesky
/// factor L of the (possibly ridged) Gram matrix A A^T, m x m row-major
/// with zeros above the diagonal (written only when the block factors),
/// and the block's status.
struct GramBlock {
  const Matrix* a = nullptr;
  double* factor = nullptr;
  ProjectorStatus* status = nullptr;
};

/// One block of the assembly step: A (m x n), its factor L (m x m
/// row-major, lower triangle read) and b (m) in; Abar (n x n row-major)
/// and bbar (n) out.
struct AssemblyBlock {
  const Matrix* a = nullptr;
  const double* factor = nullptr;
  std::span<const double> b;
  double* abar = nullptr;
  double* bbar = nullptr;
};

/// The two steps of the projector build (lines 2-3 of Algorithm 1), each
/// for any number of blocks: grouped by shape (m, n), same-shape blocks
/// run up to eight at a time in vector lanes (linalg/lanes.hpp). Every
/// block's output is bit-identical to the block run alone, so one block is
/// the scalar build.
///
/// Factor step: the Gram product and its Cholesky factor, with the ridge
/// fallback of `options` for a block that is not SPD.
void factor_gram(std::span<const GramBlock> blocks,
                 const ProjectorOptions& options);
/// Assembly step: Abar (15b) and bbar (15c) from A, L and b.
void assemble_projector(std::span<const AssemblyBlock> blocks);

/// Precomputed orthogonal projector onto the affine set {x : A x = b} for a
/// full-row-rank A.
///
/// This is exactly the paper's local-update machinery (15):
///   Abar = A^T (A A^T)^{-1} A - I       (15b)
///   bbar = A^T (A A^T)^{-1} b           (15c)
///   x_s^{t+1} = (1/rho) * Abar * d + bbar,   d = -rho*v - lambda   (15a)
/// which is the projection P(y) = -Abar y + bbar of y = v + lambda/rho
/// onto {x : A x = b}.
///
/// Construction is O(m^2 n + m^3) (factor_gram, then assemble_projector,
/// on one block); project_into() is a dense matvec, the entirety of
/// the per-iteration local update.
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

  std::size_t dim() const noexcept { return abar_.rows(); }
  std::size_t num_constraints() const noexcept { return m_; }

  /// Tikhonov ridge baked into this projector (0 for an exact projector).
  double ridge() const noexcept { return ridge_; }

  /// The projection form of (15a): out = argmin_{Ax=b} ||x - y||_2
  /// = -Abar y + bbar.
  void project_into(std::span<const double> y, std::span<double> out) const;

  /// Abar from (15b).
  const Matrix& abar() const noexcept { return abar_; }
  /// bbar from (15c).
  std::span<const double> bbar() const noexcept { return bbar_; }

 private:
  AffineProjector() = default;

  std::size_t m_ = 0;
  double ridge_ = 0.0;
  Matrix abar_;                // (15b), n x n
  std::vector<double> bbar_;   // (15c), n
};

}  // namespace dopf::linalg

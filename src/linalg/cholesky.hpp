#pragma once

#include <span>
#include <stdexcept>
#include <vector>

#include "linalg/matrix.hpp"

namespace dopf::linalg {

/// Thrown when a matrix expected to be SPD / full rank is not (within
/// tolerance). The paper's preprocessing (Sec. IV-B) guarantees `A_s A_s^T`
/// is SPD after row reduction; this error firing afterwards indicates a bug
/// or an inconsistent model, so we fail loudly.
class SingularMatrixError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Dense Cholesky factorization of a symmetric positive definite matrix.
///
/// The one-block form of the lane factorization (linalg/lanes.hpp, W = 1)
/// that the precompute (15b)-(15c) runs on the Gram matrices `A_s A_s^T`;
/// the box-QP local solver of the benchmark ADMM baseline uses it for its
/// Newton steps.
class Cholesky {
 public:
  /// Factor the SPD matrix `a` (only the lower triangle is read).
  /// Throws SingularMatrixError if a pivot falls below `tol`.
  explicit Cholesky(const Matrix& a, double tol = 1e-12);

  std::size_t dim() const noexcept { return l_.rows(); }

  /// Solve L L^T x = b.
  std::vector<double> solve(std::span<const double> b) const;

  /// Solve in place.
  void solve_in_place(std::span<double> x) const;

  const Matrix& lower() const noexcept { return l_; }

 private:
  Matrix l_;
};

}  // namespace dopf::linalg

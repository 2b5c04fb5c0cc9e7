#include "linalg/cholesky.hpp"

#include <string>
#include <utility>

#include "linalg/lanes.hpp"

namespace dopf::linalg {

bool Cholesky::factor(const Matrix& a, double tol, CholeskyStatus* status) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("Cholesky: matrix must be square");
  }
  l_ = Matrix(a.rows(), a.cols());
  bool ok = false;
  lanes::Pivot pivot;
  lanes::cholesky<1>(a.data().data(), a.rows(), tol, l_.data().data(), ok,
                     &pivot);
  if (status != nullptr) {
    status->ok = ok;
    if (!ok) {
      status->pivot_index = pivot.index;
      status->pivot_value = pivot.value;
    }
  }
  return ok;
}

Cholesky::Cholesky(const Matrix& a, double tol) {
  CholeskyStatus status;
  if (!factor(a, tol, &status)) {
    throw SingularMatrixError(
        "Cholesky: matrix is not positive definite (pivot " +
        std::to_string(status.pivot_value) + " at " +
        std::to_string(status.pivot_index) + ")");
  }
}

std::optional<Cholesky> Cholesky::try_factor(const Matrix& a, double tol,
                                             CholeskyStatus* status) {
  Cholesky chol;
  CholeskyStatus local;
  if (!chol.factor(a, tol, status != nullptr ? status : &local)) {
    return std::nullopt;
  }
  return chol;
}

std::vector<double> Cholesky::solve(std::span<const double> b) const {
  std::vector<double> x(b.begin(), b.end());
  solve_in_place(x);
  return x;
}

void Cholesky::solve_in_place(std::span<double> x) const {
  if (x.size() != dim()) {
    throw std::invalid_argument("Cholesky::solve: size mismatch");
  }
  lanes::cholesky_solve<1>(l_.data().data(), dim(), x.data());
}

Matrix Cholesky::inverse() const {
  const std::size_t n = dim();
  Matrix inv(n, n);
  std::vector<double> e(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    e.assign(n, 0.0);
    e[j] = 1.0;
    solve_in_place(e);
    for (std::size_t i = 0; i < n; ++i) inv(i, j) = e[i];
  }
  return inv;
}

}  // namespace dopf::linalg

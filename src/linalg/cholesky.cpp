#include "linalg/cholesky.hpp"

#include <string>

#include "linalg/lanes.hpp"

namespace dopf::linalg {

Cholesky::Cholesky(const Matrix& a, double tol) : l_(a.rows(), a.cols()) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("Cholesky: matrix must be square");
  }
  bool ok = false;
  lanes::Pivot pivot;
  lanes::cholesky<1>(a.data().data(), a.rows(), tol, l_.data().data(), ok,
                     &pivot);
  if (!ok) {
    throw SingularMatrixError(
        "Cholesky: matrix is not positive definite (pivot " +
        std::to_string(pivot.value) + " at " + std::to_string(pivot.index) +
        ")");
  }
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

}  // namespace dopf::linalg

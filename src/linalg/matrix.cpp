#include "linalg/matrix.hpp"

#include <stdexcept>

namespace dopf::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

namespace {
void check(bool ok, const char* msg) {
  if (!ok) throw std::invalid_argument(msg);
}
}  // namespace

Matrix multiply_abt(const Matrix& a, const Matrix& b) {
  check(a.cols() == b.cols(), "multiply_abt: inner dimensions disagree");
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) sum += a(i, k) * b(j, k);
      c(i, j) = sum;
    }
  }
  return c;
}

Matrix multiply_atb(const Matrix& a, const Matrix& b) {
  check(a.rows() == b.rows(), "multiply_atb: inner dimensions disagree");
  Matrix c(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k) {
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double aki = a(k, i);
      if (aki == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += aki * b(k, j);
      }
    }
  }
  return c;
}

std::vector<double> multiply(const Matrix& a, std::span<const double> x) {
  check(a.cols() == x.size(), "multiply: vector length disagrees");
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double sum = 0.0;
    const auto row = a.row(i);
    for (std::size_t j = 0; j < row.size(); ++j) sum += row[j] * x[j];
    y[i] = sum;
  }
  return y;
}

std::vector<double> multiply_transpose(const Matrix& a,
                                       std::span<const double> x) {
  check(a.rows() == x.size(), "multiply_transpose: vector length disagrees");
  std::vector<double> y(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    const auto row = a.row(i);
    for (std::size_t j = 0; j < row.size(); ++j) y[j] += row[j] * xi;
  }
  return y;
}

}  // namespace dopf::linalg

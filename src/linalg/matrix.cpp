#include "linalg/matrix.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "linalg/lanes.hpp"

namespace dopf::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::zeros(std::size_t rows, std::size_t cols) {
  return Matrix(rows, cols);
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      t(j, i) = (*this)(i, j);
    }
  }
  return t;
}

bool Matrix::approx_equal(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (std::size_t k = 0; k < data_.size(); ++k) {
    if (std::abs(data_[k] - other.data_[k]) > tol) return false;
  }
  return true;
}

std::string Matrix::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < rows_; ++i) {
    os << (i == 0 ? "[" : " ");
    for (std::size_t j = 0; j < cols_; ++j) {
      os << (*this)(i, j) << (j + 1 < cols_ ? " " : "");
    }
    os << (i + 1 < rows_ ? ";\n" : "]");
  }
  return os.str();
}

namespace {
void check(bool ok, const char* msg) {
  if (!ok) throw std::invalid_argument(msg);
}
}  // namespace

Matrix multiply(const Matrix& a, const Matrix& b) {
  check(a.cols() == b.rows(), "multiply: inner dimensions disagree");
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += aik * b(k, j);
      }
    }
  }
  return c;
}

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

Matrix gram_aat(const Matrix& a) {
  Matrix g(a.rows(), a.rows());
  lanes::gram<1>(a.data().data(), a.rows(), a.cols(), g.data().data());
  return g;
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

void multiply_add(const Matrix& a, std::span<const double> x, double alpha,
                  std::span<double> y) {
  check(a.cols() == x.size() && a.rows() == y.size(),
        "multiply_add: dimensions disagree");
  for (std::size_t i = 0; i < a.rows(); ++i) {
    double sum = 0.0;
    const auto row = a.row(i);
    for (std::size_t j = 0; j < row.size(); ++j) sum += row[j] * x[j];
    y[i] += alpha * sum;
  }
}

Matrix operator*(const Matrix& a, const Matrix& b) { return multiply(a, b); }

Matrix operator+(const Matrix& a, const Matrix& b) {
  check(a.rows() == b.rows() && a.cols() == b.cols(),
        "operator+: dimensions disagree");
  Matrix c = a;
  auto cd = c.data();
  auto bd = b.data();
  for (std::size_t k = 0; k < cd.size(); ++k) cd[k] += bd[k];
  return c;
}

Matrix operator-(const Matrix& a, const Matrix& b) {
  check(a.rows() == b.rows() && a.cols() == b.cols(),
        "operator-: dimensions disagree");
  Matrix c = a;
  auto cd = c.data();
  auto bd = b.data();
  for (std::size_t k = 0; k < cd.size(); ++k) cd[k] -= bd[k];
  return c;
}

}  // namespace dopf::linalg

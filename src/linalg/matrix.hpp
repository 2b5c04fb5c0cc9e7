#pragma once

#include <cstddef>
#include <span>
#include <vector>

/// Dense linear algebra used throughout the library.
///
/// Component subproblem matrices `A_s` in the paper are tiny (rows/cols in the
/// single or low double digits, Table IV), so a simple row-major dense matrix
/// with cache-friendly kernels is the right tool; all large objects in the
/// algorithm (B, B'B) are handled by `dopf::sparse` instead.
namespace dopf::linalg {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() = default;

  /// Zero-initialized rows x cols matrix.
  Matrix(std::size_t rows, std::size_t cols);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t i, std::size_t j) {
    return data_[i * cols_ + j];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[i * cols_ + j];
  }

  /// Contiguous row-major storage.
  std::span<double> data() noexcept { return data_; }
  std::span<const double> data() const noexcept { return data_; }

  /// View of row i.
  std::span<double> row(std::size_t i) {
    return std::span<double>(data_).subspan(i * cols_, cols_);
  }
  std::span<const double> row(std::size_t i) const {
    return std::span<const double>(data_).subspan(i * cols_, cols_);
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// The scalar products below run in no shipped program: they are the
// one-block references the lane kernels (linalg/lanes.hpp) are held to bit
// for bit (tests/linalg/scalar_reference.hpp, tests/oracles.txt).

/// C = A * B^T without forming B^T.
Matrix multiply_abt(const Matrix& a, const Matrix& b);

/// C = A^T * B without forming A^T.
Matrix multiply_atb(const Matrix& a, const Matrix& b);

/// y = A * x.
std::vector<double> multiply(const Matrix& a, std::span<const double> x);

/// y = A^T * x.
std::vector<double> multiply_transpose(const Matrix& a,
                                       std::span<const double> x);

}  // namespace dopf::linalg

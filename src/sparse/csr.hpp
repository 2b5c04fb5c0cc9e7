#pragma once

#include <cstdint>
#include <span>
#include <vector>

/// Sparse linear algebra for the "large" objects of the algorithm: the
/// concatenated consensus matrix B of (17), the diagonal Gram matrix B^T B of
/// (18), the centralized constraint matrix A of (7), and the normal-equations
/// systems of the reference interior-point solver.
namespace dopf::sparse {

/// One coordinate-form entry; used to assemble matrices.
struct Triplet {
  std::int64_t row = 0;
  std::int64_t col = 0;
  double value = 0.0;
};

/// Compressed sparse row matrix. Column indices within each row are sorted
/// and unique after construction (duplicate triplets are summed).
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// rows x cols matrix with no stored entries.
  CsrMatrix(std::size_t rows, std::size_t cols);

  static CsrMatrix from_triplets(std::size_t rows, std::size_t cols,
                                 std::span<const Triplet> triplets,
                                 double drop_tol = 0.0);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  std::span<const std::int64_t> row_ptr() const noexcept { return row_ptr_; }
  std::span<const std::int64_t> col_idx() const noexcept { return col_idx_; }
  std::span<const double> values() const noexcept { return values_; }
  std::span<double> values_mutable() noexcept { return values_; }

  /// y = alpha * A * x + beta * y.
  void multiply(std::span<const double> x, std::span<double> y,
                double alpha = 1.0, double beta = 0.0) const;

  /// y = alpha * A^T * x + beta * y (no transpose is materialized).
  void multiply_transpose(std::span<const double> x, std::span<double> y,
                          double alpha = 1.0, double beta = 0.0) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::int64_t> row_ptr_;
  std::vector<std::int64_t> col_idx_;
  std::vector<double> values_;
};

}  // namespace dopf::sparse

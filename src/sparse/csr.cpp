#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace dopf::sparse {

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), row_ptr_(rows + 1, 0) {}

CsrMatrix CsrMatrix::from_triplets(std::size_t rows, std::size_t cols,
                                   std::span<const Triplet> triplets,
                                   double drop_tol) {
  for (const Triplet& t : triplets) {
    if (t.row < 0 || t.col < 0 || static_cast<std::size_t>(t.row) >= rows ||
        static_cast<std::size_t>(t.col) >= cols) {
      throw std::out_of_range("CsrMatrix::from_triplets: index out of range");
    }
  }
  // Counting sort by row, then sort each row segment by column and compress
  // duplicates. Stable O(nnz log nnz_row) overall.
  CsrMatrix m(rows, cols);
  std::vector<std::int64_t> counts(rows + 1, 0);
  for (const Triplet& t : triplets) ++counts[t.row + 1];
  std::partial_sum(counts.begin(), counts.end(), counts.begin());

  std::vector<std::pair<std::int64_t, double>> entries(triplets.size());
  std::vector<std::int64_t> cursor(counts.begin(), counts.end() - 1);
  for (const Triplet& t : triplets) {
    entries[cursor[t.row]++] = {t.col, t.value};
  }

  m.row_ptr_.assign(rows + 1, 0);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  for (std::size_t r = 0; r < rows; ++r) {
    auto first = entries.begin() + counts[r];
    auto last = entries.begin() + counts[r + 1];
    std::sort(first, last, [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    for (auto it = first; it != last;) {
      const std::int64_t col = it->first;
      double sum = 0.0;
      while (it != last && it->first == col) {
        sum += it->second;
        ++it;
      }
      if (std::abs(sum) > drop_tol) {
        m.col_idx_.push_back(col);
        m.values_.push_back(sum);
      }
    }
    m.row_ptr_[r + 1] = static_cast<std::int64_t>(m.col_idx_.size());
  }
  return m;
}

void CsrMatrix::multiply(std::span<const double> x, std::span<double> y,
                         double alpha, double beta) const {
  if (x.size() != cols_ || y.size() != rows_) {
    throw std::invalid_argument("CsrMatrix::multiply: size mismatch");
  }
  for (std::size_t i = 0; i < rows_; ++i) {
    double sum = 0.0;
    for (std::int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      sum += values_[k] * x[col_idx_[k]];
    }
    y[i] = alpha * sum + beta * y[i];
  }
}

void CsrMatrix::multiply_transpose(std::span<const double> x,
                                   std::span<double> y, double alpha,
                                   double beta) const {
  if (x.size() != rows_ || y.size() != cols_) {
    throw std::invalid_argument(
        "CsrMatrix::multiply_transpose: size mismatch");
  }
  if (beta == 0.0) {
    std::fill(y.begin(), y.end(), 0.0);
  } else if (beta != 1.0) {
    for (double& v : y) v *= beta;
  }
  for (std::size_t i = 0; i < rows_; ++i) {
    const double xi = alpha * x[i];
    if (xi == 0.0) continue;
    for (std::int64_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      y[col_idx_[k]] += values_[k] * xi;
    }
  }
}

}  // namespace dopf::sparse

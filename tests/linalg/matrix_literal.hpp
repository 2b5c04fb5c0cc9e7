#pragma once

// Dense fixture matrices written out row by row, for tests that check
// hand-computed values.

#include <cstddef>
#include <initializer_list>
#include <stdexcept>

#include "linalg/matrix.hpp"

namespace dopf::testing {

/// The matrix whose rows are `rows`; all rows must have equal length.
inline dopf::linalg::Matrix matrix_of(
    std::initializer_list<std::initializer_list<double>> rows) {
  const std::size_t cols = rows.size() == 0 ? 0 : rows.begin()->size();
  dopf::linalg::Matrix m(rows.size(), cols);
  std::size_t i = 0;
  for (const auto& row : rows) {
    if (row.size() != cols) {
      throw std::invalid_argument("matrix_of: ragged initializer list");
    }
    std::size_t j = 0;
    for (double v : row) m(i, j++) = v;
    ++i;
  }
  return m;
}

}  // namespace dopf::testing

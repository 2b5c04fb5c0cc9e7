#pragma once

// Entry lookup in a CsrMatrix, for tests that check individual values.

#include <cstddef>
#include <cstdint>

#include "sparse/csr.hpp"

namespace dopf::testing {

/// Entry (i, j) of `m`; 0.0 when it is not stored.
inline double entry(const dopf::sparse::CsrMatrix& m, std::size_t i,
                    std::size_t j) {
  const auto rp = m.row_ptr();
  const auto ci = m.col_idx();
  for (std::int64_t k = rp[i]; k < rp[i + 1]; ++k) {
    if (ci[k] == static_cast<std::int64_t>(j)) return m.values()[k];
  }
  return 0.0;
}

}  // namespace dopf::testing

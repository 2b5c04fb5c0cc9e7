#pragma once

#include <span>
#include <vector>

#include "sparse/csr.hpp"

namespace dopf::sparse {

/// Reverse Cuthill-McKee fill-reducing ordering of a symmetric pattern.
///
/// On small radial feeders the normal-equations matrix of the reference
/// interior-point method is nearly tree-structured, and a bandwidth-style
/// ordering keeps its factor small. On the 8500-bus instance it does not:
/// A D A^T there has 71,479 rows and 216,970 lower nonzeros, and its factor
/// L has 66.0M nonzeros under RCM against 292.8M in natural order. The
/// instance's long random tie lines leave no small separators, so no
/// bandwidth ordering makes that factor sparse.
///
/// Returns `perm` with perm[new_index] = old_index. Works on the pattern of
/// `a` symmetrized with its transpose; `a` must be square.
std::vector<int> reverse_cuthill_mckee(const CsrMatrix& a);

/// inverse[perm[k]] = k.
std::vector<int> invert_permutation(std::span<const int> perm);

}  // namespace dopf::sparse

#include "sparse/ldlt.hpp"

#include <gtest/gtest.h>

#include <random>

#include "linalg/cholesky.hpp"
#include "sparse/ordering.hpp"
#include "csr_entry.hpp"

namespace dopf::sparse {
namespace {

using dopf::testing::entry;

CsrMatrix laplacian_plus_identity(std::size_t n, unsigned seed,
                                  double extra_edge_prob = 0.1) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<Triplet> trips;
  std::vector<double> diag(n, 1.0);
  auto add_edge = [&](std::size_t i, std::size_t j, double w) {
    trips.push_back({static_cast<std::int64_t>(i),
                     static_cast<std::int64_t>(j), -w});
    trips.push_back({static_cast<std::int64_t>(j),
                     static_cast<std::int64_t>(i), -w});
    diag[i] += w;
    diag[j] += w;
  };
  for (std::size_t i = 1; i < n; ++i) {
    add_edge(i, rng() % i, 0.5 + unit(rng));  // random tree
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 2; j < n; ++j) {
      if (unit(rng) < extra_edge_prob / static_cast<double>(n)) {
        add_edge(i, j, unit(rng));
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    trips.push_back({static_cast<std::int64_t>(i),
                     static_cast<std::int64_t>(i), diag[i]});
  }
  return CsrMatrix::from_triplets(n, n, trips);
}

class LdltOrderingSweep
    : public ::testing::TestWithParam<std::tuple<Ordering, std::size_t>> {};

TEST_P(LdltOrderingSweep, SolvesRandomSpdSystem) {
  const auto [ordering, n] = GetParam();
  const CsrMatrix a = laplacian_plus_identity(n, static_cast<unsigned>(n));
  SparseLdlt ldlt(a, ordering);
  ldlt.factorize(a);
  std::vector<double> x_true(n);
  for (std::size_t i = 0; i < n; ++i) {
    x_true[i] = std::cos(static_cast<double>(i));
  }
  std::vector<double> b(n, 0.0);
  a.multiply(x_true, b);
  const std::vector<double> x = ldlt.solve(b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LdltOrderingSweep,
    ::testing::Combine(::testing::Values(Ordering::kNatural, Ordering::kRcm),
                       ::testing::Values<std::size_t>(1, 2, 5, 20, 100, 400)));

TEST(LdltTest, MatchesDenseCholeskyOnSmallMatrix) {
  const CsrMatrix a = laplacian_plus_identity(8, 3, 2.0);
  SparseLdlt ldlt(a, Ordering::kRcm);
  ldlt.factorize(a);

  dopf::linalg::Matrix dense(8, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) dense(i, j) = entry(a, i, j);
  }
  const dopf::linalg::Cholesky chol(dense);
  std::vector<double> b(8);
  for (std::size_t i = 0; i < 8; ++i) b[i] = static_cast<double>(i) - 4.0;
  const auto x1 = ldlt.solve(b);
  const auto x2 = chol.solve(b);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-10);
}

TEST(LdltTest, RefactorizeWithNewValuesSamePattern) {
  CsrMatrix a = laplacian_plus_identity(30, 9);
  SparseLdlt ldlt(a, Ordering::kRcm);
  ldlt.factorize(a);
  // Scale all values by 3: same pattern, new numbers.
  auto vals = a.values_mutable();
  for (double& v : vals) v *= 3.0;
  ldlt.factorize(a);
  std::vector<double> x_true(30, 1.0);
  std::vector<double> b(30, 0.0);
  a.multiply(x_true, b);
  const std::vector<double> x = ldlt.solve(b);
  for (std::size_t i = 0; i < 30; ++i) EXPECT_NEAR(x[i], 1.0, 1e-10);
}

TEST(LdltTest, LowerTriangleOnlyInputWorks) {
  // The factorization reads only entries with col <= row; passing just the
  // lower triangle must give the same result as the full matrix.
  const CsrMatrix full = laplacian_plus_identity(12, 21);
  std::vector<Triplet> lower;
  const auto rp = full.row_ptr();
  const auto ci = full.col_idx();
  const auto v = full.values();
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::int64_t k = rp[i]; k < rp[i + 1]; ++k) {
      if (static_cast<std::size_t>(ci[k]) <= i) {
        lower.push_back({static_cast<std::int64_t>(i), ci[k], v[k]});
      }
    }
  }
  const CsrMatrix lo = CsrMatrix::from_triplets(12, 12, lower);
  SparseLdlt l1(full, Ordering::kNatural);
  SparseLdlt l2(lo, Ordering::kNatural);
  l1.factorize(full);
  l2.factorize(lo);
  std::vector<double> b(12, 1.0);
  const auto x1 = l1.solve(b);
  const auto x2 = l2.solve(b);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-12);
}

TEST(LdltTest, IndefiniteMatrixThrows) {
  std::vector<Triplet> trips = {{0, 0, 1.0}, {1, 1, -1.0}};
  const CsrMatrix a = CsrMatrix::from_triplets(2, 2, trips);
  SparseLdlt ldlt(a, Ordering::kNatural);
  EXPECT_THROW(ldlt.factorize(a), dopf::linalg::SingularMatrixError);
}

TEST(LdltTest, DiagShiftRescuesSemidefinite) {
  std::vector<Triplet> trips = {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0},
                                {1, 1, 1.0}};
  const CsrMatrix a = CsrMatrix::from_triplets(2, 2, trips);
  SparseLdlt ldlt(a, Ordering::kNatural);
  EXPECT_THROW(ldlt.factorize(a), dopf::linalg::SingularMatrixError);
  EXPECT_NO_THROW(ldlt.factorize(a, 1e-8));
}

TEST(LdltTest, SolveBeforeFactorizeThrows) {
  const std::vector<Triplet> diag = {{0, 0, 1.0}, {1, 1, 1.0}, {2, 2, 1.0}};
  const CsrMatrix a = CsrMatrix::from_triplets(3, 3, diag);
  SparseLdlt ldlt(a);
  std::vector<double> b(3, 1.0);
  EXPECT_THROW(ldlt.solve(b), std::logic_error);
}

TEST(LdltTest, RcmReducesFillOnScrambledPath) {
  // Path graph with scrambled labels: natural ordering causes fill, RCM
  // keeps |L| = n - 1 off-diagonals.
  const std::size_t n = 64;
  std::vector<Triplet> trips;
  auto lbl = [n](std::size_t i) { return (i * 37) % n; };
  std::vector<double> diag(n, 1.0);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    trips.push_back({(std::int64_t)lbl(i), (std::int64_t)lbl(i + 1), -1.0});
    trips.push_back({(std::int64_t)lbl(i + 1), (std::int64_t)lbl(i), -1.0});
    diag[lbl(i)] += 1.0;
    diag[lbl(i + 1)] += 1.0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    trips.push_back({(std::int64_t)i, (std::int64_t)i, diag[i]});
  }
  const CsrMatrix a = CsrMatrix::from_triplets(n, n, trips);
  SparseLdlt natural(a, Ordering::kNatural);
  SparseLdlt rcm(a, Ordering::kRcm);
  EXPECT_LE(rcm.nnz_l(), n + 4);  // ~ n-1 for a path
  EXPECT_LT(rcm.nnz_l(), natural.nnz_l());
}

}  // namespace
}  // namespace dopf::sparse

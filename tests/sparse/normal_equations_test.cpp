#include "sparse/normal_equations.hpp"

#include <gtest/gtest.h>

#include <random>

#include "csr_entry.hpp"

namespace dopf::sparse {
namespace {

using dopf::testing::entry;

CsrMatrix random_rect(std::size_t m, std::size_t n, unsigned seed,
                      double density) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  std::vector<Triplet> trips;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (unit(rng) < density) {
        trips.push_back({static_cast<std::int64_t>(i),
                         static_cast<std::int64_t>(j), val(rng)});
      }
    }
  }
  return CsrMatrix::from_triplets(m, n, trips);
}

/// Dense reference: lower triangle of A diag(d) A^T.
std::vector<std::vector<double>> dense_adat(const CsrMatrix& a,
                                            std::span<const double> d) {
  const std::size_t m = a.rows();
  std::vector<std::vector<double>> c(m, std::vector<double>(m, 0.0));
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      double sum = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) {
        sum += entry(a, i, k) * d[k] * entry(a, j, k);
      }
      c[i][j] = sum;
    }
  }
  return c;
}

class NormalEquationsSweep : public ::testing::TestWithParam<int> {};

TEST_P(NormalEquationsSweep, MatchesDenseReference) {
  const int seed = GetParam();
  const std::size_t m = 5 + seed % 5;
  const std::size_t n = 8 + seed % 7;
  const CsrMatrix a = random_rect(m, n, seed, 0.4);
  NormalEquations normal(a);
  std::mt19937 rng(seed + 1000);
  std::uniform_real_distribution<double> dist(0.1, 3.0);
  std::vector<double> d(n);
  for (double& v : d) v = dist(rng);

  const CsrMatrix& c = normal.compute(a, d);
  const auto ref = dense_adat(a, d);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_NEAR(entry(c, i, j), ref[i][j], 1e-12)
          << "entry (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NormalEquationsSweep, ::testing::Range(0, 10));

TEST(NormalEquationsTest, RecomputeWithNewScalingSamePattern) {
  const CsrMatrix a = random_rect(6, 9, 77, 0.5);
  NormalEquations normal(a);
  std::vector<double> d1(9, 1.0), d2(9, 2.0);
  const CsrMatrix c1 = normal.compute(a, d1);  // copy
  const CsrMatrix& c2 = normal.compute(a, d2);
  ASSERT_EQ(c1.values().size(), c2.values().size());
  for (std::size_t k = 0; k < c1.values().size(); ++k) {
    EXPECT_NEAR(c2.values()[k], 2.0 * c1.values()[k], 1e-12);
  }
}

TEST(NormalEquationsTest, DiagonalAlwaysPresent) {
  // A row of A with no entries must still get a (zero) diagonal slot so the
  // factorization's shift has somewhere to land.
  std::vector<Triplet> trips = {{0, 0, 1.0}};  // row 1 of A empty
  const CsrMatrix a = CsrMatrix::from_triplets(2, 2, trips);
  NormalEquations normal(a);
  std::vector<double> d = {1.0, 1.0};
  const CsrMatrix& c = normal.compute(a, d);
  // Lower triangle must contain both diagonal entries.
  EXPECT_EQ(entry(c, 0, 0), 1.0);
  EXPECT_EQ(entry(c, 1, 1), 0.0);
  const auto rp = c.row_ptr();
  EXPECT_EQ(rp[2] - rp[1], 1);  // the explicit zero diagonal is stored
}

TEST(NormalEquationsTest, ShapeMismatchThrows) {
  const CsrMatrix a = random_rect(3, 4, 1, 0.5);
  NormalEquations normal(a);
  std::vector<double> d(3, 1.0);  // wrong size
  EXPECT_THROW(normal.compute(a, d), std::invalid_argument);
}

}  // namespace
}  // namespace dopf::sparse

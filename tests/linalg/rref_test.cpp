#include "linalg/rref.hpp"

#include <gtest/gtest.h>

#include <random>

#include "linalg/cholesky.hpp"
#include "matrix_literal.hpp"

namespace dopf::linalg {
namespace {

using dopf::testing::matrix_of;

TEST(RrefTest, FullRankSystemKeepsAllRows) {
  Matrix a = matrix_of({{1.0, 2.0}, {3.0, 4.0}});
  const RrefResult r = row_reduce(a, {5.0, 6.0});
  EXPECT_EQ(r.rank, 2u);
  EXPECT_FALSE(r.inconsistent);
  EXPECT_EQ(r.a.rows(), 2u);
}

TEST(RrefTest, DuplicateRowIsDropped) {
  Matrix a = matrix_of({{1.0, 2.0, 3.0}, {2.0, 4.0, 6.0}});
  const RrefResult r = row_reduce(a, {1.0, 2.0});
  EXPECT_EQ(r.rank, 1u);
  EXPECT_FALSE(r.inconsistent);
  EXPECT_EQ(r.a.rows(), 1u);
}

TEST(RrefTest, ContradictoryDuplicateIsInconsistent) {
  Matrix a = matrix_of({{1.0, 2.0, 3.0}, {2.0, 4.0, 6.0}});
  const RrefResult r = row_reduce(a, {1.0, 3.0});
  EXPECT_EQ(r.rank, 1u);
  EXPECT_TRUE(r.inconsistent);
}

TEST(RrefTest, ZeroRowWithNonzeroRhsIsInconsistent) {
  Matrix a = matrix_of({{0.0, 0.0}, {1.0, 1.0}});
  const RrefResult r = row_reduce(a, {1.0, 2.0});
  EXPECT_TRUE(r.inconsistent);
  EXPECT_EQ(r.rank, 1u);
}

TEST(RrefTest, SolutionSetIsPreserved) {
  // x + y = 3; 2x + 2y = 6 (dependent); x - y = 1  =>  x = 2, y = 1.
  Matrix a = matrix_of({{1.0, 1.0}, {2.0, 2.0}, {1.0, -1.0}});
  const RrefResult r = row_reduce(a, {3.0, 6.0, 1.0});
  EXPECT_EQ(r.rank, 2u);
  EXPECT_FALSE(r.inconsistent);
  // The reduced system must still be solved by (2, 1).
  const std::vector<double> x = {2.0, 1.0};
  const std::vector<double> ax = multiply(r.a, x);
  for (std::size_t i = 0; i < r.rank; ++i) EXPECT_NEAR(ax[i], r.b[i], 1e-12);
}

TEST(RrefTest, ReducedMatrixHasFullRowRank) {
  // After reduction A A^T must be SPD (Cholesky succeeds) — the property
  // the local update (15) needs.
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Matrix a(6, 4);  // rank <= 4 => at least 2 dependent rows
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 4; ++j) a(i, j) = dist(rng);
  }
  // Make row 5 = row 0 + row 1 to force a dependency; rhs consistently.
  std::vector<double> b(6, 0.0);
  std::vector<double> x_ref = {1.0, -1.0, 0.5, 2.0};
  for (std::size_t j = 0; j < 4; ++j) a(5, j) = a(0, j) + a(1, j);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 4; ++j) b[i] += a(i, j) * x_ref[j];
  }
  const RrefResult r = row_reduce(a, b);
  EXPECT_FALSE(r.inconsistent);
  EXPECT_LE(r.rank, 4u);
  EXPECT_NO_THROW(Cholesky{multiply_abt(r.a, r.a)});
}

TEST(RrefTest, PivotColumnsAreStrictlyIncreasing) {
  Matrix a = matrix_of({{0.0, 1.0, 2.0}, {1.0, 0.0, 1.0}});
  const RrefResult r = row_reduce(a, {1.0, 1.0});
  ASSERT_EQ(r.pivot_cols.size(), 2u);
  EXPECT_LT(r.pivot_cols[0], r.pivot_cols[1]);
}

TEST(RrefTest, ZeroMatrixZeroRhsHasRankZero) {
  Matrix a(3, 2);
  const RrefResult r = row_reduce(a, {0.0, 0.0, 0.0});
  EXPECT_EQ(r.rank, 0u);
  EXPECT_FALSE(r.inconsistent);
  EXPECT_EQ(r.a.rows(), 0u);
}

TEST(RrefTest, RhsSizeMismatchThrows) {
  Matrix a(2, 2);
  EXPECT_THROW(row_reduce(a, {1.0}), std::invalid_argument);
}

TEST(RrefTest, PivotingHandlesTinyLeadingEntry) {
  // Without pivoting the 1e-14 leading entry would poison the elimination.
  Matrix a = matrix_of({{1e-14, 1.0}, {1.0, 1.0}});
  const RrefResult r = row_reduce(a, {1.0, 2.0});
  EXPECT_EQ(r.rank, 2u);
  // Solve the reduced 2x2 system and compare with the exact solution
  // x ~ 1, y ~ 1.
  const std::vector<double> x = {1.0, 1.0};
  const std::vector<double> ax = multiply(r.a, x);
  EXPECT_NEAR(ax[0], r.b[0], 1e-9);
  EXPECT_NEAR(ax[1], r.b[1], 1e-9);
}

}  // namespace
}  // namespace dopf::linalg

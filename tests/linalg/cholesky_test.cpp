#include "linalg/cholesky.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "linalg/lanes.hpp"
#include "matrix_literal.hpp"

namespace dopf::linalg {
namespace {

using dopf::testing::matrix_of;

Matrix random_spd(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = dist(rng);
  }
  // A A^T + n I is SPD.
  Matrix spd = multiply_abt(a, a);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  return spd;
}

TEST(CholeskyTest, FactorsDiagonalMatrix) {
  Matrix a = matrix_of({{4.0, 0.0}, {0.0, 9.0}});
  const Cholesky chol(a);
  EXPECT_DOUBLE_EQ(chol.lower()(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(chol.lower()(1, 1), 3.0);
}

TEST(CholeskyTest, SolveRecoversKnownSolution) {
  const Matrix a = random_spd(8, 42);
  std::vector<double> x_true(8);
  for (std::size_t i = 0; i < 8; ++i) x_true[i] = static_cast<double>(i) - 3.0;
  const std::vector<double> b = multiply(a, x_true);
  const std::vector<double> x = Cholesky(a).solve(b);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

TEST(CholeskyTest, LLtReconstructsInput) {
  const Matrix a = random_spd(6, 7);
  const Cholesky chol(a);
  const Matrix rebuilt = multiply_abt(chol.lower(), chol.lower());
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_NEAR(rebuilt(i, j), a(i, j), 1e-10);
    }
  }
}

TEST(CholeskyTest, InverseTimesMatrixIsIdentity) {
  // Column j of the inverse solves A x = e_j.
  const Matrix a = random_spd(5, 99);
  const Cholesky chol(a);
  for (std::size_t j = 0; j < 5; ++j) {
    std::vector<double> e(5, 0.0);
    e[j] = 1.0;
    const std::vector<double> col = multiply(a, chol.solve(e));
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_NEAR(col[i], i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(CholeskyTest, IndefiniteMatrixThrows) {
  Matrix a = matrix_of({{1.0, 2.0}, {2.0, 1.0}});  // eigenvalues 3, -1
  EXPECT_THROW(Cholesky{a}, SingularMatrixError);
}

TEST(CholeskyTest, IndefiniteErrorNamesThePivot) {
  // SPD in the leading 1x1 block, indefinite overall: the error names
  // column 1, where the pivot fell below tolerance.
  try {
    Cholesky chol(matrix_of({{1.0, 2.0}, {2.0, 1.0}}));
    FAIL() << "indefinite matrix factored";
  } catch (const SingularMatrixError& e) {
    EXPECT_NE(std::string(e.what()).find(" at 1)"), std::string::npos)
        << e.what();
  }
}

TEST(CholeskyTest, SingularMatrixThrows) {
  Matrix a = matrix_of({{1.0, 1.0}, {1.0, 1.0}});
  EXPECT_THROW(Cholesky{a}, SingularMatrixError);
}

TEST(CholeskyTest, NonSquareThrows) {
  Matrix a(2, 3);
  EXPECT_THROW(Cholesky{a}, std::invalid_argument);
}

TEST(CholeskyTest, SolveSizeMismatchThrows) {
  const Cholesky chol(matrix_of({{1.0}}));
  std::vector<double> wrong(3, 0.0);
  EXPECT_THROW(chol.solve(wrong), std::invalid_argument);
}

// The non-throwing factorization the precompute runs (one lane): an ok
// flag and the failing pivot instead of an exception.
struct Attempt {
  bool ok = false;
  lanes::Pivot pivot;
  Matrix l;
};

Attempt try_factor(const Matrix& a, double tol = 1e-12) {
  Attempt t;
  t.l = Matrix(a.rows(), a.cols());
  lanes::cholesky<1>(a.data().data(), a.rows(), tol, t.l.data().data(), t.ok,
                     &t.pivot);
  return t;
}

TEST(CholeskyTest, TryFactorMatchesThrowingConstructor) {
  const Matrix a = random_spd(7, 13);
  const Attempt t = try_factor(a);
  ASSERT_TRUE(t.ok);
  const Cholesky chol(a);
  for (std::size_t i = 0; i < 7; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      EXPECT_EQ(t.l(i, j), chol.lower()(i, j));
    }
  }
}

TEST(CholeskyTest, TryFactorFillsStatusOnSuccess) {
  EXPECT_TRUE(try_factor(random_spd(4, 5)).ok);
}

TEST(CholeskyTest, TryFactorIndefiniteReturnsPivotProvenance) {
  // SPD in the leading 1x1 block, indefinite overall: the failure names
  // column 1 and reports its (non-positive) pivot value.
  const Attempt t = try_factor(matrix_of({{1.0, 2.0}, {2.0, 1.0}}));
  EXPECT_FALSE(t.ok);
  EXPECT_EQ(t.pivot.index, 1u);
  EXPECT_LE(t.pivot.value, 1e-12);
}

TEST(CholeskyTest, TryFactorSingularReturnsNullopt) {
  EXPECT_FALSE(try_factor(matrix_of({{1.0, 1.0}, {1.0, 1.0}})).ok);
}

class CholeskySizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CholeskySizeSweep, RandomSpdRoundTrip) {
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, static_cast<unsigned>(1000 + n));
  std::vector<double> x_true(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) x_true[i] = std::sin(double(i));
  const std::vector<double> x = Cholesky(a).solve(multiply(a, x_true));
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskySizeSweep,
                         ::testing::Values(1, 2, 3, 5, 10, 20, 40));

}  // namespace
}  // namespace dopf::linalg

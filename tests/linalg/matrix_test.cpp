#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "linalg/lanes.hpp"
#include "matrix_literal.hpp"

namespace dopf::linalg {
namespace {

using dopf::testing::matrix_of;

TEST(MatrixTest, DefaultConstructedIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(MatrixTest, SizedConstructorZeroInitializes) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(m(i, j), 0.0);
  }
}

TEST(MatrixTest, InitializerListLayout) {
  Matrix m = matrix_of({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(2, 0), 5.0);
}

TEST(MatrixTest, RaggedInitializerThrows) {
  EXPECT_THROW((matrix_of({{1.0, 2.0}, {3.0}})), std::invalid_argument);
}

TEST(MatrixTest, MultiplyMatchesHandComputation) {
  const Matrix a = matrix_of({{1.0, 2.0}, {3.0, 4.0}});
  const Matrix bt = matrix_of({{5.0, 7.0}, {6.0, 8.0}});  // B = [5 6; 7 8]
  const Matrix c = multiply_abt(a, bt);
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, MultiplyDimensionMismatchThrows) {
  const Matrix a(2, 3), b(3, 2);
  const std::vector<double> x(2, 1.0);
  EXPECT_THROW(multiply_abt(a, b), std::invalid_argument);
  EXPECT_THROW(multiply_atb(a, b), std::invalid_argument);
  EXPECT_THROW(multiply(a, x), std::invalid_argument);
  EXPECT_THROW(multiply_transpose(b, x), std::invalid_argument);
}

// Entry (i, j) of the product of an explicitly transposed operand, summed
// in the test: the reference the fused products are held to.
Matrix explicit_product(const Matrix& l, const Matrix& r) {
  Matrix c(l.rows(), r.cols());
  for (std::size_t i = 0; i < l.rows(); ++i) {
    for (std::size_t j = 0; j < r.cols(); ++j) {
      for (std::size_t k = 0; k < l.cols(); ++k) c(i, j) += l(i, k) * r(k, j);
    }
  }
  return c;
}

void expect_near(const Matrix& actual, const Matrix& expected) {
  ASSERT_EQ(actual.rows(), expected.rows());
  ASSERT_EQ(actual.cols(), expected.cols());
  for (std::size_t i = 0; i < actual.rows(); ++i) {
    for (std::size_t j = 0; j < actual.cols(); ++j) {
      EXPECT_NEAR(actual(i, j), expected(i, j), 1e-14);
    }
  }
}

TEST(MatrixTest, MultiplyAbtEqualsExplicitTranspose) {
  const Matrix a = matrix_of({{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}});
  const Matrix b = matrix_of({{7.0, 8.0, 9.0}, {1.0, 0.0, -1.0}});
  const Matrix bt = matrix_of({{7.0, 1.0}, {8.0, 0.0}, {9.0, -1.0}});
  expect_near(multiply_abt(a, b), explicit_product(a, bt));
}

TEST(MatrixTest, MultiplyAtbEqualsExplicitTranspose) {
  const Matrix a = matrix_of({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
  const Matrix at = matrix_of({{1.0, 3.0, 5.0}, {2.0, 4.0, 6.0}});
  const Matrix b = matrix_of({{7.0}, {8.0}, {9.0}});
  expect_near(multiply_atb(a, b), explicit_product(at, b));
}

TEST(MatrixTest, GramAatIsSymmetricPsd) {
  // The Gram product of the precompute (one lane: a single block).
  const Matrix a = matrix_of({{1.0, 2.0, 0.5}, {-1.0, 0.0, 2.0}});
  Matrix g(2, 2);
  lanes::gram<1>(a.data().data(), a.rows(), a.cols(), g.data().data());
  EXPECT_DOUBLE_EQ(g(0, 1), g(1, 0));
  EXPECT_GT(g(0, 0), 0.0);
  EXPECT_GT(g(1, 1), 0.0);
  expect_near(g, multiply_abt(a, a));
}

TEST(MatrixTest, MatVecAndTransposeMatVec) {
  Matrix a = matrix_of({{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}});
  const std::vector<double> x = {1.0, -1.0};
  const std::vector<double> y = multiply(a, x);
  ASSERT_EQ(y.size(), 3u);
  EXPECT_EQ(y[0], -1.0);
  EXPECT_EQ(y[1], -1.0);
  EXPECT_EQ(y[2], -1.0);

  const std::vector<double> z = {1.0, 1.0, 1.0};
  const std::vector<double> aty = multiply_transpose(a, z);
  ASSERT_EQ(aty.size(), 2u);
  EXPECT_EQ(aty[0], 9.0);
  EXPECT_EQ(aty[1], 12.0);
}

TEST(MatrixTest, RowSpanAliasesStorage) {
  Matrix m = matrix_of({{1.0, 2.0}, {3.0, 4.0}});
  auto row = m.row(1);
  row[0] = 30.0;
  EXPECT_EQ(m(1, 0), 30.0);
}

}  // namespace
}  // namespace dopf::linalg

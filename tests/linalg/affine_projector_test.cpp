#include "linalg/affine_projector.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "linalg/cholesky.hpp"
#include "matrix_literal.hpp"

namespace dopf::linalg {
namespace {

using dopf::testing::matrix_of;

std::vector<double> project(const AffineProjector& proj,
                            const std::vector<double>& y) {
  std::vector<double> x(proj.dim());
  proj.project_into(y, x);
  return x;
}

double distance(const std::vector<double>& x, const std::vector<double>& y) {
  double sum = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    sum += (x[i] - y[i]) * (x[i] - y[i]);
  }
  return std::sqrt(sum);
}

TEST(AffineProjectorTest, ProjectionLandsOnConstraint) {
  Matrix a = matrix_of({{1.0, 1.0, 0.0}, {0.0, 1.0, 1.0}});
  const std::vector<double> b = {1.0, 2.0};
  const AffineProjector proj(a, b);
  const std::vector<double> y = {5.0, -3.0, 0.7};
  const std::vector<double> x = project(proj, y);
  const std::vector<double> ax = multiply(a, x);
  EXPECT_NEAR(ax[0], 1.0, 1e-12);
  EXPECT_NEAR(ax[1], 2.0, 1e-12);
}

TEST(AffineProjectorTest, FixedPointOnConstraintSet) {
  Matrix a = matrix_of({{1.0, 2.0}});
  const std::vector<double> b = {4.0};
  const AffineProjector proj(a, b);
  // (0, 2) satisfies the constraint; projecting it must be the identity.
  const std::vector<double> x = project(proj, {0.0, 2.0});
  EXPECT_NEAR(x[0], 0.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(AffineProjectorTest, ResidualIsOrthogonalToRowSpace) {
  std::mt19937 rng(3);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Matrix a(3, 7);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 7; ++j) a(i, j) = dist(rng);
  }
  std::vector<double> b(3);
  for (double& v : b) v = dist(rng);
  const AffineProjector proj(a, b);

  std::vector<double> y(7);
  for (double& v : y) v = dist(rng);
  const std::vector<double> x = project(proj, y);
  // y - x must be in the row space: (y - x) orthogonal to the null space,
  // equivalently P(y - x + x0) == x0 for any feasible x0. Cheaper check:
  // project the displaced point again — projection is idempotent.
  const std::vector<double> x2 = project(proj, x);
  for (std::size_t j = 0; j < 7; ++j) EXPECT_NEAR(x2[j], x[j], 1e-11);
  // And x minimizes distance: perturbing along the constraint set cannot
  // get closer to y. Take a null-space direction via projecting a random
  // direction difference.
  std::vector<double> sum(7);
  for (std::size_t j = 0; j < 7; ++j) sum[j] = x[j] + dist(rng);
  const std::vector<double> xd = project(proj, sum);
  const double dist_x = distance(x, y);
  const double dist_xd = distance(xd, y);
  EXPECT_GE(dist_xd, dist_x - 1e-12);
}

TEST(AffineProjectorTest, PaperFormMatchesProjectionForm) {
  // (15a): x = (1/rho) Abar d + bbar with d = -rho v - lambda, evaluated
  // here from abar() and bbar(), must equal project_into(v + lambda / rho).
  Matrix a = matrix_of({{1.0, 0.0, 2.0}, {0.0, 1.0, -1.0}});
  const std::vector<double> b = {1.0, 0.5};
  const AffineProjector proj(a, b);
  const double rho = 100.0;
  const std::vector<double> v = {0.3, -0.2, 0.9};
  const std::vector<double> lambda = {2.0, -1.0, 0.5};

  std::vector<double> d(3), y(3);
  for (int j = 0; j < 3; ++j) {
    d[j] = -rho * v[j] - lambda[j];
    y[j] = v[j] + lambda[j] / rho;
  }
  const std::vector<double> abar_d = multiply(proj.abar(), d);
  std::vector<double> x_paper(3);
  for (int j = 0; j < 3; ++j) x_paper[j] = abar_d[j] / rho + proj.bbar()[j];
  const std::vector<double> x_proj = project(proj, y);
  for (int j = 0; j < 3; ++j) EXPECT_NEAR(x_paper[j], x_proj[j], 1e-12);
}

TEST(AffineProjectorTest, AbarDefinitionHolds) {
  // Abar = A^T (A A^T)^{-1} A - I, so Abar * y + y must lie in the row
  // space of A^T ... more directly: A * (Abar y) = A y - A y = 0? Check the
  // defining identity A (Abar + I) y = A y.
  Matrix a = matrix_of({{2.0, 1.0}, {0.0, 3.0}});
  const std::vector<double> b = {1.0, 1.0};
  const AffineProjector proj(a, b);
  const std::vector<double> y = {0.7, -1.3};
  std::vector<double> aby = multiply(proj.abar(), y);
  // (Abar + I) y = A^T (A A^T)^{-1} A y
  const std::vector<double> lhs = {aby[0] + y[0], aby[1] + y[1]};
  // Since A is square and invertible here, A^T (A A^T)^{-1} A = I.
  EXPECT_NEAR(lhs[0], y[0], 1e-12);
  EXPECT_NEAR(lhs[1], y[1], 1e-12);
}

TEST(AffineProjectorTest, RankDeficientMatrixThrows) {
  Matrix a = matrix_of({{1.0, 2.0}, {2.0, 4.0}});
  const std::vector<double> b = {1.0, 2.0};
  EXPECT_THROW(AffineProjector(a, b), SingularMatrixError);
}

TEST(AffineProjectorTest, SizeMismatchThrows) {
  Matrix a(2, 3);
  const std::vector<double> b = {1.0};
  EXPECT_THROW(AffineProjector(a, b), std::invalid_argument);
}

class ProjectorRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(ProjectorRandomSweep, IdempotentAndFeasible) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  const std::size_t m = 2 + GetParam() % 4;
  const std::size_t n = m + 3;
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = dist(rng);
  }
  std::vector<double> b(m);
  for (double& v : b) v = dist(rng);
  const AffineProjector proj(a, b);
  std::vector<double> y(n);
  for (double& v : y) v = dist(rng);
  const std::vector<double> x = project(proj, y);
  const std::vector<double> ax = multiply(a, x);
  for (std::size_t i = 0; i < m; ++i) EXPECT_NEAR(ax[i], b[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProjectorRandomSweep,
                         ::testing::Range(1, 12));

}  // namespace
}  // namespace dopf::linalg

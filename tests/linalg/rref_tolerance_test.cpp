// Tolerance edge cases for the RREF preprocessing (Sec. IV-B): rows that
// are dependent up to a perturbation of 1e-8 / 1e-12 / 1e-15 must land on
// the intended side of the pivot tolerance, and the projector built on the
// reduced block must satisfy its constraints — including when the Gram
// matrix only exists after a Tikhonov ridge.
#include <gtest/gtest.h>

#include <cmath>

#include "linalg/affine_projector.hpp"
#include "linalg/rref.hpp"
#include "matrix_literal.hpp"

namespace dopf::linalg {
namespace {

using dopf::testing::matrix_of;

// [A | b] with row 2 = row 0 + eps * e3 and a consistent rhs; the default
// pivot tolerance is 1e-10 relative to max|A| = 1.
RrefResult reduce_perturbed(double eps, double rhs_offset = 0.0) {
  Matrix a = matrix_of({{1.0, 1.0, 0.0, 0.0},
           {0.0, 0.0, 1.0, 1.0},
           {1.0, 1.0, 0.0, eps}});
  const std::vector<double> x_ref = {1.0, 2.0, -1.0, 0.5};
  std::vector<double> b(3, 0.0);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 4; ++j) b[i] += a(i, j) * x_ref[j];
  }
  b[2] += rhs_offset;
  return row_reduce(a, b);
}

void expect_projector_feasible(const RrefResult& r, double tol) {
  const auto proj = AffineProjector::try_build(r.a, r.b);
  ASSERT_TRUE(proj.has_value());
  std::vector<double> y(r.a.cols(), 0.3);  // arbitrary anchor point
  std::vector<double> x(y.size());
  proj->project_into(y, x);
  const std::vector<double> ax = multiply(r.a, x);
  for (std::size_t i = 0; i < r.a.rows(); ++i) {
    EXPECT_NEAR(ax[i], r.b[i], tol) << "row " << i;
  }
}

TEST(RrefToleranceTest, Perturbation1e8IsAboveToleranceAndKept) {
  const RrefResult r = reduce_perturbed(1e-8);
  EXPECT_EQ(r.rank, 3u);
  EXPECT_FALSE(r.inconsistent);
  expect_projector_feasible(r, 1e-6);
}

TEST(RrefToleranceTest, Perturbation1e12IsBelowToleranceAndDropped) {
  const RrefResult r = reduce_perturbed(1e-12);
  EXPECT_EQ(r.rank, 2u);
  EXPECT_FALSE(r.inconsistent);
  expect_projector_feasible(r, 1e-9);
}

TEST(RrefToleranceTest, Perturbation1e15VanishesEntirely) {
  const RrefResult r = reduce_perturbed(1e-15);
  EXPECT_EQ(r.rank, 2u);
  EXPECT_FALSE(r.inconsistent);
  expect_projector_feasible(r, 1e-9);
}

TEST(RrefToleranceTest, RhsResidualAboveToleranceIsInconsistent) {
  // The dependent row is dropped, but its rhs disagrees by 1e-8 — above the
  // scaled tolerance, so the system must be flagged inconsistent.
  const RrefResult r = reduce_perturbed(1e-12, /*rhs_offset=*/1e-8);
  EXPECT_EQ(r.rank, 2u);
  EXPECT_TRUE(r.inconsistent);
}

TEST(RrefToleranceTest, RhsResidualBelowToleranceIsAbsorbed) {
  // A 1e-12 rhs disagreement on a dropped row is numerical noise, not an
  // infeasibility: the reduction must absorb it silently.
  const RrefResult r = reduce_perturbed(1e-12, /*rhs_offset=*/1e-12);
  EXPECT_EQ(r.rank, 2u);
  EXPECT_FALSE(r.inconsistent);
}

TEST(RrefToleranceTest, KeptNearDependentRowStillYieldsUsableProjector) {
  // eps = 1e-8 survives the reduction, so the Gram matrix carries a small
  // eigenvalue ~ eps^2-ish; the exact projector must still exist and its
  // output must satisfy the constraints to a usable accuracy.
  const RrefResult r = reduce_perturbed(1e-8);
  ASSERT_EQ(r.rank, 3u);
  ProjectorStatus status;
  const auto proj = AffineProjector::try_build(r.a, r.b, {}, &status);
  ASSERT_TRUE(proj.has_value());
  EXPECT_TRUE(status.ok);
  EXPECT_EQ(status.ridge, 0.0);
}

TEST(RrefToleranceTest, GramFailureWithoutRegularizationReportsPivot) {
  // Bypass RREF: rows at angle ~1e-7 pass any row-level tolerance but their
  // Gram matrix has lambda_min ~ 1e-14 < kCholTol, so the strict build must
  // refuse and name the offending pivot.
  Matrix a = matrix_of({{1.0, 0.0}, {1.0, 1e-7}});
  const std::vector<double> b = {1.0, 1.0};
  ProjectorStatus status;
  const auto proj = AffineProjector::try_build(a, b, {}, &status);
  EXPECT_FALSE(proj.has_value());
  EXPECT_FALSE(status.ok);
  EXPECT_EQ(status.pivot_index, 1u);
}

TEST(RrefToleranceTest, RidgeRemediationYieldsBoundedResidual) {
  Matrix a = matrix_of({{1.0, 0.0}, {1.0, 1e-7}});
  const std::vector<double> b = {1.0, 1.0};
  ProjectorOptions options;
  options.auto_regularize = true;
  ProjectorStatus status;
  const auto proj = AffineProjector::try_build(a, b, options, &status);
  ASSERT_TRUE(proj.has_value());
  EXPECT_TRUE(status.ok);
  EXPECT_GT(status.ridge, 0.0);
  EXPECT_DOUBLE_EQ(proj->ridge(), status.ridge);
  // The ridged projector is a perturbation of the exact one: both rows must
  // still be satisfied to an accuracy commensurate with the reported ridge
  // (far looser than machine precision, far tighter than O(1)).
  const std::vector<double> origin(2, 0.0);
  std::vector<double> x(2);
  proj->project_into(origin, x);
  const std::vector<double> ax = multiply(a, x);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(ax[i], b[i], 1e-3) << "row " << i;
  }
}

}  // namespace
}  // namespace dopf::linalg

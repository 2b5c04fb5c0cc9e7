#include "solver/interior_point.hpp"

#include <gtest/gtest.h>

#include <random>

#include "feeders/ieee13.hpp"
#include "linalg/vector_ops.hpp"
#include "opf/model.hpp"
#include "solver/reference.hpp"

namespace dopf::solver {
namespace {

using dopf::linalg::kInfinity;
using dopf::sparse::CsrMatrix;
using dopf::sparse::Triplet;

LpProblem make_lp(std::size_t m, std::size_t n,
                  const std::vector<Triplet>& trips,
                  std::vector<double> b, std::vector<double> c,
                  std::vector<double> lb, std::vector<double> ub) {
  LpProblem p;
  p.a = CsrMatrix::from_triplets(m, n, trips);
  p.b = std::move(b);
  p.c = std::move(c);
  p.lb = std::move(lb);
  p.ub = std::move(ub);
  return p;
}

TEST(InteriorPointTest, SolvesTrivialBoxLp) {
  // min x1 + x2 s.t. x1 + x2 = 1, 0 <= x <= 1: any feasible point gives
  // objective 1; optimal value must be 1.
  const LpProblem p = make_lp(1, 2, {{0, 0, 1.0}, {0, 1, 1.0}}, {1.0},
                              {1.0, 1.0}, {0.0, 0.0}, {1.0, 1.0});
  const LpSolution s = solve_lp(p);
  EXPECT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-6);
}

TEST(InteriorPointTest, BindsTheCheapVariable) {
  // min x1 + 3 x2 s.t. x1 + x2 = 1, 0 <= x1 <= 0.4: x1 = 0.4, x2 = 0.6.
  const LpProblem p = make_lp(1, 2, {{0, 0, 1.0}, {0, 1, 1.0}}, {1.0},
                              {1.0, 3.0}, {0.0, 0.0}, {0.4, kInfinity});
  const LpSolution s = solve_lp(p);
  EXPECT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 0.4, 1e-6);
  EXPECT_NEAR(s.x[1], 0.6, 1e-6);
  EXPECT_NEAR(s.objective, 0.4 + 1.8, 1e-6);
}

TEST(InteriorPointTest, HandlesFreeVariables) {
  // min x2 s.t. x1 - x2 = 0, x2 >= 1; x1 free. Optimum x = (1, 1).
  const LpProblem p = make_lp(1, 2, {{0, 0, 1.0}, {0, 1, -1.0}}, {0.0},
                              {0.0, 1.0}, {-kInfinity, 1.0},
                              {kInfinity, kInfinity});
  const LpSolution s = solve_lp(p);
  EXPECT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 1.0, 1e-5);
  EXPECT_NEAR(s.x[1], 1.0, 1e-5);
}

TEST(InteriorPointTest, NegativeCostPushesToUpperBound) {
  // min -x s.t. (no equality rows beyond a dummy), 0 <= x <= 3.
  const LpProblem p = make_lp(1, 2, {{0, 1, 1.0}}, {0.5}, {-1.0, 0.0},
                              {0.0, 0.0}, {3.0, 1.0});
  const LpSolution s = solve_lp(p);
  EXPECT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 3.0, 1e-6);
  EXPECT_NEAR(s.x[1], 0.5, 1e-8);
}

TEST(InteriorPointTest, ZeroWidthBoxRejected) {
  LpProblem p = make_lp(1, 1, {{0, 0, 1.0}}, {1.0}, {1.0}, {1.0}, {1.0});
  EXPECT_THROW(solve_lp(p), std::invalid_argument);
}

TEST(InteriorPointTest, DimensionMismatchThrows) {
  LpProblem p = make_lp(1, 2, {{0, 0, 1.0}}, {1.0}, {1.0, 1.0}, {0.0, 0.0},
                        {1.0, 1.0});
  p.c.resize(1);
  EXPECT_THROW(solve_lp(p), std::invalid_argument);
}

class RandomLpSweep : public ::testing::TestWithParam<int> {};

/// Random feasible boxed LPs; verify KKT conditions of the reported optimum
/// rather than comparing to another solver.
TEST_P(RandomLpSweep, KktConditionsHold) {
  std::mt19937 rng(GetParam());
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  const std::size_t n = 8 + GetParam() % 5;
  const std::size_t m = 3 + GetParam() % 3;
  std::vector<Triplet> trips;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (dist(rng) > 0.0) {
        trips.push_back({static_cast<std::int64_t>(i),
                         static_cast<std::int64_t>(j), dist(rng)});
      }
    }
    // Guarantee no empty rows.
    trips.push_back({static_cast<std::int64_t>(i),
                     static_cast<std::int64_t>(i), 1.0 + std::abs(dist(rng))});
  }
  CsrMatrix a = CsrMatrix::from_triplets(m, n, trips);
  std::vector<double> x_feas(n), lb(n), ub(n), c(n), b(m, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    x_feas[j] = dist(rng);
    lb[j] = x_feas[j] - 0.5 - std::abs(dist(rng));
    ub[j] = x_feas[j] + 0.5 + std::abs(dist(rng));
    c[j] = dist(rng);
  }
  a.multiply(x_feas, b);
  LpProblem p;
  p.a = std::move(a);
  p.b = std::move(b);
  p.c = std::move(c);
  p.lb = std::move(lb);
  p.ub = std::move(ub);

  LpOptions tight;
  tight.tolerance = 1e-9;
  tight.gap_tolerance = 1e-8;
  tight.max_iterations = 400;
  const LpSolution s = solve_lp(p, tight);
  ASSERT_EQ(s.status, LpStatus::kOptimal) << "seed " << GetParam();

  // Primal feasibility.
  std::vector<double> ax(p.b.size(), 0.0);
  p.a.multiply(s.x, ax);
  for (std::size_t i = 0; i < p.b.size(); ++i) {
    EXPECT_NEAR(ax[i], p.b[i], 1e-5);
  }
  for (std::size_t j = 0; j < s.x.size(); ++j) {
    EXPECT_GE(s.x[j], p.lb[j] - 1e-6);
    EXPECT_LE(s.x[j], p.ub[j] + 1e-6);
  }
  // Dual feasibility / stationarity: z = c - A'y decomposes into
  // nonnegative multipliers on the active sides.
  std::vector<double> z(s.x.size(), 0.0);
  p.a.multiply_transpose(s.y, z);
  for (std::size_t j = 0; j < s.x.size(); ++j) {
    const double rc = p.c[j] - z[j];
    const bool at_lb = s.x[j] <= p.lb[j] + 1e-5;
    const bool at_ub = s.x[j] >= p.ub[j] - 1e-5;
    if (!at_lb && !at_ub) {
      EXPECT_NEAR(rc, 0.0, 1e-4) << "interior variable " << j;
    } else if (at_lb) {
      EXPECT_GE(rc, -1e-4) << "variable at lower bound " << j;
    } else {
      EXPECT_LE(rc, 1e-4) << "variable at upper bound " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpSweep, ::testing::Range(0, 15));

TEST(ReferenceTest, Ieee13ReferenceIsOptimalAndFeasible) {
  const auto net = dopf::feeders::ieee13();
  const auto model = dopf::opf::build_model(net);
  const LpSolution s = reference_solve(model);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_LT(model.equation_residual(s.x), 1e-5);
  EXPECT_LT(model.bound_violation(s.x), 1e-6);
  EXPECT_GT(s.objective, 0.0);  // serving load costs generation
}

TEST(ReferenceTest, PreCancelledTokenStopsBeforeTheFirstStep) {
  const auto net = dopf::feeders::ieee13();
  const auto model = dopf::opf::build_model(net);
  dopf::core::CancelToken cancel;
  cancel.request("test");
  ReferenceOptions options;
  options.lp.cancel = &cancel;
  const LpSolution s = reference_solve(model, options);
  EXPECT_EQ(s.status, LpStatus::kCancelled);
  EXPECT_STREQ(to_string(s.status), "cancelled");
  EXPECT_EQ(s.iterations, 0);
  // The returned iterate is the starting point, sized to the problem.
  EXPECT_EQ(s.x.size(), reference_problem(model).c.size());
}

TEST(ReferenceTest, UncancelledTokenChangesNothing) {
  const auto net = dopf::feeders::ieee13();
  const auto model = dopf::opf::build_model(net);
  dopf::core::CancelToken cancel;
  ReferenceOptions options;
  options.lp.cancel = &cancel;
  const LpSolution with = reference_solve(model, options);
  const LpSolution without = reference_solve(model);
  ASSERT_EQ(with.status, LpStatus::kOptimal);
  EXPECT_EQ(with.iterations, without.iterations);
  EXPECT_EQ(with.objective, without.objective);
  EXPECT_EQ(with.x, without.x);
}

TEST(ReferenceTest, WidensPinnedVoltageBoxes) {
  const auto net = dopf::feeders::ieee13();
  const auto model = dopf::opf::build_model(net);
  const LpProblem p = reference_problem(model);
  for (std::size_t j = 0; j < p.c.size(); ++j) {
    EXPECT_GT(p.ub[j] - p.lb[j], 0.0);
  }
}

TEST(ReferenceTest, FiniteBigMClipsFreeVariables) {
  const auto net = dopf::feeders::ieee13();
  const auto model = dopf::opf::build_model(net);
  ReferenceOptions opts;
  opts.big_m = 42.0;
  const LpProblem p = reference_problem(model, opts);
  double max_abs_bound = 0.0;
  for (std::size_t j = 0; j < p.c.size(); ++j) {
    max_abs_bound = std::max(max_abs_bound, std::abs(p.lb[j]));
    max_abs_bound = std::max(max_abs_bound, std::abs(p.ub[j]));
  }
  EXPECT_LE(max_abs_bound, 42.0 + 1e-9);
}

}  // namespace
}  // namespace dopf::solver

#include "solver/interior_point.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/cholesky.hpp"
#include "linalg/vector_ops.hpp"
#include "sparse/ldlt.hpp"
#include "sparse/normal_equations.hpp"

namespace dopf::solver {

using dopf::linalg::is_unbounded;
using dopf::linalg::norm2;

const char* to_string(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "optimal";
    case LpStatus::kMaxIterations:
      return "max-iterations";
    case LpStatus::kNumericalFailure:
      return "numerical-failure";
    case LpStatus::kCancelled:
      return "cancelled";
  }
  return "?";
}

namespace {

/// Primal regularization: the Theta shift (it also handles free variables).
constexpr double kRegPrimal = 1e-9;
/// Dual regularization: the first diagonal shift of the normal equations.
constexpr double kRegDual = 1e-9;

/// Per-variable bound bookkeeping: slacks and duals exist only for finite
/// bounds.
struct Bounds {
  std::vector<bool> has_lb, has_ub;
  std::size_t n_l = 0, n_u = 0;

  explicit Bounds(const LpProblem& p) {
    const std::size_t n = p.c.size();
    has_lb.resize(n);
    has_ub.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      has_lb[i] = !is_unbounded(p.lb[i]);
      has_ub[i] = !is_unbounded(p.ub[i]);
      n_l += has_lb[i];
      n_u += has_ub[i];
    }
  }
};

double step_to_boundary(std::span<const double> v, std::span<const double> dv) {
  double alpha = 1.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (dv[i] < 0.0) alpha = std::min(alpha, -v[i] / dv[i]);
  }
  return alpha;
}

}  // namespace

LpSolution solve_lp(const LpProblem& problem, const LpOptions& options) {
  const std::size_t n = problem.c.size();
  const std::size_t m = problem.b.size();
  if (problem.a.rows() != m || problem.a.cols() != n ||
      problem.lb.size() != n || problem.ub.size() != n) {
    throw std::invalid_argument("solve_lp: dimension mismatch");
  }
  const Bounds bounds(problem);
  const auto& A = problem.a;

  LpSolution sol;
  sol.x.assign(n, 0.0);
  sol.y.assign(m, 0.0);

  // Interior starting point: x strictly inside its box where bounded
  // (slacks consistent with x by construction), duals = 1. Zero-width boxes
  // are rejected — callers must widen fixed variables slightly (the OPF
  // reference wrapper does).
  std::vector<double> sl(n, 0.0), su(n, 0.0), zl(n, 0.0), zu(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (bounds.has_lb[i] && bounds.has_ub[i]) {
      const double range = problem.ub[i] - problem.lb[i];
      if (range <= 0.0) {
        throw std::invalid_argument(
            "solve_lp: zero-width bound box at variable " + std::to_string(i) +
            "; widen fixed variables before calling");
      }
      sl[i] = 0.5 * range;
      su[i] = 0.5 * range;
      sol.x[i] = problem.lb[i] + sl[i];
      zl[i] = zu[i] = 1.0;
    } else if (bounds.has_lb[i]) {
      sl[i] = 1.0;
      sol.x[i] = problem.lb[i] + 1.0;
      zl[i] = 1.0;
    } else if (bounds.has_ub[i]) {
      su[i] = 1.0;
      sol.x[i] = problem.ub[i] - 1.0;
      zu[i] = 1.0;
    } else {
      sol.x[i] = 0.0;
    }
  }

  dopf::sparse::NormalEquations normal(A);
  // Symbolic analysis happens once on the fixed pattern.
  std::vector<double> d(n, 1.0);
  dopf::sparse::SparseLdlt ldlt(normal.compute(A, d),
                                dopf::sparse::Ordering::kRcm);

  const double bnorm = 1.0 + norm2(problem.b);
  const double cnorm = 1.0 + norm2(problem.c);
  const std::size_t n_compl = std::max<std::size_t>(1, bounds.n_l + bounds.n_u);

  std::vector<double> rp(m), rd(n), theta(n), rhat(n), rhs(m);
  std::vector<double> dx(n), dy(m), dzl(n), dzu(n), dsl(n), dsu(n);
  std::vector<double> dx_a(n), dzl_a(n), dzu_a(n), dsl_a(n), dsu_a(n);

  auto compute_residuals = [&]() {
    // rp = b - A x
    A.multiply(sol.x, rp, -1.0, 0.0);
    for (std::size_t i = 0; i < m; ++i) rp[i] += problem.b[i];
    // rd = c - A'y - zl + zu
    A.multiply_transpose(sol.y, rd, -1.0, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      rd[j] += problem.c[j] - zl[j] + zu[j];
    }
  };

  auto mu_of = [&]() {
    double mu = 0.0;
    for (std::size_t j = 0; j < n; ++j) mu += sl[j] * zl[j] + su[j] * zu[j];
    return mu / static_cast<double>(n_compl);
  };

  // Solves the Newton system for given complementarity targets
  // (tl = target for Sl Zl e, tu for Su Zu e), writing dx/dy/dzl/dzu/dsl/dsu.
  auto newton_solve = [&](std::span<const double> tl,
                          std::span<const double> tu) {
    for (std::size_t j = 0; j < n; ++j) {
      double t = kRegPrimal;
      if (bounds.has_lb[j]) t += zl[j] / sl[j];
      if (bounds.has_ub[j]) t += zu[j] / su[j];
      theta[j] = t;
      d[j] = 1.0 / t;
      // rhat = rd - Sl^{-1} tl + Su^{-1} tu  (tl/tu already include signs)
      double r = rd[j];
      if (bounds.has_lb[j]) r -= tl[j] / sl[j];
      if (bounds.has_ub[j]) r += tu[j] / su[j];
      rhat[j] = r;
    }
    // (A D A' + reg) dy = rp + A D rhat
    for (std::size_t j = 0; j < n; ++j) dx[j] = d[j] * rhat[j];
    A.multiply(dx, rhs, 1.0, 0.0);
    for (std::size_t i = 0; i < m; ++i) rhs[i] += rp[i];
    // Factor with escalating regularization: the Theta spread between free
    // and nearly-active variables can push the normal equations to the edge
    // of positive definiteness late in the solve.
    normal.compute(A, d);
    double shift = kRegDual;
    for (int attempt = 0;; ++attempt) {
      try {
        ldlt.factorize(normal.matrix(), shift);
        break;
      } catch (const dopf::linalg::SingularMatrixError&) {
        if (attempt >= 6) throw;
        shift = std::max(shift * 100.0, 1e-12);
      }
    }
    dy = ldlt.solve(rhs);
    // dx = D (A' dy - rhat)
    A.multiply_transpose(dy, dx, 1.0, 0.0);
    for (std::size_t j = 0; j < n; ++j) dx[j] = d[j] * (dx[j] - rhat[j]);
    // dsl = dx, dsu = -dx ; dz from complementarity rows.
    for (std::size_t j = 0; j < n; ++j) {
      if (bounds.has_lb[j]) {
        dsl[j] = dx[j];
        dzl[j] = (tl[j] - zl[j] * dsl[j]) / sl[j];
      } else {
        dsl[j] = dzl[j] = 0.0;
      }
      if (bounds.has_ub[j]) {
        dsu[j] = -dx[j];
        dzu[j] = (tu[j] - zu[j] * dsu[j]) / su[j];
      } else {
        dsu[j] = dzu[j] = 0.0;
      }
    }
  };

  std::vector<double> tl(n, 0.0), tu(n, 0.0);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    sol.iterations = iter;
    compute_residuals();
    const double mu = mu_of();
    sol.primal_infeasibility = norm2(rp) / bnorm;
    sol.dual_infeasibility = norm2(rd) / cnorm;
    sol.objective = dopf::linalg::dot(problem.c, sol.x);
    const double dual_obj = [&] {
      double v = dopf::linalg::dot(problem.b, sol.y);
      for (std::size_t j = 0; j < n; ++j) {
        if (bounds.has_lb[j]) v += problem.lb[j] * zl[j];
        if (bounds.has_ub[j]) v -= problem.ub[j] * zu[j];
      }
      return v;
    }();
    sol.gap = std::abs(sol.objective - dual_obj) /
              (1.0 + std::abs(sol.objective));
    if (sol.primal_infeasibility < options.tolerance &&
        sol.dual_infeasibility < options.tolerance &&
        sol.gap < options.gap_tolerance) {
      sol.status = LpStatus::kOptimal;
      return sol;
    }
    if (options.cancel != nullptr && options.cancel->cancelled()) {
      sol.status = LpStatus::kCancelled;
      return sol;
    }

    try {
      // ---- Affine (predictor) direction: drive complementarity to zero.
      for (std::size_t j = 0; j < n; ++j) {
        tl[j] = bounds.has_lb[j] ? -sl[j] * zl[j] : 0.0;
        tu[j] = bounds.has_ub[j] ? -su[j] * zu[j] : 0.0;
      }
      newton_solve(tl, tu);
      dx_a = dx;
      dsl_a = dsl;
      dsu_a = dsu;
      dzl_a = dzl;
      dzu_a = dzu;

      double ap = std::min(step_to_boundary(sl, dsl_a),
                           step_to_boundary(su, dsu_a));
      double ad = std::min(step_to_boundary(zl, dzl_a),
                           step_to_boundary(zu, dzu_a));
      double mu_aff = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (bounds.has_lb[j]) {
          mu_aff += (sl[j] + ap * dsl_a[j]) * (zl[j] + ad * dzl_a[j]);
        }
        if (bounds.has_ub[j]) {
          mu_aff += (su[j] + ap * dsu_a[j]) * (zu[j] + ad * dzu_a[j]);
        }
      }
      mu_aff /= static_cast<double>(n_compl);
      const double sigma =
          mu > 0.0 ? std::pow(std::clamp(mu_aff / mu, 0.0, 1.0), 3) : 0.0;

      // ---- Corrector: recenter and cancel the second-order term.
      for (std::size_t j = 0; j < n; ++j) {
        tl[j] = bounds.has_lb[j]
                    ? sigma * mu - sl[j] * zl[j] - dsl_a[j] * dzl_a[j]
                    : 0.0;
        tu[j] = bounds.has_ub[j]
                    ? sigma * mu - su[j] * zu[j] - dsu_a[j] * dzu_a[j]
                    : 0.0;
      }
      newton_solve(tl, tu);
    } catch (const dopf::linalg::SingularMatrixError&) {
      sol.status = LpStatus::kNumericalFailure;
      return sol;
    }

    const double eta = 0.995;
    const double ap = eta * std::min(step_to_boundary(sl, dsl),
                                     step_to_boundary(su, dsu));
    const double ad = eta * std::min(step_to_boundary(zl, dzl),
                                     step_to_boundary(zu, dzu));

    for (std::size_t j = 0; j < n; ++j) {
      sol.x[j] += ap * dx[j];
      if (bounds.has_lb[j]) {
        sl[j] += ap * dsl[j];
        zl[j] += ad * dzl[j];
      }
      if (bounds.has_ub[j]) {
        su[j] += ap * dsu[j];
        zu[j] += ad * dzu[j];
      }
    }
    for (std::size_t i = 0; i < m; ++i) sol.y[i] += ad * dy[i];
  }
  sol.status = LpStatus::kMaxIterations;
  return sol;
}

}  // namespace dopf::solver

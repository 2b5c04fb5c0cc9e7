#include "solver/box_qp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/cholesky.hpp"
#include "linalg/vector_ops.hpp"

namespace dopf::solver {

using dopf::linalg::Cholesky;
using dopf::linalg::Matrix;
using dopf::linalg::norm_inf;

namespace {
/// Smallest diagonal shift of the semismooth Newton system.
constexpr double kRegularization = 1e-12;

const Matrix& check_dimensions(const Matrix& a, const std::vector<double>& b,
                               const std::vector<double>& lb,
                               const std::vector<double>& ub) {
  if (lb.size() != a.cols() || ub.size() != a.cols() ||
      b.size() != a.rows()) {
    throw std::invalid_argument("BoxQp: dimension mismatch");
  }
  return a;
}
}  // namespace

BoxQp::BoxQp(Matrix a, std::vector<double> b, std::vector<double> lb,
             std::vector<double> ub)
    : a_(std::move(a)),
      b_(std::move(b)),
      lb_(std::move(lb)),
      ub_(std::move(ub)),
      affine_(check_dimensions(a_, b_, lb_, ub_), b_) {}

void BoxQp::x_of_mu(std::span<const double> y, std::span<const double> mu,
                    std::span<double> x) const {
  // x(mu) = clip(y - A^T mu, lb, ub)
  const std::size_t n = a_.cols();
  for (std::size_t j = 0; j < n; ++j) x[j] = y[j];
  for (std::size_t i = 0; i < a_.rows(); ++i) {
    const double mi = mu[i];
    if (mi == 0.0) continue;
    const auto row = a_.row(i);
    for (std::size_t j = 0; j < n; ++j) x[j] -= row[j] * mi;
  }
  for (std::size_t j = 0; j < n; ++j) {
    x[j] = std::min(std::max(x[j], lb_[j]), ub_[j]);
  }
}

double BoxQp::dual_value(std::span<const double> y, std::span<const double> mu,
                         std::span<double> x_scratch) const {
  x_of_mu(y, mu, x_scratch);
  double val = 0.0;
  for (std::size_t j = 0; j < a_.cols(); ++j) {
    const double d = x_scratch[j] - y[j];
    val += 0.5 * d * d;
  }
  for (std::size_t i = 0; i < a_.rows(); ++i) {
    double axi = 0.0;
    const auto row = a_.row(i);
    for (std::size_t j = 0; j < row.size(); ++j) axi += row[j] * x_scratch[j];
    val += mu[i] * (axi - b_[i]);
  }
  return val;
}

BoxQp::Result BoxQp::project(std::span<const double> y, const Options& options,
                             std::vector<double>* mu_warm) const {
  const std::size_t m = a_.rows();
  const std::size_t n = a_.cols();
  if (y.size() != n) throw std::invalid_argument("BoxQp::project: bad y size");

  Result res;
  std::vector<double> mu =
      (mu_warm != nullptr && mu_warm->size() == m) ? *mu_warm
                                                   : std::vector<double>(m, 0.0);
  std::vector<double> x(n), grad(m), dmu(m), mu_trial(m), x_trial(n);

  for (int it = 0; it < options.max_newton; ++it) {
    res.newton_iterations = it + 1;
    x_of_mu(y, mu, x);
    // grad g(mu) = A x(mu) - b
    for (std::size_t i = 0; i < m; ++i) {
      double sum = -b_[i];
      const auto row = a_.row(i);
      for (std::size_t j = 0; j < n; ++j) sum += row[j] * x[j];
      grad[i] = sum;
    }
    res.residual = norm_inf(grad);
    if (res.residual <= options.tol) {
      res.converged = true;
      res.x = std::move(x);
      if (mu_warm != nullptr) *mu_warm = std::move(mu);
      return res;
    }

    // Generalized Hessian H = A D A^T with D = diag(strictly-inside mask),
    // regularized so the Newton system is always solvable.
    Matrix h(m, m);
    for (std::size_t j = 0; j < n; ++j) {
      if (x[j] <= lb_[j] || x[j] >= ub_[j]) continue;  // clipped: D_jj = 0
      for (std::size_t i = 0; i < m; ++i) {
        const double aij = a_(i, j);
        if (aij == 0.0) continue;
        for (std::size_t k = 0; k <= i; ++k) {
          h(i, k) += aij * a_(k, j);
        }
      }
    }
    const double reg =
        std::max(kRegularization, 1e-10 * (1.0 + res.residual));
    for (std::size_t i = 0; i < m; ++i) {
      h(i, i) += reg;
      for (std::size_t k = i + 1; k < m; ++k) h(i, k) = h(k, i);
    }
    // Maximizing the concave dual: mu+ = mu + H^{-1} grad.
    const Cholesky chol(h);
    dmu = chol.solve(grad);

    // Armijo backtracking on the dual value.
    const double g0 = dual_value(y, mu, x_trial);
    const double slope = dopf::linalg::dot(grad, dmu);
    double step = 1.0;
    bool accepted = false;
    for (int ls = 0; ls < 40; ++ls) {
      for (std::size_t i = 0; i < m; ++i) mu_trial[i] = mu[i] + step * dmu[i];
      if (dual_value(y, mu_trial, x_trial) >= g0 + 1e-4 * step * slope) {
        accepted = true;
        break;
      }
      step *= 0.5;
    }
    if (!accepted) break;  // stalled: hand over to Dykstra
    mu.swap(mu_trial);
  }

  // Fallback: Dykstra's alternating projections (always convergent).
  Result dres = dykstra(y, options);
  dres.newton_iterations = res.newton_iterations;
  if (mu_warm != nullptr) {
    std::fill(mu_warm->begin(), mu_warm->end(), 0.0);
  }
  return dres;
}

BoxQp::Result BoxQp::dykstra(std::span<const double> y,
                             const Options& options) const {
  const std::size_t n = a_.cols();
  Result res;
  std::vector<double> x(y.begin(), y.end());
  std::vector<double> p(n, 0.0), q(n, 0.0), box(n), tmp(n), prev(n);

  for (int it = 0; it < options.max_dykstra; ++it) {
    res.dykstra_iterations = it + 1;
    prev = x;
    // Box step with correction p.
    for (std::size_t j = 0; j < n; ++j) {
      const double v = x[j] + p[j];
      box[j] = std::min(std::max(v, lb_[j]), ub_[j]);
      p[j] = v - box[j];
    }
    // Affine step with correction q.
    for (std::size_t j = 0; j < n; ++j) tmp[j] = box[j] + q[j];
    affine_.project_into(tmp, x);
    for (std::size_t j = 0; j < n; ++j) q[j] = tmp[j] - x[j];

    double delta = 0.0;
    double box_violation = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      delta = std::max(delta, std::abs(x[j] - prev[j]));
      box_violation = std::max(box_violation,
                               std::max(lb_[j] - x[j], x[j] - ub_[j]));
    }
    if (delta <= options.tol * 0.1 && box_violation <= options.tol) {
      res.converged = true;
      break;
    }
  }
  // x satisfies A x = b exactly (last step was the affine projection);
  // report the box violation as the residual.
  double viol = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    viol = std::max(viol, std::max(lb_[j] - x[j], x[j] - ub_[j]));
  }
  res.residual = viol;
  res.x = std::move(x);
  return res;
}

}  // namespace dopf::solver

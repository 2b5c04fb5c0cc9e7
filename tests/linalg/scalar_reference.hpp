#pragma once

// The one-block-at-a-time scalar precompute the lane kernels of
// linalg/lanes.hpp replaced: the Cholesky factor and its solves, the
// conditioning estimate of robust/conditioning and the projector build of
// linalg/affine_projector, each in its original operation order, over the
// scalar Matrix products (multiply, multiply_abt, multiply_atb and
// multiply_transpose, with their zero skips). The lane tests hold every
// lane to these bit for bit.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "linalg/affine_projector.hpp"
#include "linalg/matrix.hpp"

namespace dopf::reference {

using dopf::linalg::Matrix;

inline Matrix gram(const Matrix& a) {
  return dopf::linalg::multiply_abt(a, a);
}

struct Factor {
  bool ok = false;
  Matrix l;
  std::size_t pivot_index = 0;
  double pivot_value = 0.0;
};

inline Factor cholesky(const Matrix& a, double tol) {
  Factor f;
  const std::size_t n = a.rows();
  f.l = Matrix(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= f.l(j, k) * f.l(j, k);
    if (!(diag > tol)) {
      f.pivot_index = j;
      f.pivot_value = diag;
      return f;
    }
    const double ljj = std::sqrt(diag);
    f.l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= f.l(i, k) * f.l(j, k);
      f.l(i, j) = sum / ljj;
    }
  }
  f.ok = true;
  return f;
}

inline std::vector<double> solve(const Matrix& l, std::vector<double> x) {
  const std::size_t n = l.rows();
  for (std::size_t i = 0; i < n; ++i) {
    double sum = x[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l(i, k) * x[k];
    x[i] = sum / l(i, i);
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = x[ii];
    for (std::size_t k = ii + 1; k < n; ++k) sum -= l(k, ii) * x[k];
    x[ii] = sum / l(ii, ii);
  }
  return x;
}

inline double lambda_max(const Matrix& g, int iterations) {
  const std::size_t m = g.rows();
  if (m == 0) return 0.0;
  std::vector<double> v(m);
  for (std::size_t i = 0; i < m; ++i) {
    v[i] = 1.0 + 0.25 * static_cast<double>(i % 7);
  }
  double lambda = 0.0;
  for (int it = 0; it < iterations; ++it) {
    std::vector<double> w = dopf::linalg::multiply(g, v);
    double norm = 0.0;
    for (double x : w) norm += x * x;
    norm = std::sqrt(norm);
    if (!(norm > 0.0) || !std::isfinite(norm)) return 0.0;
    for (double& x : w) x /= norm;
    lambda = norm;
    v = std::move(w);
  }
  return lambda;
}

inline double lambda_min(const Matrix& l, int iterations) {
  const std::size_t m = l.rows();
  if (m == 0) return 0.0;
  std::vector<double> v(m);
  for (std::size_t i = 0; i < m; ++i) {
    v[i] = 1.0 + 0.25 * static_cast<double>(i % 5);
  }
  double inv_lambda = 0.0;
  for (int it = 0; it < iterations; ++it) {
    std::vector<double> w = solve(l, v);
    double norm = 0.0;
    for (double x : w) norm += x * x;
    norm = std::sqrt(norm);
    if (!(norm > 0.0) || !std::isfinite(norm)) return 0.0;
    for (double& x : w) x /= norm;
    inv_lambda = norm;
    v = std::move(w);
  }
  return inv_lambda > 0.0 ? 1.0 / inv_lambda : 0.0;
}

/// robust::analyze_component's cond estimate as it ran one block at a time.
inline double estimate_gram_cond(const Matrix& a, int power_iterations,
                                 double chol_tol) {
  if (a.rows() == 0) return 1.0;
  const Matrix g = gram(a);
  const double lmax = lambda_max(g, power_iterations);
  const Factor chol = cholesky(g, chol_tol);
  if (!chol.ok) return std::numeric_limits<double>::infinity();
  const double lmin = lambda_min(chol.l, power_iterations);
  if (!(lmin > 0.0)) return std::numeric_limits<double>::infinity();
  return lmax / lmin;
}

struct Projector {
  bool ok = false;
  double ridge = 0.0;
  std::size_t pivot_index = 0;
  double pivot_value = 0.0;
  Matrix abar;
  std::vector<double> bbar;
  Matrix l;  ///< factor of the (possibly ridged) Gram matrix
};

/// AffineProjector::try_build as it ran one block at a time.
inline Projector build_projector(
    const Matrix& a, std::span<const double> b,
    const dopf::linalg::ProjectorOptions& options) {
  Projector p;
  const Matrix g = gram(a);
  Factor chol = cholesky(g, dopf::linalg::kCholTol);
  double ridge = 0.0;
  if (!chol.ok && options.auto_regularize) {
    double max_diag = 1.0;
    for (std::size_t i = 0; i < g.rows(); ++i) {
      max_diag = std::max(max_diag, std::abs(g(i, i)));
    }
    ridge = dopf::linalg::kRidgeRel * max_diag;
    for (int attempt = 0; attempt <= options.max_ridge_doublings && !chol.ok;
         ++attempt) {
      Matrix ridged = g;
      for (std::size_t i = 0; i < ridged.rows(); ++i) ridged(i, i) += ridge;
      chol = cholesky(ridged, dopf::linalg::kCholTol);
      if (!chol.ok) ridge *= 2.0;
    }
  }
  if (!chol.ok) {
    p.pivot_index = chol.pivot_index;
    p.pivot_value = chol.pivot_value;
    return p;
  }
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  Matrix y(m, n);
  for (std::size_t j = 0; j < n; ++j) {
    std::vector<double> col(m);
    for (std::size_t i = 0; i < m; ++i) col[i] = a(i, j);
    col = solve(chol.l, col);
    for (std::size_t i = 0; i < m; ++i) y(i, j) = col[i];
  }
  p.abar = dopf::linalg::multiply_atb(a, y);
  for (std::size_t i = 0; i < n; ++i) p.abar(i, i) -= 1.0;
  p.bbar = dopf::linalg::multiply_transpose(
      a, solve(chol.l, std::vector<double>(b.begin(), b.end())));
  p.ok = true;
  p.ridge = ridge;
  p.l = std::move(chol.l);
  return p;
}

}  // namespace dopf::reference

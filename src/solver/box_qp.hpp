#pragma once

#include <span>
#include <vector>

#include "linalg/affine_projector.hpp"
#include "linalg/matrix.hpp"

namespace dopf::solver {

/// Exact solver for the benchmark ADMM's local subproblem (Sec. V-B):
///
///   min  1/2 ||x - y||^2   s.t.  A x = b,  lb <= x <= ub,
///
/// i.e. the Euclidean projection of y onto the polyhedron. (The paper's
/// local QP (14) with bound constraints reduces to this with
/// y = B_s x^(t+1) + lambda_s / rho.)
///
/// Substitution note (DESIGN.md): the paper's benchmark calls an
/// off-the-shelf QP solver here; this class is our from-scratch equivalent.
/// The primary method is a semismooth Newton iteration on the dual of the
/// equality constraints (x(mu) = clip(y - A' mu); solve A x(mu) = b), which
/// is exact and fast for the tiny per-component systems; a Dykstra
/// alternating-projection fallback guarantees convergence in degenerate
/// corner cases.
struct BoxQpOptions {
  double tol = 1e-9;        ///< infinity-norm tolerance on A x - b
  int max_newton = 60;      ///< semismooth Newton iteration cap
  int max_dykstra = 20000;  ///< fallback iteration cap
};

class BoxQp {
 public:
  /// `a` must have full row rank (use linalg::row_reduce first).
  BoxQp(dopf::linalg::Matrix a, std::vector<double> b, std::vector<double> lb,
        std::vector<double> ub);

  using Options = BoxQpOptions;

  struct Result {
    std::vector<double> x;
    int newton_iterations = 0;
    int dykstra_iterations = 0;
    bool converged = false;
    double residual = 0.0;  ///< final ||A x - b||_inf
  };

  /// Project `y`; `mu_warm` (size m) warm-starts the dual iteration and is
  /// overwritten with the final multipliers when non-null.
  Result project(std::span<const double> y, const Options& options = BoxQpOptions(),
                 std::vector<double>* mu_warm = nullptr) const;

  std::size_t num_vars() const { return a_.cols(); }
  std::size_t num_constraints() const { return a_.rows(); }

 private:
  double dual_value(std::span<const double> y, std::span<const double> mu,
                    std::span<double> x_scratch) const;
  void x_of_mu(std::span<const double> y, std::span<const double> mu,
               std::span<double> x) const;
  Result dykstra(std::span<const double> y, const Options& options) const;

  dopf::linalg::Matrix a_;
  std::vector<double> b_;
  std::vector<double> lb_;
  std::vector<double> ub_;
  dopf::linalg::AffineProjector affine_;
};

}  // namespace dopf::solver

#pragma once

#include <span>
#include <string>
#include <vector>

#include "opf/decompose.hpp"
#include "opf/model.hpp"
#include "solver/interior_point.hpp"

namespace dopf::verify {

/// Tolerances for the invariant checks. The defaults are calibrated for the
/// paper's termination profile (eps_rel ~ 1e-3..5e-3): tight where the
/// algorithm guarantees exactness (projection feasibility, bound clipping)
/// and loose where only eps-level agreement is promised (consensus, KKT).
struct InvariantOptions {
  /// ||A_s z_s - b_s||_inf per component: z is a projection output, so this
  /// is factorization roundoff, not an eps-level quantity.
  double local_feasibility_tol = 1e-7;
  /// ||B x - z||_inf consensus gap at termination.
  double consensus_tol = 5e-2;
  /// max_e |A x - b|_e of the centralized model at the global iterate.
  double model_residual_tol = 5e-2;
  /// Projected-gradient KKT stationarity against the reference multipliers.
  double kkt_tol = 5e-2;
  /// Relative objective gap against the reference optimum.
  double objective_tol = 2e-2;
};

/// Results of the independent invariant checks for one ADMM state. Values
/// below 0 mean "not evaluated" (the corresponding inputs were not given).
/// Every quantity is recomputed directly from the DistributedProblem's
/// component blocks (A_s, b_s, B_s) or the centralized model — never through
/// the packed SoA pool, the AffineProjector objects, or any backend — so a
/// bug in those layers cannot certify itself.
struct InvariantReport {
  /// max over components of ||A_s z_s - b_s||_inf.
  double local_feasibility = 0.0;
  std::string worst_component;  ///< name of the argmax component
  /// max violation of lb <= x <= ub.
  double box_violation = 0.0;
  /// ||B x - z||_inf.
  double consensus_gap = 0.0;
  /// ||B x - z||_2, the independently recomputed primal residual of (16).
  double primal_residual = 0.0;
  /// max_e |A x - b|_e of the centralized model (7); needs the model.
  double model_residual = -1.0;
  /// ||x - clip(x - (c - A'y), lb, ub)||_inf with the reference solver's
  /// equality multipliers y: zero exactly at a KKT point of (7).
  double kkt_stationarity = -1.0;
  /// |c'x - objective*| / (1 + |objective*|).
  double objective_gap = -1.0;

  /// Human-readable one-line-per-failure diagnostics (empty = all pass).
  std::vector<std::string> failures(const InvariantOptions& options) const;
  bool ok(const InvariantOptions& options) const {
    return failures(options).empty();
  }
  std::string to_string() const;
};

/// Check the backend-independent invariants of an ADMM state: per-component
/// feasibility of the local iterates z, box satisfaction of the global
/// iterate x, and the consensus gap between them.
InvariantReport check_invariants(const dopf::opf::DistributedProblem& problem,
                                 std::span<const double> x,
                                 std::span<const double> z);

/// Add the centralized-model residual max|Ax - b| at x to `report`.
void add_model_check(const dopf::opf::OpfModel& model,
                     std::span<const double> x, InvariantReport* report);

/// Add the KKT stationarity and objective-gap checks against a solved
/// centralized reference (its x is NOT compared directly — LP optima need
/// not be unique — only its multipliers and optimal value are used).
void add_reference_check(const dopf::opf::OpfModel& model,
                         std::span<const double> x,
                         const dopf::solver::LpSolution& reference,
                         InvariantReport* report);

}  // namespace dopf::verify

#pragma once

#include <span>
#include <string>

#include "network/network.hpp"
#include "opf/solution.hpp"

namespace dopf::opf {

/// Physics-level validation of a solved OPF point, computed *directly from
/// the network data* — deliberately independent of the OpfModel equation
/// builder, so a bug in the builder cannot hide in its own residuals.
struct ValidationReport {
  double max_p_balance = 0.0;      ///< worst real power imbalance (3a)
  double max_q_balance = 0.0;      ///< worst reactive imbalance (3b)
  double max_flow_consistency = 0.0;  ///< worst (5a)/(5b) violation
  double max_voltage_equation = 0.0;  ///< worst (5c) violation
  double max_load_model = 0.0;     ///< worst ZIP relation (4a)/(4b)
  double max_bound_violation = 0.0;
  /// Name of the worst offender (bus/line/load), for diagnostics.
  std::string worst_site;

  double worst() const;
  /// Name of the dominant check category ("P-balance", "flow", ...), so a
  /// failure diagnostic can say *what kind* of physics is violated, not
  /// just where.
  std::string worst_check() const;
  bool ok(double tol) const { return worst() <= tol; }
};

/// Validate `x` against the network's physics. Every check re-derives its
/// equation from `net` alone.
ValidationReport validate_solution(const dopf::network::Network& net,
                                   const OpfModel& model,
                                   std::span<const double> x);

}  // namespace dopf::opf

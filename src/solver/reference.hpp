#pragma once

#include "opf/model.hpp"
#include "solver/interior_point.hpp"

namespace dopf::solver {

struct ReferenceOptions {
  /// Artificial bound magnitude substituted for unbounded variables; set to
  /// linalg::kInfinity (the default) to pass free variables through to the
  /// interior-point method, which handles them via primal regularization.
  /// A finite value must exceed any flow the optimum needs (trunk flows
  /// reach the total feeder load).
  double big_m = 1e30;
  LpOptions lp;
};

/// Solve the centralized OPF LP (7) with the interior-point method, after
/// replacing infinite bounds by +-big_m and widening zero-width boxes (fixed
/// variables such as the pinned substation voltage) to a width of 1e-7, so
/// the interior-point method has an interior.
/// This provides the ground-truth objective/solution that both distributed
/// methods are validated against in tests and EXPERIMENTS.md.
LpSolution reference_solve(const dopf::opf::OpfModel& model,
                           const ReferenceOptions& options = {});

/// The LpProblem handed to solve_lp by reference_solve (exposed for tests).
LpProblem reference_problem(const dopf::opf::OpfModel& model,
                            const ReferenceOptions& options = {});

}  // namespace dopf::solver

#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "sparse/csr.hpp"

namespace dopf::solver {

/// Linear program in the form of (7):
///   min c'x   s.t.  A x = b,  lb <= x <= ub
/// (entries of lb/ub at +-linalg::kInfinity denote absent bounds).
struct LpProblem {
  dopf::sparse::CsrMatrix a;
  std::vector<double> b;
  std::vector<double> c;
  std::vector<double> lb;
  std::vector<double> ub;
};

enum class LpStatus { kOptimal, kMaxIterations, kNumericalFailure, kCancelled };

struct LpOptions {
  int max_iterations = 250;
  /// Relative primal/dual feasibility tolerance.
  double tolerance = 1e-7;
  /// Relative duality-gap tolerance; looser than `tolerance` because the
  /// primal-dual regularization puts the attainable gap plateau around
  /// 1e-6..1e-5 on large instances.
  double gap_tolerance = 1e-5;
  /// Polled once per iteration, after the convergence test: once it
  /// reports cancelled (a signal or a deadline), the solve stops with
  /// kCancelled and the last iterate. Not owned; null = never cancelled.
  const dopf::core::CancelToken* cancel = nullptr;
};

struct LpSolution {
  LpStatus status = LpStatus::kNumericalFailure;
  std::vector<double> x;
  std::vector<double> y;  ///< equality multipliers
  double objective = 0.0;
  int iterations = 0;
  double primal_infeasibility = 0.0;  ///< ||Ax-b|| / (1+||b||)
  double dual_infeasibility = 0.0;
  double gap = 0.0;
};

/// Mehrotra predictor-corrector primal-dual interior-point method with
/// normal-equations linear algebra (sparse LDL^T, RCM-ordered; the pattern
/// is analyzed once and refactorized each iteration).
///
/// This is the repository's *reference* solver: it provides the centralized
/// optimum that the distributed ADMM methods are validated against. It is
/// not on any distributed hot path.
LpSolution solve_lp(const LpProblem& problem, const LpOptions& options = {});

const char* to_string(LpStatus status);

}  // namespace dopf::solver

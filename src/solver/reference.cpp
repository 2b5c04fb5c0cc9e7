#include "solver/reference.hpp"

#include <cmath>

#include "linalg/vector_ops.hpp"

namespace dopf::solver {

using dopf::linalg::is_unbounded;

namespace {
/// A box narrower than this (lb == ub, say) is widened to it around its
/// midpoint.
constexpr double kMinBoxWidth = 1e-7;
}  // namespace

LpProblem reference_problem(const dopf::opf::OpfModel& model,
                            const ReferenceOptions& options) {
  LpProblem p;
  p.a = model.constraint_matrix();
  p.b = model.rhs();
  p.c = model.c;
  p.lb = model.lb;
  p.ub = model.ub;
  const double big_m = options.big_m;
  for (std::size_t i = 0; i < p.c.size(); ++i) {
    if (is_unbounded(p.lb[i]) && !is_unbounded(-big_m)) p.lb[i] = -big_m;
    if (is_unbounded(p.ub[i]) && !is_unbounded(big_m)) p.ub[i] = big_m;
    if (p.ub[i] - p.lb[i] < kMinBoxWidth) {
      const double mid = 0.5 * (p.lb[i] + p.ub[i]);
      p.lb[i] = mid - 0.5 * kMinBoxWidth;
      p.ub[i] = mid + 0.5 * kMinBoxWidth;
    }
  }
  return p;
}

LpSolution reference_solve(const dopf::opf::OpfModel& model,
                           const ReferenceOptions& options) {
  return solve_lp(reference_problem(model, options), options.lp);
}

}  // namespace dopf::solver

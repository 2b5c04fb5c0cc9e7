#include "core/solve_session.hpp"

namespace dopf::core {

SolveSession::SolveSession(ScenarioBinding& binding, AdmmOptions options)
    : binding_(&binding),
      solver_(binding, options),
      model_refactorizations_seen_(binding.model().refactorizations()) {}

RebindStats SolveSession::rebind(const dopf::opf::DistributedProblem& scenario) {
  const RebindStats st = binding_->rebind(scenario);
  stats_.refactorizations += st.refactorizations;
  stats_.rhs_rebinds += st.rhs_rebinds;
  return st;
}

AdmmResult SolveSession::solve() {
  if (!warm_) solver_.reset();

  // Per-solve timing: attribute the one-time precompute to the first solve
  // only, and report exactly the factorization work done since the last
  // solve (refactorizations routed around the session included).
  const int model_refactorizations = binding_->model().refactorizations();
  const int refactorizations =
      model_refactorizations - model_refactorizations_seen_;
  model_refactorizations_seen_ = model_refactorizations;

  TimingBreakdown fresh;
  if (stats_.solves == 0) {
    fresh.precompute = binding_->model().precompute_seconds() +
                       binding_->bind_seconds();
  }
  fresh.refactorizations = refactorizations;
  solver_.timing() = fresh;

  const bool warm = warm_;
  AdmmResult result = solver_.solve();
  result.warm_started = warm;

  ++stats_.solves;
  if (warm) {
    ++stats_.warm_solves;
    if (refactorizations == 0) ++stats_.precompute_reuses;
  } else {
    ++stats_.cold_solves;
  }
  warm_ = true;
  return result;
}

}  // namespace dopf::core

#include "baseline/benchmark_admm.hpp"

#include <chrono>
#include <cmath>

#include "linalg/vector_ops.hpp"

namespace dopf::baseline {

using Clock = std::chrono::steady_clock;
using dopf::core::AdmmOptions;
using dopf::core::AdmmResult;
using dopf::core::IterationRecord;
using dopf::opf::Component;
using dopf::opf::DistributedProblem;

namespace {
double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
}  // namespace

BenchmarkAdmm::BenchmarkAdmm(const DistributedProblem& problem,
                             AdmmOptions options,
                             dopf::solver::BoxQpOptions qp_options)
    : problem_(&problem),
      options_(options),
      qp_options_(qp_options),
      rho_(options.rho) {
  const auto start = Clock::now();
  local_qps_.reserve(problem.components.size());
  warm_mu_.reserve(problem.components.size());
  for (const Component& comp : problem.components) {
    std::vector<double> lb(comp.num_vars()), ub(comp.num_vars());
    for (std::size_t j = 0; j < comp.num_vars(); ++j) {
      lb[j] = problem.lb[comp.global[j]];
      ub[j] = problem.ub[comp.global[j]];
    }
    local_qps_.emplace_back(comp.a, comp.b, std::move(lb), std::move(ub));
    warm_mu_.emplace_back(comp.num_rows(), 0.0);
    offsets_.push_back(total_local_);
    total_local_ += comp.num_vars();
  }
  timing_.precompute = seconds_since(start);

  x_.assign(problem.num_vars, 0.0);
  z_.assign(total_local_, 0.0);
  z_prev_.assign(total_local_, 0.0);
  lambda_.assign(total_local_, 0.0);
  y_scratch_.assign(total_local_, 0.0);
  reset();
}

void BenchmarkAdmm::reset() {
  rho_ = options_.rho;
  x_ = problem_->x0;
  std::fill(lambda_.begin(), lambda_.end(), 0.0);
  for (std::size_t s = 0; s < problem_->components.size(); ++s) {
    const Component& comp = problem_->components[s];
    double* zs = z_.data() + offsets_[s];
    for (std::size_t j = 0; j < comp.num_vars(); ++j) {
      zs[j] = problem_->x0[comp.global[j]];
    }
    std::fill(warm_mu_[s].begin(), warm_mu_[s].end(), 0.0);
  }
  z_prev_ = z_;
  component_seconds_.assign(problem_->components.size(), 0.0);
  newton_iters_ = dykstra_iters_ = 0;
}

void BenchmarkAdmm::global_update() {
  // Model (8) keeps bounds local, so the global step is the unclipped
  // minimizer xhat of (10).
  std::vector<double>& accum = x_;
  std::fill(accum.begin(), accum.end(), 0.0);
  for (std::size_t s = 0; s < problem_->components.size(); ++s) {
    const Component& comp = problem_->components[s];
    const double* zs = z_.data() + offsets_[s];
    const double* ls = lambda_.data() + offsets_[s];
    for (std::size_t j = 0; j < comp.num_vars(); ++j) {
      accum[comp.global[j]] += rho_ * zs[j] - ls[j];
    }
  }
  for (std::size_t i = 0; i < problem_->num_vars; ++i) {
    x_[i] = (accum[i] - problem_->c[i]) /
            (rho_ * problem_->copy_count[i]);
  }
}

void BenchmarkAdmm::local_update() {
  // (14) with bounds: x_s = argmin 1/2||x - (B_s x + lambda_s/rho)||^2
  // over { A_s x = b_s, lb_s <= x <= ub_s } — one QP solve per component.
  z_prev_.swap(z_);
  const bool timed = options_.record_component_times;
  for (std::size_t s = 0; s < problem_->components.size(); ++s) {
    const Component& comp = problem_->components[s];
    const std::size_t ns = comp.num_vars();
    double* y = y_scratch_.data() + offsets_[s];
    const double* ls = lambda_.data() + offsets_[s];
    double* zs = z_.data() + offsets_[s];

    const auto start = timed ? Clock::now() : Clock::time_point{};
    for (std::size_t j = 0; j < ns; ++j) {
      y[j] = x_[comp.global[j]] + ls[j] / rho_;
    }
    auto result = local_qps_[s].project({y, ns}, qp_options_, &warm_mu_[s]);
    newton_iters_ += result.newton_iterations;
    dykstra_iters_ += result.dykstra_iterations;
    std::copy(result.x.begin(), result.x.end(), zs);
    if (timed) component_seconds_[s] += seconds_since(start);
  }
}

void BenchmarkAdmm::dual_update() {
  for (std::size_t s = 0; s < problem_->components.size(); ++s) {
    const Component& comp = problem_->components[s];
    double* ls = lambda_.data() + offsets_[s];
    const double* zs = z_.data() + offsets_[s];
    for (std::size_t j = 0; j < comp.num_vars(); ++j) {
      ls[j] += rho_ * (x_[comp.global[j]] - zs[j]);
    }
  }
}

IterationRecord BenchmarkAdmm::compute_residuals(int iteration) const {
  IterationRecord rec;
  rec.iteration = iteration;
  rec.rho = rho_;
  double pres2 = 0.0, bx2 = 0.0, z2 = 0.0, dz2 = 0.0, l2 = 0.0;
  for (std::size_t s = 0; s < problem_->components.size(); ++s) {
    const Component& comp = problem_->components[s];
    const double* zs = z_.data() + offsets_[s];
    const double* zp = z_prev_.data() + offsets_[s];
    const double* ls = lambda_.data() + offsets_[s];
    for (std::size_t j = 0; j < comp.num_vars(); ++j) {
      const double bx = x_[comp.global[j]];
      const double d = bx - zs[j];
      pres2 += d * d;
      bx2 += bx * bx;
      z2 += zs[j] * zs[j];
      const double dz = zs[j] - zp[j];
      dz2 += dz * dz;
      l2 += ls[j] * ls[j];
    }
  }
  rec.primal_residual = std::sqrt(pres2);
  rec.dual_residual = rho_ * std::sqrt(dz2);
  rec.eps_primal = options_.eps_rel * std::sqrt(std::max(bx2, z2));
  rec.eps_dual = options_.eps_rel * std::sqrt(l2);
  return rec;
}

bool BenchmarkAdmm::termination_satisfied(const IterationRecord& rec) const {
  return rec.primal_residual <= rec.eps_primal &&
         rec.dual_residual <= rec.eps_dual;
}

AdmmResult BenchmarkAdmm::solve() {
  AdmmResult result;
  int recorded = 0;
  for (int t = 1; t <= options_.max_iterations; ++t) {
    auto tic = Clock::now();
    global_update();
    timing_.global_update += seconds_since(tic);

    tic = Clock::now();
    local_update();
    timing_.local_update += seconds_since(tic);

    tic = Clock::now();
    dual_update();
    timing_.dual_update += seconds_since(tic);
    ++timing_.iterations;

    result.iterations = t;
    if (t % options_.check_every == 0) {
      tic = Clock::now();
      const IterationRecord rec = compute_residuals(t);
      timing_.residuals += seconds_since(tic);
      if (++recorded % options_.record_every == 0) {
        result.history.push_back(rec);
      }
      result.primal_residual = rec.primal_residual;
      result.dual_residual = rec.dual_residual;
      if (termination_satisfied(rec)) {
        result.converged = true;
        result.status = dopf::core::AdmmStatus::kConverged;
        break;
      }
      if (!std::isfinite(rec.primal_residual) ||
          !std::isfinite(rec.dual_residual)) {
        result.status = dopf::core::AdmmStatus::kDiverged;
        break;
      }
      // Cooperative cancellation (signal/deadline/caller), polled at the
      // check cadence like the solver-free driver.
      if (options_.cancel && options_.cancel->cancelled()) {
        result.status = dopf::core::AdmmStatus::kCancelled;
        break;
      }
    }
  }
  result.x.assign(x_.begin(), x_.end());
  // The benchmark's global iterate is not bound-clipped; report the
  // objective of the bound-respecting local consensus instead, evaluated by
  // averaging copies (equivalently, clip x to the box for reporting).
  for (std::size_t i = 0; i < result.x.size(); ++i) {
    result.x[i] = std::min(std::max(result.x[i], problem_->lb[i]),
                           problem_->ub[i]);
  }
  result.objective = dopf::linalg::dot(problem_->c, result.x);
  result.final_rho = rho_;
  result.timing = timing_;
  result.component_seconds.assign(component_seconds_.begin(),
                                  component_seconds_.end());
  return result;
}

}  // namespace dopf::baseline

/// Reproduces Figure 2: primal and dual residual trajectories of
/// Algorithm 1 on the IEEE13 instance, run on the CPU path and the
/// (simulated) GPU path.
///
/// The paper demonstrates the two platforms converge identically; our SIMT
/// simulation preserves floating-point summation order, so the trajectories
/// are bit-identical — verified below, then printed for plotting.

#include <cmath>

#include "bench/common.hpp"
#include "core/admm.hpp"
#include "simt/simt_backend.hpp"

int main() {
  dopf::bench::header("Figure 2",
                      "primal/dual residuals per iteration, CPU vs GPU "
                      "(ieee13)");
  const auto inst = dopf::runtime::make_instance("ieee13");
  dopf::core::AdmmOptions opt;  // eps_rel = 1e-3, rho = 100
  opt.record_every = 1;

  dopf::core::SolverFreeAdmm cpu(inst.problem, opt);
  const auto rc = cpu.solve();

  dopf::core::SolverFreeAdmm gpu(inst.problem, opt);
  gpu.set_backend(std::make_unique<dopf::simt::SimtBackend>());
  const auto rg = gpu.solve();

  std::printf("CPU: %d iterations;  GPU: %d iterations\n", rc.iterations,
              rg.iterations);
  bool identical = rc.history.size() == rg.history.size();
  double max_rel_diff = 0.0;
  for (std::size_t k = 0; identical && k < rc.history.size(); ++k) {
    const double dp = std::abs(rc.history[k].primal_residual -
                               rg.history[k].primal_residual);
    const double dd = std::abs(rc.history[k].dual_residual -
                               rg.history[k].dual_residual);
    max_rel_diff = std::max(max_rel_diff, std::max(dp, dd));
  }
  std::printf("trajectory match: %s (max abs diff %.3e)\n",
              identical && max_rel_diff == 0.0 ? "bit-identical" : "DIFFERS",
              max_rel_diff);

  std::printf("\n%10s %14s %14s %14s %14s\n", "iteration", "pres(cpu)",
              "dres(cpu)", "eps_prim", "eps_dual");
  const std::size_t stride = std::max<std::size_t>(1, rc.history.size() / 25);
  for (std::size_t k = 0; k < rc.history.size(); k += stride) {
    const auto& r = rc.history[k];
    std::printf("%10d %14.6e %14.6e %14.6e %14.6e\n", r.iteration,
                r.primal_residual, r.dual_residual, r.eps_primal, r.eps_dual);
  }
  const auto& last = rc.history.back();
  std::printf("%10d %14.6e %14.6e %14.6e %14.6e  <- converged\n",
              last.iteration, last.primal_residual, last.dual_residual,
              last.eps_primal, last.eps_dual);
  return 0;
}

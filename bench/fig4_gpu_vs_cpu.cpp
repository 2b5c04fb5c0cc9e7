/// Reproduces Figure 4: total time to convergence, one GPU vs 16 CPUs
/// (log-scaled axis in the paper; we print the values and the ratio).
///
/// Expected shape: the GPU advantage grows with instance size, reaching
/// ~50x on the 8500-bus system in the paper.

#include "bench/common.hpp"
#include "core/admm.hpp"
#include "runtime/cluster.hpp"
#include "runtime/measure.hpp"
#include "simt/simt_backend.hpp"

int main() {
  dopf::bench::header("Figure 4", "total time: 1 GPU vs 16 CPUs");
  dopf::core::AdmmOptions opt;
  opt.check_every = 10;
  opt.max_iterations = 200000;

  std::printf("%-14s %10s %14s %14s %10s\n", "instance", "iters",
              "16 CPUs [s]", "1 GPU [s]", "speedup");
  for (const std::string& name : dopf::bench::instance_names()) {
    const auto inst = dopf::runtime::make_instance(name);

    // Iterations to convergence (identical on both platforms — Fig. 2).
    dopf::core::SolverFreeAdmm cpu(inst.problem, opt);
    const auto res = cpu.solve();

    // 16-CPU per-iteration time from measured component costs.
    const auto costs =
        dopf::runtime::measure_solver_free(inst.problem, opt, 30);
    const dopf::runtime::VirtualCluster cluster(16,
                                                dopf::runtime::CommModel{});
    const auto phase = cluster.price_local_update(costs.component_seconds,
                                                  costs.payload_vars);
    const double cpu_iter = phase.total() + costs.global_update_seconds +
                            costs.dual_update_seconds;

    // 1-GPU per-iteration time from the SIMT cost model.
    dopf::core::AdmmOptions gopt = opt;
    gopt.max_iterations = 30;
    gopt.check_every = 1000;
    dopf::core::SolverFreeAdmm gpu(inst.problem, gopt);
    gpu.set_backend(std::make_unique<dopf::simt::SimtBackend>());
    const auto t = gpu.solve().timing;
    const double gpu_iter =
        (t.global_update + t.local_update + t.dual_update) / t.iterations;

    const double cpu_total = cpu_iter * res.iterations;
    const double gpu_total = gpu_iter * res.iterations;
    std::printf("%-14s %10d %14.2f %14.2f %9.1fx\n", name.c_str(),
                res.iterations, cpu_total, gpu_total, cpu_total / gpu_total);
  }
  std::printf("\npaper: speedup grows with size, ~50x at ieee8500\n");
  return 0;
}

/// Reproduces Figure 3: average per-iteration time of the global, local and
/// dual updates (and their total) under three execution regimes:
///   (top)    multiple CPUs in parallel          — virtual cluster
///   (middle) multiple GPUs via MPI              — SIMT cost model + staging
///   (bottom) one GPU, threads-per-block sweep   — SIMT cost model
///
/// Expected shapes (paper): CPU local time falls with N while global/dual
/// stay flat; multi-GPU local time *rises* slightly with N (PCIe staging +
/// MPI); the thread sweep accelerates the local kernel, most on the
/// 8500-bus instance whose many small subproblems map one-per-block.

#include "bench/common.hpp"
#include "core/admm.hpp"
#include "runtime/cluster.hpp"
#include "runtime/measure.hpp"
#include "runtime/threaded_backend.hpp"
#include "simt/multi_device.hpp"
#include "simt/simt_backend.hpp"

namespace {

/// One row of simulated seconds per iteration, by phase, from the timing
/// a simulated backend reported to the driver.
void print_simulated_row(int label, const dopf::core::TimingBreakdown& t) {
  const double n = t.iterations;
  std::printf("  %6d %12.3e %12.3e %12.3e %12.3e\n", label,
              t.global_update / n, t.local_update / n, t.dual_update / n,
              (t.global_update + t.local_update + t.dual_update) / n);
}

/// A 30-iteration, check-free solve over `backend`'s simulated hardware.
template <class MakeBackend>
dopf::core::TimingBreakdown simulated_timing(
    const dopf::runtime::Instance& inst, dopf::core::AdmmOptions opt,
    MakeBackend make_backend) {
  opt.max_iterations = 30;
  opt.check_every = 1000;
  dopf::core::SolverFreeAdmm gpu(inst.problem, opt);
  gpu.set_backend(make_backend(gpu.packed()));
  return gpu.solve().timing;
}

void cpu_row(const dopf::runtime::Instance& inst,
             const dopf::core::AdmmOptions& opt) {
  const auto costs =
      dopf::runtime::measure_solver_free(inst.problem, opt, 30);
  std::printf("  multi-CPU:\n");
  std::printf("  %6s %12s %12s %12s %12s\n", "CPUs", "global", "local",
              "dual", "total");
  for (std::size_t cpus : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    const dopf::runtime::VirtualCluster cluster(cpus,
                                                dopf::runtime::CommModel{});
    const auto phase = cluster.price_local_update(costs.component_seconds,
                                                  costs.payload_vars);
    const double total = phase.total() + costs.global_update_seconds +
                         costs.dual_update_seconds;
    std::printf("  %6zu %12.3e %12.3e %12.3e %12.3e\n", cpus,
                costs.global_update_seconds, phase.total(),
                costs.dual_update_seconds, total);
  }
}

void threaded_cpu_row(const dopf::runtime::Instance& inst,
                      const dopf::core::AdmmOptions& opt) {
  // Measured (not modeled) shared-memory execution: the ThreadedBackend
  // runs the same packed kernels on this host's cores. Complements the
  // virtual-cluster projection above with real wall-clock makespans.
  std::printf("  multi-thread CPU (measured on this host):\n");
  std::printf("  %6s %12s %12s %12s %12s\n", "thr", "global", "local",
              "dual", "total");
  for (int threads : {1, 2, 4, 8}) {
    const auto costs = dopf::runtime::measure_solver_free(
        inst.problem, opt, 30,
        dopf::runtime::make_threaded_backend(threads));
    const double total = costs.global_update_seconds +
                         costs.local_update_wall_seconds +
                         costs.dual_update_seconds;
    std::printf("  %6d %12.3e %12.3e %12.3e %12.3e\n", threads,
                costs.global_update_seconds, costs.local_update_wall_seconds,
                costs.dual_update_seconds, total);
  }
}

void gpu_row(const dopf::runtime::Instance& inst,
             const dopf::core::AdmmOptions& opt) {
  // Functional multi-GPU execution (bit-identical iterates): the phase time
  // combines the slowest device's kernels with PCIe staging and MPI traffic
  // of the consensus payload.
  std::printf("  multi-GPU (MPI):\n");
  std::printf("  %6s %12s %12s %12s %12s\n", "GPUs", "global", "local",
              "dual", "total");
  for (int gpus : {1, 2, 4, 8}) {
    dopf::simt::MultiGpuOptions mo;
    mo.num_devices = static_cast<std::size_t>(gpus);
    print_simulated_row(
        gpus, simulated_timing(inst, opt, [&](const auto& pack) {
          return std::make_unique<dopf::simt::MultiDeviceBackend>(pack, mo);
        }));
  }
}

void thread_row(const dopf::runtime::Instance& inst,
                const dopf::core::AdmmOptions& opt) {
  std::printf("  single GPU, threads-per-block sweep:\n");
  std::printf("  %6s %12s %12s %12s %12s\n", "T", "global", "local", "dual",
              "total");
  for (int threads : {1, 2, 4, 8, 16, 32, 64}) {
    print_simulated_row(
        threads, simulated_timing(inst, opt, [&](const auto&) {
          return std::make_unique<dopf::simt::SimtBackend>(
              dopf::simt::Device(),
              dopf::simt::SimtBackend::Config{threads, 256});
        }));
  }
}

}  // namespace

int main() {
  dopf::bench::header("Figure 3",
                      "per-iteration update-time breakdown: CPUs / GPUs / "
                      "GPU threads");
  dopf::core::AdmmOptions opt;
  for (const std::string& name : dopf::bench::instance_names()) {
    const auto inst = dopf::runtime::make_instance(name);
    std::printf("\n%s (S = %zu)\n", name.c_str(),
                inst.problem.num_components());
    cpu_row(inst, opt);
    threaded_cpu_row(inst, opt);
    gpu_row(inst, opt);
    thread_row(inst, opt);
  }
  return 0;
}

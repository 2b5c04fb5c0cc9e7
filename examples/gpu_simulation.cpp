// Drive the SIMT-simulated GPU backend directly: run Algorithm 1 on the
// simulated device, inspect the kernel-time ledger, sweep the
// threads-per-block parameter, and verify the trajectory matches the CPU
// path bit for bit (the paper's Fig. 2 property).
//
// This is the entry point to study "what would this cost on a GPU" without
// owning one; swap DeviceSpec fields to model different hardware.

#include <cstdio>
#include <memory>

#include "core/admm.hpp"
#include "feeders/synthetic.hpp"
#include "opf/decompose.hpp"
#include "simt/simt_backend.hpp"

namespace {

/// Run Algorithm 1 through the one solver-free driver on a simulated
/// device; the result's timing holds the ledger's simulated seconds.
dopf::core::AdmmResult simulate(const dopf::opf::DistributedProblem& problem,
                                const dopf::core::AdmmOptions& opt,
                                dopf::simt::Device device, int threads) {
  dopf::core::SolverFreeAdmm admm(problem, opt);
  admm.set_backend(std::make_unique<dopf::simt::SimtBackend>(
      std::move(device), dopf::simt::SimtBackend::Config{threads}));
  return admm.solve();
}

double local_us_per_iter(const dopf::core::AdmmResult& r) {
  return r.timing.local_update * 1e6 / r.timing.iterations;
}

}  // namespace

int main() {
  const auto net =
      dopf::feeders::synthetic_feeder(dopf::feeders::ieee123_spec());
  const auto problem = dopf::opf::decompose(net);
  std::printf("%s\n", net.summary().c_str());

  dopf::core::AdmmOptions opt;  // paper defaults

  // --- CPU reference run.
  dopf::core::SolverFreeAdmm cpu(problem, opt);
  const auto rc = cpu.solve();
  std::printf("\nCPU  : %d iterations, objective %.6f\n", rc.iterations,
              rc.objective);

  // --- Simulated A100 run (the ledger is printed below).
  dopf::core::SolverFreeAdmm gpu(problem, opt);
  gpu.set_backend(std::make_unique<dopf::simt::SimtBackend>());
  const auto& device =
      static_cast<const dopf::simt::SimtBackend&>(gpu.backend()).device();
  const auto rg = gpu.solve();
  bool identical = rc.x.size() == rg.x.size();
  for (std::size_t i = 0; identical && i < rc.x.size(); ++i) {
    identical = rc.x[i] == rg.x[i];
  }
  std::printf("GPU  : %d iterations, objective %.6f (%s vs CPU)\n",
              rg.iterations, rg.objective,
              identical ? "bit-identical" : "DIFFERS");

  std::printf("\nsimulated kernel ledger (%s):\n", device.spec().name.c_str());
  for (const auto& [kernel, seconds] : device.ledger().by_kernel) {
    std::printf("  %-14s %10.4f ms total, %8.3f us/iter\n", kernel.c_str(),
                seconds * 1e3, seconds * 1e6 / rg.iterations);
  }
  std::printf("  %-14s %10.4f ms (h2d/d2h)\n", "transfers",
              device.ledger().transfer_seconds * 1e3);

  // --- Threads-per-block sweep (the paper's Fig. 3 bottom row).
  std::printf("\nthreads-per-block sweep (avg local-update kernel time):\n");
  dopf::core::AdmmOptions sweep = opt;
  sweep.max_iterations = 50;
  sweep.check_every = 1000;
  for (int threads : {1, 2, 4, 8, 16, 32, 64}) {
    std::printf("  T=%2d : %8.3f us/iter\n", threads,
                local_us_per_iter(
                    simulate(problem, sweep, dopf::simt::Device(), threads)));
  }

  // --- A slower, smaller device for comparison (e.g. an edge GPU).
  dopf::simt::DeviceSpec edge;
  edge.name = "sim-edge";
  edge.sm_count = 8;
  edge.clock_ghz = 0.9;
  edge.mem_bandwidth_gb_s = 100.0;
  const auto small = simulate(problem, opt, dopf::simt::Device(edge), 32);
  std::printf("\n%-10s local-update: %8.3f us/iter\n", edge.name.c_str(),
              local_us_per_iter(small));
  std::printf("%-10s local-update: %8.3f us/iter\n", device.spec().name.c_str(),
              local_us_per_iter(rg));
  return 0;
}

/// Cross-module integration: the SIMT-simulated GPU backend must handle the
/// multi-period stacked problem (including the large time-coupled storage
/// components) and remain bit-identical to the CPU path.

#include <gtest/gtest.h>

#include "core/admm.hpp"
#include "feeders/ieee13.hpp"
#include "multiperiod/multiperiod.hpp"
#include "simt/simt_backend.hpp"

namespace {

TEST(MultiPeriodGpuTest, GpuMatchesCpuOnStackedProblem) {
  const auto net = dopf::feeders::ieee13();
  dopf::multiperiod::MultiPeriodSpec spec;
  spec.periods = 6;
  spec.price = {0.4, 0.4, 1.0, 2.0, 2.0, 1.0};
  dopf::multiperiod::Storage batt;
  batt.name = "b";
  batt.bus = 4;
  batt.charge_max = 0.03;
  batt.discharge_max = 0.03;
  batt.energy_max = 0.2;
  batt.energy_init = 0.1;
  spec.storages.push_back(batt);
  const auto mp = dopf::multiperiod::build_multiperiod(net, spec);

  dopf::core::AdmmOptions opt;
  opt.max_iterations = 400;
  opt.check_every = 100;
  dopf::core::SolverFreeAdmm cpu(mp.problem, opt);
  dopf::core::SolverFreeAdmm gpu(mp.problem, opt);
  gpu.set_backend(std::make_unique<dopf::simt::SimtBackend>());

  const auto rc = cpu.solve();
  const auto rg = gpu.solve();
  ASSERT_EQ(rc.x.size(), rg.x.size());
  for (std::size_t i = 0; i < rc.x.size(); ++i) {
    ASSERT_EQ(rc.x[i], rg.x[i]) << "entry " << i;
  }
}

TEST(MultiPeriodGpuTest, StorageComponentDominatesKernelSpan) {
  // The storage component's n_s (~T + 6T) far exceeds the per-period
  // component sizes, so with one thread per block it must dominate the
  // local-update kernel span; more threads shrink exactly that bottleneck.
  const auto net = dopf::feeders::ieee13();
  dopf::multiperiod::MultiPeriodSpec spec;
  spec.periods = 12;
  dopf::multiperiod::Storage batt;
  batt.name = "b";
  batt.bus = 4;
  spec.storages.push_back(batt);
  const auto mp = dopf::multiperiod::build_multiperiod(net, spec);

  auto kernel_time = [&](int threads) {
    dopf::core::AdmmOptions opt;
    opt.max_iterations = 10;
    opt.check_every = 100;
    dopf::core::SolverFreeAdmm gpu(mp.problem, opt);
    gpu.set_backend(std::make_unique<dopf::simt::SimtBackend>(
        dopf::simt::Device(), dopf::simt::SimtBackend::Config{threads, 256}));
    const auto timing = gpu.solve().timing;
    return timing.local_update / timing.iterations;
  };
  const double t1 = kernel_time(1);
  const double t64 = kernel_time(64);
  EXPECT_GT(t1, 5.0 * t64);  // strong thread-level speedup on the big block
}

}  // namespace

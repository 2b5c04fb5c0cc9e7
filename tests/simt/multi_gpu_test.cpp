#include "simt/multi_device.hpp"

#include <gtest/gtest.h>

#include "core/admm.hpp"
#include "feeders/ieee13.hpp"
#include "feeders/synthetic.hpp"
#include "opf/decompose.hpp"
#include "multi_device_solve.hpp"

namespace dopf::simt {
namespace {

using dopf::core::AdmmOptions;

struct Fixture {
  dopf::network::Network net = dopf::feeders::ieee13();
  dopf::opf::DistributedProblem problem = dopf::opf::decompose(net);
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

AdmmOptions admm_options(int max_iters = 150) {
  AdmmOptions opt;
  opt.max_iterations = max_iters;
  opt.check_every = 50;
  return opt;
}

MultiGpuOptions make_options(std::size_t devices) {
  MultiGpuOptions mo;
  mo.num_devices = devices;
  return mo;
}

TEST(MultiGpuTest, BitIdenticalToSingleDeviceAndCpu) {
  AdmmOptions opt;
  opt.max_iterations = 150;
  opt.check_every = 50;
  dopf::core::SolverFreeAdmm cpu(fixture().problem, opt);
  const auto rc = cpu.solve();
  for (std::size_t devices : {1u, 2u, 4u, 7u}) {
    MultiDeviceSolve gpu(fixture().problem, admm_options(),
                         make_options(devices));
    const auto rg = gpu.solve();
    ASSERT_EQ(rc.x.size(), rg.x.size());
    for (std::size_t i = 0; i < rc.x.size(); ++i) {
      ASSERT_EQ(rc.x[i], rg.x[i]) << devices << " devices, entry " << i;
    }
  }
}

TEST(MultiGpuTest, DevicesExceedingComponentsMatchSingleDevice) {
  // More devices than components: the trailing devices own an empty
  // partition. They must neither crash nor perturb a single bit of the
  // trajectory relative to the one-device run.
  const auto& problem = fixture().problem;
  const std::size_t devices = problem.num_components() + 5;

  MultiDeviceSolve single(problem, admm_options(40), make_options(1));
  const auto rs = single.solve();
  MultiDeviceSolve over(problem, admm_options(40), make_options(devices));
  const auto ro = over.solve();

  EXPECT_EQ(over->num_devices(), devices);
  EXPECT_EQ(rs.iterations, ro.iterations);
  ASSERT_EQ(rs.history.size(), ro.history.size());
  for (std::size_t t = 0; t < rs.history.size(); ++t) {
    ASSERT_EQ(rs.history[t].primal_residual, ro.history[t].primal_residual)
        << "iteration " << t;
    ASSERT_EQ(rs.history[t].dual_residual, ro.history[t].dual_residual)
        << "iteration " << t;
  }
  ASSERT_EQ(rs.x.size(), ro.x.size());
  for (std::size_t i = 0; i < rs.x.size(); ++i) {
    ASSERT_EQ(rs.x[i], ro.x[i]) << "entry " << i;
  }
  // Empty-partition devices never launch the local-update kernel.
  const auto& last = over->device(devices - 1).ledger().by_kernel;
  EXPECT_EQ(last.count("local_update"), 0u);
}

TEST(MultiGpuTest, EveryDeviceDoesWork) {
  MultiDeviceSolve gpu(fixture().problem, admm_options(), make_options(4));
  gpu.solve();
  for (std::size_t d = 0; d < gpu->num_devices(); ++d) {
    EXPECT_GT(gpu->device(d).ledger().kernel_seconds, 0.0) << "device " << d;
  }
  // Only device 0 runs the global update.
  EXPECT_GT(gpu->device(0).ledger().by_kernel.count("global_update"), 0u);
  EXPECT_EQ(gpu->device(1).ledger().by_kernel.count("global_update"), 0u);
}

TEST(MultiGpuTest, LocalPhaseTimeRisesWithDeviceCount) {
  // The paper's Fig. 3 middle row: adding GPUs *increases* the local-update
  // phase time on small/medium instances because PCIe staging + MPI
  // dominate the shrinking kernels.
  double prev = 0.0;
  for (std::size_t devices : {1u, 2u, 4u, 8u}) {
    MultiDeviceSolve gpu(fixture().problem, admm_options(40),
                         make_options(devices));
    const auto res = gpu.solve();
    const double local = res.timing.local_update / res.timing.iterations;
    if (devices > 1u) {
      EXPECT_GT(local, prev) << devices << " devices";
    }
    prev = local;
  }
}

TEST(MultiGpuTest, KernelSpanAloneShrinksWithDevices) {
  // Without the communication terms, splitting components across devices
  // cannot slow the kernels themselves: compare per-device kernel ledgers.
  const auto net =
      dopf::feeders::synthetic_feeder(dopf::feeders::ieee8500_mini_spec());
  const auto problem = dopf::opf::decompose(net);
  auto kernel_span = [&](std::size_t devices) {
    auto mo = make_options(devices);
    // A tiny device (2 SMs) keeps the kernels work-dominated, so splitting
    // components across devices must shrink the per-device span.
    mo.device_spec.sm_count = 2;
    MultiDeviceSolve gpu(problem, admm_options(10), mo);
    gpu.solve();
    double worst = 0.0;
    for (std::size_t d = 0; d < gpu->num_devices(); ++d) {
      const auto& by = gpu->device(d).ledger().by_kernel;
      const auto it = by.find("local_update");
      if (it == by.end()) continue;
      // Subtract the fixed per-launch overhead (10 iterations x 1 launch),
      // which is device-count independent; what must shrink is the work.
      worst = std::max(
          worst, it->second - 10 * gpu->device(d).spec().kernel_launch_us *
                                  1e-6);
    }
    return worst;
  };
  EXPECT_LT(kernel_span(4), kernel_span(1));
}

TEST(MultiGpuTest, IterationAveragesDivideBySolveIterations) {
  // The driver's timing holds the backend's simulated phase totals over
  // exactly the iterations the solve ran.
  MultiDeviceSolve gpu(fixture().problem, admm_options(20), make_options(2));
  const auto res = gpu.solve();
  EXPECT_EQ(res.iterations, 20);
  EXPECT_EQ(res.timing.iterations, 20);
  const double per_iteration = (res.timing.global_update +
                                res.timing.local_update +
                                res.timing.dual_update) /
                               res.timing.iterations;
  EXPECT_GT(per_iteration, 0.0);
  EXPECT_EQ(res.timing.residuals, 0.0);  // unpriced reduction
}

}  // namespace
}  // namespace dopf::simt

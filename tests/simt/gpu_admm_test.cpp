/// The simulated single-GPU path: core::SolverFreeAdmm driving a
/// SimtBackend. Iterates match the CPU path bit for bit (the paper's Fig. 2
/// property) and the driver reports the ledger's simulated seconds.

#include "simt/simt_backend.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/admm.hpp"
#include "feeders/ieee13.hpp"
#include "opf/decompose.hpp"

namespace dopf::simt {
namespace {

using dopf::core::AdmmOptions;
using dopf::core::AdmmResult;
using dopf::core::AdmmStatus;
using dopf::core::PackedLocalSolvers;
using dopf::core::SolverFreeAdmm;
using dopf::opf::DistributedProblem;

struct Fixture {
  dopf::network::Network net = dopf::feeders::ieee13();
  DistributedProblem problem = dopf::opf::decompose(net);
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

/// A SIMT solve: the one solver-free driver over a SimtBackend it owns.
struct SimtSolve {
  SimtSolve(const AdmmOptions& opt, int threads_per_block = 32)
      : admm(fixture().problem, opt) {
    auto owned = std::make_unique<SimtBackend>(
        Device(), SimtBackend::Config{threads_per_block, 256});
    backend = owned.get();
    admm.set_backend(std::move(owned));
  }
  SolverFreeAdmm admm;
  SimtBackend* backend = nullptr;
};

TEST(DeviceProblemTest, ImageShapesMatchProblem) {
  const auto& p = fixture().problem;
  const auto solvers = dopf::core::LocalSolvers::precompute(p);
  const PackedLocalSolvers img = PackedLocalSolvers::build(p, solvers);
  EXPECT_EQ(img.num_components(), p.num_components());
  EXPECT_EQ(img.num_global(), p.num_vars);
  EXPECT_EQ(img.total_local(), p.total_local_vars());
  EXPECT_GT(img.bytes(), 0u);
  // Gather lists cover every z position exactly once.
  std::vector<int> seen(img.total_local(), 0);
  for (std::int64_t pos : img.gather_pos) ++seen[pos];
  for (int s : seen) EXPECT_EQ(s, 1);
  // Per-variable gather degree equals the copy count.
  for (std::size_t i = 0; i < img.num_global(); ++i) {
    EXPECT_EQ(img.gather_ptr[i + 1] - img.gather_ptr[i],
              p.copy_count[i]);
  }
}

TEST(GpuAdmmTest, TrajectoriesBitIdenticalToCpu) {
  // The paper's Fig. 2 claim: CPU and GPU runs have the same convergence
  // behaviour. Our SIMT simulation preserves summation order, so iterates
  // are bit-identical, not just close.
  AdmmOptions opt;
  opt.max_iterations = 200;
  opt.check_every = 1000;  // no early exit
  SolverFreeAdmm cpu(fixture().problem, opt);
  SimtSolve gpu(opt);
  const AdmmResult rc = cpu.solve();
  const AdmmResult rg = gpu.admm.solve();
  ASSERT_EQ(rc.x.size(), rg.x.size());
  for (std::size_t i = 0; i < rc.x.size(); ++i) {
    EXPECT_EQ(rc.x[i], rg.x[i]) << "global entry " << i;
  }
}

TEST(GpuAdmmTest, ResidualTrajectoriesMatchCpu) {
  AdmmOptions opt;
  opt.eps_rel = 1e-3;
  opt.max_iterations = 5000;
  SolverFreeAdmm cpu(fixture().problem, opt);
  SimtSolve gpu(opt);
  const AdmmResult rc = cpu.solve();
  const AdmmResult rg = gpu.admm.solve();
  EXPECT_EQ(rc.iterations, rg.iterations);
  // One driver: a converged SIMT run reports converged, like the CPU.
  EXPECT_EQ(rg.status, AdmmStatus::kConverged);
  EXPECT_EQ(rc.status, rg.status);
  ASSERT_EQ(rc.history.size(), rg.history.size());
  for (std::size_t k = 0; k < rc.history.size(); ++k) {
    EXPECT_EQ(rc.history[k].primal_residual, rg.history[k].primal_residual);
    EXPECT_EQ(rc.history[k].dual_residual, rg.history[k].dual_residual);
  }
}

TEST(GpuAdmmTest, ThreadCountDoesNotChangeResults) {
  AdmmOptions opt;
  opt.max_iterations = 100;
  opt.check_every = 1000;
  std::vector<double> reference;
  for (int threads : {1, 4, 32, 64}) {
    SimtSolve gpu(opt, threads);
    const AdmmResult r = gpu.admm.solve();
    if (reference.empty()) {
      reference = r.x;
    } else {
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(reference[i], r.x[i]) << "threads = " << threads;
      }
    }
  }
}

TEST(GpuAdmmTest, MoreThreadsReduceSimulatedLocalTime) {
  // Fig. 3 bottom row: the thread sweep accelerates the local update.
  AdmmOptions opt;
  opt.max_iterations = 50;
  opt.check_every = 1000;
  double prev = -1.0;
  for (int threads : {1, 8, 64}) {
    SimtSolve gpu(opt, threads);
    const AdmmResult r = gpu.admm.solve();
    const double t = r.timing.local_update / r.timing.iterations;
    if (prev > 0.0) EXPECT_LT(t, prev) << "threads = " << threads;
    prev = t;
  }
}

TEST(GpuAdmmTest, LedgerAccumulatesAllKernels) {
  AdmmOptions opt;
  opt.max_iterations = 10;
  SimtSolve gpu(opt);
  gpu.admm.solve();
  const auto& by = gpu.backend->device().ledger().by_kernel;
  EXPECT_GT(by.at("global_update"), 0.0);
  EXPECT_GT(by.at("local_update"), 0.0);
  EXPECT_GT(by.at("dual_update"), 0.0);
  EXPECT_GT(gpu.backend->device().ledger().transfer_seconds, 0.0);  // upload
}

TEST(GpuAdmmTest, KernelAveragesDivideByIterations) {
  // The driver's timing holds the ledger's simulated seconds, so the
  // per-iteration averages are the ledger totals over the iteration count.
  AdmmOptions opt;
  opt.max_iterations = 10;
  opt.check_every = 1000;
  SimtSolve gpu(opt);
  const AdmmResult r = gpu.admm.solve();
  const auto& by = gpu.backend->device().ledger().by_kernel;
  ASSERT_EQ(r.timing.iterations, 10);
  EXPECT_NEAR(r.timing.local_update / r.timing.iterations,
              by.at("local_update") / 10.0, 1e-15);
  EXPECT_EQ(r.timing.global_update, by.at("global_update"));
  EXPECT_EQ(r.timing.dual_update, by.at("dual_update"));
  EXPECT_GT(r.timing.total(), 0.0);
}

TEST(LocalKernelCostTest, SubsetCostsAreMonotone) {
  const auto& p = fixture().problem;
  const auto solvers = dopf::core::LocalSolvers::precompute(p);
  const PackedLocalSolvers img = PackedLocalSolvers::build(p, solvers);
  const Device dev;
  std::vector<std::size_t> all(p.num_components());
  for (std::size_t s = 0; s < all.size(); ++s) all[s] = s;
  const std::vector<std::size_t> half(all.begin(),
                                      all.begin() + all.size() / 2);
  const double t_all = local_update_kernel_seconds(dev, img, all, 16);
  const double t_half = local_update_kernel_seconds(dev, img, half, 16);
  EXPECT_GE(t_all, t_half);
  // More threads never slow the kernel down.
  EXPECT_LE(local_update_kernel_seconds(dev, img, all, 64),
            local_update_kernel_seconds(dev, img, all, 1));
}

}  // namespace
}  // namespace dopf::simt

/// Google-benchmark micro-benchmarks of the per-iteration kernels: the
/// closed-form local update (15) vs the benchmark's per-component QP solve,
/// plus the global (13)/(18) and dual (12) updates, and one whole
/// iteration per instance. These are the building-block costs behind
/// Figures 1, 3 and 4.

#include <benchmark/benchmark.h>

#include <string_view>

#include "baseline/benchmark_admm.hpp"
#include "core/admm.hpp"
#include "runtime/instances.hpp"
#include "runtime/threaded_backend.hpp"

namespace {

const dopf::runtime::Instance& instance13() {
  static const auto inst = dopf::runtime::make_instance("ieee13");
  return inst;
}

const dopf::runtime::Instance& instance123() {
  static const auto inst = dopf::runtime::make_instance("ieee123");
  return inst;
}

const dopf::runtime::Instance& pick(int which) {
  return which == 0 ? instance13() : instance123();
}

void BM_SolverFreeLocalUpdate(benchmark::State& state) {
  const auto& inst = pick(static_cast<int>(state.range(0)));
  dopf::core::SolverFreeAdmm admm(inst.problem, {});
  admm.global_update();
  for (auto _ : state) {
    admm.local_update();
  }
  state.SetItemsProcessed(state.iterations() *
                          inst.problem.num_components());
}
BENCHMARK(BM_SolverFreeLocalUpdate)->Arg(0)->Arg(1);

void BM_BenchmarkQpLocalUpdate(benchmark::State& state) {
  const auto& inst = pick(static_cast<int>(state.range(0)));
  dopf::baseline::BenchmarkAdmm admm(inst.problem, {});
  admm.global_update();
  for (auto _ : state) {
    admm.local_update();
  }
  state.SetItemsProcessed(state.iterations() *
                          inst.problem.num_components());
}
BENCHMARK(BM_BenchmarkQpLocalUpdate)->Arg(0)->Arg(1);

void BM_GlobalUpdate(benchmark::State& state) {
  const auto& inst = pick(static_cast<int>(state.range(0)));
  dopf::core::SolverFreeAdmm admm(inst.problem, {});
  for (auto _ : state) {
    admm.global_update();
  }
}
BENCHMARK(BM_GlobalUpdate)->Arg(0)->Arg(1);

void BM_DualUpdate(benchmark::State& state) {
  const auto& inst = pick(static_cast<int>(state.range(0)));
  dopf::core::SolverFreeAdmm admm(inst.problem, {});
  admm.global_update();
  admm.local_update();
  for (auto _ : state) {
    admm.dual_update();
  }
}
BENCHMARK(BM_DualUpdate)->Arg(0)->Arg(1);

void BM_Residuals(benchmark::State& state) {
  const auto& inst = pick(static_cast<int>(state.range(0)));
  dopf::core::SolverFreeAdmm admm(inst.problem, {});
  admm.global_update();
  admm.local_update();
  admm.dual_update();
  for (auto _ : state) {
    benchmark::DoNotOptimize(admm.compute_residuals(1));
  }
}
BENCHMARK(BM_Residuals)->Arg(0)->Arg(1);

const dopf::runtime::Instance& instance8500() {
  // Full 8500-bus instance (S = 25001): the local update is milliseconds of
  // work per call, so pool wakeup overhead is negligible and the threaded
  // rows reflect genuine scaling.
  static const auto inst = dopf::runtime::make_instance("ieee8500");
  return inst;
}

// Backend comparison on the largest local-update workload: serial packed
// backend (Arg = 0) vs the threaded backend with Arg worker threads. On a
// multi-core host the 8-thread row should show the >= 2x makespan win; on a
// 1-core host all rows collapse to serial speed (the iterates stay
// bit-identical either way).
void BM_BackendLocalUpdate(benchmark::State& state) {
  const auto& inst = instance8500();
  dopf::core::SolverFreeAdmm admm(inst.problem, {});
  const int threads = static_cast<int>(state.range(0));
  if (threads > 0) {
    admm.set_backend(dopf::runtime::make_threaded_backend(threads));
  }
  admm.global_update();
  for (auto _ : state) {
    admm.local_update();
  }
  state.SetLabel(threads > 0 ? "threaded" : "serial-packed");
  state.SetItemsProcessed(state.iterations() *
                          inst.problem.num_components());
}
BENCHMARK(BM_BackendLocalUpdate)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// One full check iteration through SolverFreeAdmm on the serial backend:
// global update, local update, then the fused dual+residual pass.
void BM_Iteration(benchmark::State& state, const char* name) {
  const auto& inst = std::string_view(name) == "ieee13"    ? instance13()
                     : std::string_view(name) == "ieee123" ? instance123()
                                                           : instance8500();
  dopf::core::SolverFreeAdmm admm(inst.problem, {});
  int t = 0;
  for (auto _ : state) {
    admm.global_update();
    admm.local_update();
    benchmark::DoNotOptimize(admm.dual_update_and_residuals(++t));
  }
}
BENCHMARK_CAPTURE(BM_Iteration, ieee13, "ieee13");
BENCHMARK_CAPTURE(BM_Iteration, ieee123, "ieee123");
BENCHMARK_CAPTURE(BM_Iteration, ieee8500, "ieee8500");

// Pre-refactor reference path: one AffineProjector object per component,
// staging buffers allocated per call. The packed serial backend
// (BM_BackendLocalUpdate/0) must be no slower than this.
void BM_ProjectorObjectLocalUpdate(benchmark::State& state) {
  const auto& inst = instance8500();
  const auto& problem = inst.problem;
  const auto solvers = dopf::core::LocalSolvers::precompute(problem);
  const double rho = dopf::core::AdmmOptions{}.rho;
  const std::vector<double>& x = problem.x0;
  std::vector<double> lambda(problem.total_local_vars(), 0.0);
  std::vector<double> z(problem.total_local_vars(), 0.0);
  for (auto _ : state) {
    std::size_t off = 0;
    for (std::size_t s = 0; s < problem.num_components(); ++s) {
      const auto& comp = problem.components[s];
      const std::size_t ns = comp.num_vars();
      std::vector<double> y(ns);
      for (std::size_t j = 0; j < ns; ++j) {
        y[j] = x[comp.global[j]] + lambda[off + j] / rho;
      }
      solvers.projectors[s].project_into(
          y, std::span<double>(z.data() + off, ns));
      off += ns;
    }
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(state.iterations() * problem.num_components());
}
BENCHMARK(BM_ProjectorObjectLocalUpdate);

void BM_Precompute(benchmark::State& state) {
  const auto& inst = pick(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dopf::core::LocalSolvers::precompute(inst.problem));
  }
}
BENCHMARK(BM_Precompute)->Arg(0)->Arg(1);

void BM_ModelBuild(benchmark::State& state) {
  const auto& inst = pick(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dopf::opf::build_model(inst.net));
  }
}
BENCHMARK(BM_ModelBuild)->Arg(0)->Arg(1);

void BM_Decompose(benchmark::State& state) {
  const auto& inst = pick(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dopf::opf::decompose(inst.net, inst.model));
  }
}
BENCHMARK(BM_Decompose)->Arg(0)->Arg(1);

}  // namespace

BENCHMARK_MAIN();

/// Ablations of the design choices DESIGN.md calls out (not in the paper's
/// evaluation, but cheap to quantify with the same harness):
///   1. leaf merging on/off       — component count & iteration count
///   2. residual balancing (rho adaptation, [29]) on/off
///   3. even-count vs load-balanced (LPT) partitioning of components
///   4. row-reduction preprocessing: rows dropped per instance
///   5. over-relaxation sweep     — iterations vs alpha

#include "bench/common.hpp"
#include "core/admm.hpp"
#include "runtime/cluster.hpp"
#include "runtime/measure.hpp"

int main() {
  dopf::bench::header("Ablations", "leaf merge / adaptive rho / partition / "
                                   "row reduction");
  dopf::core::AdmmOptions opt;
  opt.check_every = 10;
  opt.max_iterations = 200000;

  for (const std::string& name : dopf::bench::instance_names()) {
    std::printf("\n%s\n", name.c_str());

    // --- 1. leaf merging.
    for (bool merge : {true, false}) {
      dopf::opf::DecomposeOptions dopts;
      dopts.merge_leaves = merge;
      const auto inst = dopf::runtime::make_instance(name, dopts);
      dopf::core::SolverFreeAdmm admm(inst.problem, opt);
      const auto res = admm.solve();
      std::printf(
          "  leaf-merge %-3s : S = %6zu, iterations = %6d, serial local "
          "%.3e s/iter\n",
          merge ? "on" : "off", inst.problem.num_components(),
          res.iterations,
          res.timing.local_update / std::max(1, res.timing.iterations));
    }

    const auto inst = dopf::runtime::make_instance(name);

    // --- 2. residual balancing.
    for (bool adaptive : {false, true}) {
      dopf::core::AdmmOptions aopt = opt;
      aopt.adaptive_rho = adaptive;
      dopf::core::SolverFreeAdmm admm(inst.problem, aopt);
      const auto res = admm.solve();
      std::printf(
          "  adaptive-rho %-3s: iterations = %6d (final rho %.1f), "
          "converged = %d\n",
          adaptive ? "on" : "off", res.iterations, res.final_rho,
          res.converged);
    }

    // --- 3. partitioning rule at 16 ranks.
    {
      const auto costs =
          dopf::runtime::measure_solver_free(inst.problem, opt, 30);
      const auto even =
          dopf::runtime::block_partition(costs.component_seconds.size(), 16);
      const auto lpt =
          dopf::runtime::lpt_partition(costs.component_seconds, 16);
      std::printf(
          "  partition @16  : even-count makespan %.3e s, LPT makespan "
          "%.3e s (%.1f%% better)\n",
          dopf::runtime::makespan(even, costs.component_seconds),
          dopf::runtime::makespan(lpt, costs.component_seconds),
          100.0 * (1.0 - dopf::runtime::makespan(lpt,
                                                 costs.component_seconds) /
                             dopf::runtime::makespan(
                                 even, costs.component_seconds)));
    }

    // --- 5. over-relaxation sweep.
    for (double alpha : {1.0, 1.6, 1.8}) {
      dopf::core::AdmmOptions ropt = opt;
      ropt.relaxation = alpha;
      dopf::core::SolverFreeAdmm admm(inst.problem, ropt);
      const auto res = admm.solve();
      std::printf("  relaxation %.1f : iterations = %6d, converged = %d\n",
                  alpha, res.iterations, res.converged);
    }

    // --- 4. row reduction.
    {
      dopf::opf::DecomposeOptions raw;
      raw.row_reduce = false;
      const auto unreduced = dopf::runtime::make_instance(name, raw);
      std::size_t before = 0, after = 0;
      for (const auto& comp : unreduced.problem.components) {
        before += comp.num_rows();
      }
      for (const auto& comp : inst.problem.components) {
        after += comp.num_rows();
      }
      std::printf(
          "  row reduction  : %zu -> %zu constraint rows (%zu dependent "
          "rows dropped)\n",
          before, after, before - after);
    }
  }
  return 0;
}

/// End-to-end integration tests: feeder -> model -> decomposition -> both
/// ADMM variants -> reference optimum, on instances larger than unit-test
/// fixtures, plus topology-reconfiguration scenarios (the motivation for
/// component-wise decomposition in the paper's introduction).

#include <gtest/gtest.h>

#include <cmath>

#include "baseline/benchmark_admm.hpp"
#include "core/admm.hpp"
#include "feeders/feeder_io.hpp"
#include "feeders/synthetic.hpp"
#include "opf/stats.hpp"
#include "runtime/instances.hpp"
#include "simt/simt_backend.hpp"
#include "solver/reference.hpp"

namespace {

using dopf::core::AdmmOptions;
using dopf::core::AdmmResult;
using dopf::core::SolverFreeAdmm;
using dopf::runtime::Instance;
using dopf::runtime::make_instance;

TEST(EndToEndTest, Ieee123SolverFreeMatchesReference) {
  const Instance inst = make_instance("ieee123");
  AdmmOptions opt;
  opt.eps_rel = 1e-4;
  opt.max_iterations = 200000;
  opt.check_every = 10;
  SolverFreeAdmm admm(inst.problem, opt);
  const AdmmResult res = admm.solve();
  ASSERT_TRUE(res.converged);

  const auto ref = dopf::solver::reference_solve(inst.model);
  ASSERT_EQ(ref.status, dopf::solver::LpStatus::kOptimal);
  EXPECT_NEAR(res.objective, ref.objective,
              5e-3 * (1.0 + std::abs(ref.objective)));
  EXPECT_EQ(inst.model.bound_violation(res.x), 0.0);
}

TEST(EndToEndTest, Ieee123BothMethodsAgree) {
  const Instance inst = make_instance("ieee123");
  AdmmOptions opt;  // paper defaults: rho=100, eps 1e-3
  SolverFreeAdmm ours(inst.problem, opt);
  dopf::baseline::BenchmarkAdmm benchmark(inst.problem, opt);
  const AdmmResult ro = ours.solve();
  const AdmmResult rb = benchmark.solve();
  ASSERT_TRUE(ro.converged);
  ASSERT_TRUE(rb.converged);
  // Same tolerance, same model family: solutions within loose agreement.
  EXPECT_NEAR(ro.objective, rb.objective,
              0.1 * (1.0 + std::abs(ro.objective)));
  // Iteration counts in the same order of magnitude (paper Table V).
  EXPECT_LT(std::abs(std::log10(static_cast<double>(ro.iterations)) -
                     std::log10(static_cast<double>(rb.iterations))),
            1.0);
}

TEST(EndToEndTest, GpuPathMatchesCpuOnIeee123) {
  const Instance inst = make_instance("ieee123");
  AdmmOptions opt;
  opt.max_iterations = 300;
  opt.check_every = 50;
  SolverFreeAdmm cpu(inst.problem, opt);
  SolverFreeAdmm gpu(inst.problem, opt);
  gpu.set_backend(std::make_unique<dopf::simt::SimtBackend>());
  const AdmmResult rc = cpu.solve();
  const AdmmResult rg = gpu.solve();
  for (std::size_t i = 0; i < rc.x.size(); ++i) {
    ASSERT_EQ(rc.x[i], rg.x[i]);
  }
}

TEST(EndToEndTest, FeederFileRoundTripPreservesSolution) {
  // Save ieee13 to the text format, reload, and verify the OPF optimum is
  // unchanged — the persistence path is faithful end to end.
  const Instance inst = make_instance("ieee13");
  const std::string path = ::testing::TempDir() + "/e2e_ieee13.feeder";
  dopf::feeders::save_feeder(inst.net, path);
  const auto reloaded = dopf::feeders::load_feeder(path);
  const auto model2 = dopf::opf::build_model(reloaded);
  const auto ref1 = dopf::solver::reference_solve(inst.model);
  const auto ref2 = dopf::solver::reference_solve(model2);
  ASSERT_EQ(ref1.status, dopf::solver::LpStatus::kOptimal);
  ASSERT_EQ(ref2.status, dopf::solver::LpStatus::kOptimal);
  EXPECT_NEAR(ref1.objective, ref2.objective, 1e-9);
}

TEST(EndToEndTest, TopologyReconfigurationResolvesQuickly) {
  // The paper motivates component-wise decomposition with dynamically
  // changing topologies: drop a lateral (simulate a switch opening between
  // two ties) and re-solve. The decomposition adapts because components
  // are per-bus/per-line.
  dopf::feeders::SyntheticSpec spec = dopf::feeders::ieee123_spec();
  spec.num_extra_lines = 4;  // ties to toggle
  auto net = dopf::feeders::synthetic_feeder(spec);
  const auto problem_before = dopf::opf::decompose(net);

  AdmmOptions opt;
  SolverFreeAdmm before(problem_before, opt);
  const AdmmResult r1 = before.solve();
  ASSERT_TRUE(r1.converged);

  // "Open" one tie line by raising its impedance sky-high and dropping its
  // limits to ~zero flow (the modeling equivalent of a switch).
  auto& tie = net.line_mutable(static_cast<int>(net.num_lines()) - 1);
  tie.flow_limit = dopf::network::PerPhase<double>::uniform(1e-6);
  net.validate();
  const auto problem_after = dopf::opf::decompose(net);
  EXPECT_EQ(problem_after.num_components(),
            problem_before.num_components());
  SolverFreeAdmm after(problem_after, opt);
  const AdmmResult r2 = after.solve();
  ASSERT_TRUE(r2.converged);
}

TEST(EndToEndTest, SubproblemStatsScaleAsInPaperTable4) {
  // Larger feeders have *smaller* average subproblems when dominated by
  // single-phase laterals (paper: mean m_s 9.08 -> 3.44 going 13 -> 8500).
  const Instance i13 = make_instance("ieee13");
  const Instance mini = make_instance("ieee8500_mini");
  const auto s13 = dopf::opf::subproblem_stats(i13.problem);
  const auto s8500 = dopf::opf::subproblem_stats(mini.problem);
  EXPECT_GT(s13.rows.mean, s8500.rows.mean);
  EXPECT_GT(s13.cols.mean, s8500.cols.mean);
}

TEST(EndToEndTest, RowReductionAblationChangesNothingObservable) {
  // With and without leaf merging, the optimum is the same; only S changes.
  const Instance merged = make_instance("ieee13");
  dopf::opf::DecomposeOptions no_merge;
  no_merge.merge_leaves = false;
  const Instance flat = make_instance("ieee13", no_merge);
  EXPECT_NE(merged.problem.num_components(),
            flat.problem.num_components());
  AdmmOptions opt;
  opt.eps_rel = 1e-4;
  opt.max_iterations = 100000;
  SolverFreeAdmm a(merged.problem, opt);
  SolverFreeAdmm b(flat.problem, opt);
  const AdmmResult ra = a.solve();
  const AdmmResult rb = b.solve();
  ASSERT_TRUE(ra.converged);
  ASSERT_TRUE(rb.converged);
  EXPECT_NEAR(ra.objective, rb.objective,
              1e-2 * (1.0 + std::abs(ra.objective)));
}

}  // namespace

#include "core/solve_session.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "core/admm.hpp"
#include "core/scenario_binding.hpp"
#include "core/solve_model.hpp"
#include "feeders/ieee13.hpp"
#include "opf/decompose.hpp"
#include "opf/model.hpp"
#include "runtime/instances.hpp"
#include "runtime/scenario.hpp"

namespace dopf::core {
namespace {

using dopf::opf::DistributedProblem;

struct Fixture {
  dopf::network::Network net = dopf::feeders::ieee13();
  dopf::opf::OpfModel model = dopf::opf::build_model(net);
  DistributedProblem problem = dopf::opf::decompose(net, model);
};

const Fixture& fixture() {
  static const Fixture f;
  return f;
}

/// A load-only variant of the fixture: every constant-power load scaled by
/// `factor`, re-decomposed. Against the base model this must diff as
/// rhs/c/bounds-only — zero refactorizations.
DistributedProblem constant_load_scenario(double factor) {
  const dopf::runtime::Scenario sc{
      "scale",
      {{dopf::runtime::ScenarioOverride::Kind::kLoadScale, "constant",
        factor}}};
  const auto net_s = dopf::runtime::apply_scenario(fixture().net, sc);
  return dopf::opf::decompose(net_s);
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// --- Layer 1+2: the model/binding pack must be bit-identical to the
// single-shot wrapper's, or backends would diverge from golden traces.

TEST(SolveModelTest, PackBitwiseEquivalentToLegacyPath) {
  AdmmOptions opt;
  SolverFreeAdmm legacy(fixture().problem, opt);

  SolveModel model(fixture().problem, opt.projector);
  ScenarioBinding binding(model);
  const PackedLocalSolvers& pack = binding.pack();

  const PackedLocalSolvers& ref = legacy.packed();
  EXPECT_EQ(ref.comp_offset, pack.comp_offset);
  EXPECT_EQ(ref.sub_rows, pack.sub_rows);
  EXPECT_EQ(ref.const_rows, pack.const_rows);
  EXPECT_EQ(ref.comp_blocks, pack.comp_blocks);
  EXPECT_EQ(ref.comp_nvars, pack.comp_nvars);
  EXPECT_EQ(ref.global_idx, pack.global_idx);
  EXPECT_EQ(ref.gather_ptr, pack.gather_ptr);
  EXPECT_EQ(ref.gather_pos, pack.gather_pos);
  EXPECT_TRUE(bitwise_equal(ref.abar, pack.abar));
  EXPECT_TRUE(bitwise_equal(ref.bbar, pack.bbar));
  EXPECT_TRUE(bitwise_equal(ref.c, pack.c));
  EXPECT_TRUE(bitwise_equal(ref.lb, pack.lb));
  EXPECT_TRUE(bitwise_equal(ref.ub, pack.ub));
  EXPECT_TRUE(bitwise_equal(ref.x0, pack.x0));
  EXPECT_EQ(topology_fingerprint(ref), topology_fingerprint(pack));
  EXPECT_EQ(scenario_fingerprint(ref), scenario_fingerprint(pack));
}

// --- Load-only rebind: zero refactorizations, and the rhs re-derivation
// through the retained factor is bit-identical to a cold build.

TEST(ScenarioBindingTest, LoadOnlyRebindNeedsZeroRefactorizations) {
  AdmmOptions opt;
  SolveModel model(fixture().problem, opt.projector);
  ScenarioBinding binding(model);

  const auto scenario = constant_load_scenario(1.1);
  const RebindStats st = binding.rebind(scenario);

  EXPECT_EQ(st.refactorizations, 0);
  EXPECT_GT(st.rhs_rebinds, 0);
  EXPECT_EQ(model.refactorizations(), 0);
  EXPECT_EQ(st.unchanged + st.rhs_rebinds,
            static_cast<int>(fixture().problem.num_components()));

  // The rebound pack must match a cold build of the scenario problem bit
  // for bit: rebind_rhs replays exactly the assemble-time bbar arithmetic.
  SolveModel cold_model(scenario, opt.projector);
  ScenarioBinding cold(cold_model);
  EXPECT_TRUE(bitwise_equal(cold.pack().bbar, binding.pack().bbar));
  EXPECT_TRUE(bitwise_equal(cold.pack().c, binding.pack().c));
  EXPECT_TRUE(bitwise_equal(cold.pack().lb, binding.pack().lb));
  EXPECT_TRUE(bitwise_equal(cold.pack().ub, binding.pack().ub));
  EXPECT_TRUE(bitwise_equal(cold.pack().x0, binding.pack().x0));
  EXPECT_EQ(cold.scenario_fingerprint(), binding.scenario_fingerprint());
  // Topology untouched.
  EXPECT_EQ(cold.model_fingerprint(), binding.model_fingerprint());
}

TEST(ScenarioBindingTest, RebindBackToBaseRestoresScenarioFingerprint) {
  AdmmOptions opt;
  SolveModel model(fixture().problem, opt.projector);
  ScenarioBinding binding(model);
  const std::uint64_t base_fp = binding.scenario_fingerprint();

  binding.rebind(constant_load_scenario(0.9));
  EXPECT_NE(binding.scenario_fingerprint(), base_fp);
  binding.rebind(fixture().problem);
  EXPECT_EQ(binding.scenario_fingerprint(), base_fp);
  EXPECT_EQ(model.refactorizations(), 0);
}

// --- Topology edit: exactly the touched component is refactorized.

TEST(ScenarioBindingTest, TopologyEditRefactorizesExactlyThatComponent) {
  AdmmOptions opt;
  SolveModel model(fixture().problem, opt.projector);
  ScenarioBinding binding(model);

  // Scale one component's equality block (rows of A_s and b_s together):
  // same solution set, different bytes — a genuine A_s change.
  DistributedProblem edited = fixture().problem;
  const std::size_t target = edited.components.size() / 2;
  auto& comp = edited.components[target];
  dopf::linalg::Matrix a2 = comp.a;
  for (std::size_t r = 0; r < a2.rows(); ++r) {
    for (std::size_t cidx = 0; cidx < a2.cols(); ++cidx) {
      a2(r, cidx) *= 2.0;
    }
  }
  comp.a = a2;
  for (double& v : comp.b) v *= 2.0;

  const RebindStats st = binding.rebind(edited);
  EXPECT_EQ(st.refactorizations, 1);
  EXPECT_EQ(model.refactorizations(), 1);
  EXPECT_EQ(st.unchanged,
            static_cast<int>(edited.components.size()) - 1);
  EXPECT_EQ(st.rhs_rebinds, 0);

  // The refreshed component must equal a cold build of the edited problem.
  SolveModel cold_model(edited, opt.projector);
  ScenarioBinding cold(cold_model);
  EXPECT_TRUE(bitwise_equal(cold.pack().abar, binding.pack().abar));
  EXPECT_TRUE(bitwise_equal(cold.pack().bbar, binding.pack().bbar));
  EXPECT_EQ(cold.model_fingerprint(), binding.model_fingerprint());
}

/// Helper for the topology-edit tests: scale one component's equality
/// block (rows of A_s and b_s together) by `factor` — same solution set,
/// different bytes, a genuine A_s change.
DistributedProblem scale_component_block(DistributedProblem problem,
                                         std::size_t target, double factor) {
  auto& comp = problem.components[target];
  dopf::linalg::Matrix a2 = comp.a;
  for (std::size_t r = 0; r < a2.rows(); ++r) {
    for (std::size_t cidx = 0; cidx < a2.cols(); ++cidx) {
      a2(r, cidx) *= factor;
    }
  }
  comp.a = a2;
  for (double& v : comp.b) v *= factor;
  return problem;
}

// --- Streaming edge cases: revert-to-base, repeated edits, layout drift.

TEST(SolveSessionTest, RevertToBaseStepNeedsZeroRefactorizations) {
  // A stream step that returns to the base scenario (load-only excursion
  // and back) must flow entirely through cached factorizations.
  AdmmOptions opt;
  SolveModel model(fixture().problem, opt.projector);
  ScenarioBinding binding(model);
  SolveSession session(binding, opt);
  const std::uint64_t base_fp = binding.scenario_fingerprint();

  ASSERT_TRUE(session.solve().converged);
  session.rebind(constant_load_scenario(1.08));
  ASSERT_TRUE(session.solve().converged);
  const RebindStats revert = session.rebind(fixture().problem);
  EXPECT_EQ(revert.refactorizations, 0);
  EXPECT_GT(revert.rhs_rebinds, 0);  // the loads move back
  EXPECT_EQ(binding.scenario_fingerprint(), base_fp);

  const AdmmResult back = session.solve();
  EXPECT_TRUE(back.converged);
  EXPECT_TRUE(back.warm_started);
  EXPECT_EQ(session.stats().refactorizations, 0);
  EXPECT_EQ(model.refactorizations(), 0);
}

TEST(ScenarioBindingTest, ConsecutiveEditsToSameComponentRefactorizeTwice) {
  AdmmOptions opt;
  SolveModel model(fixture().problem, opt.projector);
  ScenarioBinding binding(model);
  const std::size_t target = fixture().problem.components.size() / 2;

  const auto once = scale_component_block(fixture().problem, target, 2.0);
  EXPECT_EQ(binding.rebind(once).refactorizations, 1);
  EXPECT_EQ(model.refactorizations(), 1);

  // Rebinding the SAME edited problem is a no-op for that component...
  const RebindStats same = binding.rebind(once);
  EXPECT_EQ(same.refactorizations, 0);
  EXPECT_EQ(same.rhs_rebinds, 0);
  EXPECT_EQ(model.refactorizations(), 1);

  // ...and a second, different edit to the same component pays exactly one
  // more refactorization: two edits, two refactorizations, never amortized
  // away and never double-counted.
  const auto twice = scale_component_block(fixture().problem, target, 3.0);
  EXPECT_EQ(binding.rebind(twice).refactorizations, 1);
  EXPECT_EQ(model.refactorizations(), 2);

  // The end state equals a cold build of the final problem.
  SolveModel cold_model(twice, opt.projector);
  ScenarioBinding cold(cold_model);
  EXPECT_TRUE(bitwise_equal(cold.pack().abar, binding.pack().abar));
  EXPECT_TRUE(bitwise_equal(cold.pack().bbar, binding.pack().bbar));
  EXPECT_EQ(cold.model_fingerprint(), binding.model_fingerprint());
}

// --- The model's factor store and the binding's cached fingerprint.

TEST(ScenarioBindingTest, CachedModelFingerprintSurvivesRhsRebinds) {
  SolveModel model(fixture().problem, {});
  ScenarioBinding binding(model);
  const std::uint64_t base = binding.model_fingerprint();
  EXPECT_EQ(base, topology_fingerprint(binding.pack()));
  ASSERT_GT(binding.rebind(constant_load_scenario(1.1)).rhs_rebinds, 0);
  EXPECT_EQ(binding.model_fingerprint(), base);
  EXPECT_EQ(binding.model_fingerprint(), topology_fingerprint(binding.pack()));
}

/// Drop the last equality row of `comp`: m_s shrinks, n_s stays.
void drop_last_row(dopf::opf::Component& comp) {
  dopf::linalg::Matrix a(comp.a.rows() - 1, comp.a.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) a(r, c) = comp.a(r, c);
  }
  comp.a = a;
  comp.b.pop_back();
}

TEST(ScenarioBindingTest, RefreshThatDropsARowMovesLaterFactors) {
  SolveModel model(fixture().problem, {});
  ScenarioBinding binding(model);
  // Every factor after the edited one moves in the model's store.
  DistributedProblem edited = fixture().problem;
  const std::size_t target = edited.components.size() / 2;
  ASSERT_GT(edited.components[target].a.rows(), 1u);
  drop_last_row(edited.components[target]);
  ASSERT_EQ(binding.rebind(edited).refactorizations, 1);

  // New loads on the edited topology rebind every component's rhs through
  // its factor, the moved ones included.
  DistributedProblem loads = constant_load_scenario(1.1);
  drop_last_row(loads.components[target]);
  const RebindStats st = binding.rebind(loads);
  EXPECT_EQ(st.refactorizations, 0);
  EXPECT_GT(st.rhs_rebinds, 0);

  SolveModel cold_model(loads, {});
  ScenarioBinding cold(cold_model);
  EXPECT_TRUE(bitwise_equal(cold.pack().abar, binding.pack().abar));
  EXPECT_TRUE(bitwise_equal(cold.pack().bbar, binding.pack().bbar));
  EXPECT_EQ(cold.model_fingerprint(), binding.model_fingerprint());
  EXPECT_EQ(binding.model_fingerprint(), topology_fingerprint(binding.pack()));
}

TEST(ScenarioBindingTest, FailedRefreshLeavesTheFingerprintOfTheBoundPack) {
  SolveModel model(fixture().problem, {});
  ScenarioBinding binding(model);
  const std::uint64_t base_fp = binding.model_fingerprint();
  // The first edited component refreshes; a later one has two equal rows,
  // so its Gram matrix does not factor and the rebind throws.
  DistributedProblem edited = fixture().problem;
  drop_last_row(edited.components[0]);
  std::size_t bad = 1;
  while (edited.components[bad].a.rows() < 2) ++bad;
  auto& a = edited.components[bad].a;
  for (std::size_t c = 0; c < a.cols(); ++c) a(1, c) = a(0, c);
  EXPECT_THROW(binding.rebind(edited), dopf::opf::ConditioningError);
  EXPECT_NE(binding.model_fingerprint(), base_fp);
  EXPECT_EQ(binding.model_fingerprint(), topology_fingerprint(binding.pack()));
}

TEST(ScenarioBindingTest, ChangedComponentDimensionsAreRejected) {
  AdmmOptions opt;
  SolveModel model(fixture().problem, opt.projector);
  ScenarioBinding binding(model);

  // Dropping a component is a layout change, not a scenario.
  DistributedProblem fewer = fixture().problem;
  fewer.components.pop_back();
  EXPECT_THROW(binding.rebind(fewer), std::invalid_argument);

  // So is a component that covers a different global variable set.
  DistributedProblem moved = fixture().problem;
  ASSERT_GE(moved.components.front().global.size(), 2u);
  std::swap(moved.components.front().global[0],
            moved.components.front().global[1]);
  EXPECT_THROW(binding.rebind(moved), std::invalid_argument);

  // The rejected rebinds must not have corrupted the binding: the base
  // problem still rebinds as a no-op and solves.
  const RebindStats st = binding.rebind(fixture().problem);
  EXPECT_EQ(st.refactorizations, 0);
  EXPECT_EQ(st.rhs_rebinds, 0);
  SolveSession session(binding, opt);
  EXPECT_TRUE(session.solve().converged);
}

TEST(SolveModelTest, RhsShorterThanItsBlockIsRejected) {
  // Construction: one component's b lacks its last entry.
  DistributedProblem short_b = fixture().problem;
  short_b.components[0].b.pop_back();
  EXPECT_THROW(SolveModel(short_b, {}), std::invalid_argument);

  // Refresh: an edited block whose b is a row short, directly and through a
  // rebind, leaves the model and the binding as they were.
  SolveModel model(fixture().problem, {});
  ScenarioBinding binding(model);
  const std::vector<double> abar = binding.pack().abar;
  DistributedProblem edited = fixture().problem;
  const std::size_t target = edited.components.size() / 2;
  edited.components[target].a(0, 0) *= 2.0;
  edited.components[target].b.pop_back();
  EXPECT_THROW(model.refresh_component(target, edited.components[target]),
               std::invalid_argument);
  EXPECT_THROW(binding.rebind(edited), std::invalid_argument);
  EXPECT_EQ(model.refactorizations(), 0);
  EXPECT_TRUE(bitwise_equal(binding.pack().abar, abar));
  EXPECT_EQ(binding.model_fingerprint(), topology_fingerprint(binding.pack()));
}

TEST(ScenarioBindingTest, DifferentLayoutIsRejected) {
  AdmmOptions opt;
  SolveModel model(fixture().problem, opt.projector);
  ScenarioBinding binding(model);

  // Decomposing without leaf merging yields a different component layout —
  // that is a new model, not a scenario.
  dopf::opf::DecomposeOptions dec;
  dec.merge_leaves = false;
  const auto other = dopf::opf::decompose(fixture().net, fixture().model, dec);
  EXPECT_THROW(binding.rebind(other), std::invalid_argument);
}

// --- Layer 3: warm starts converge to the same answer in fewer
// iterations, and the precompute is reused (counter-asserted).

TEST(SolveSessionTest, WarmSolveMatchesColdSolutionOnIeee13) {
  AdmmOptions opt;
  SolveModel model(fixture().problem, opt.projector);
  ScenarioBinding binding(model);
  SolveSession session(binding, opt);

  const AdmmResult base = session.solve();
  ASSERT_TRUE(base.converged);
  EXPECT_FALSE(base.warm_started);

  const auto scenario = constant_load_scenario(1.05);
  const RebindStats st = session.rebind(scenario);
  EXPECT_EQ(st.refactorizations, 0);
  const AdmmResult warm = session.solve();
  ASSERT_TRUE(warm.converged);
  EXPECT_TRUE(warm.warm_started);

  // Cold reference for the same scenario through a fresh session.
  SolveModel cold_model(scenario, opt.projector);
  ScenarioBinding cold_binding(cold_model);
  SolveSession cold_session(cold_binding, opt);
  const AdmmResult cold = cold_session.solve();
  ASSERT_TRUE(cold.converged);
  EXPECT_FALSE(cold.warm_started);

  // Same solution within the dopf_verify --reference tolerance.
  const double tol = 5e-2;
  EXPECT_NEAR(warm.objective, cold.objective,
              tol * (1.0 + std::abs(cold.objective)));
  ASSERT_EQ(warm.x.size(), cold.x.size());
  for (std::size_t i = 0; i < warm.x.size(); ++i) {
    EXPECT_NEAR(warm.x[i], cold.x[i], tol) << "x[" << i << "]";
  }
  // Warm start helps on a 5% perturbation.
  EXPECT_LT(warm.iterations, cold.iterations);
}

TEST(SolveSessionTest, CountersTrackReuseAcrossSweep) {
  AdmmOptions opt;
  SolveModel model(fixture().problem, opt.projector);
  ScenarioBinding binding(model);
  SolveSession session(binding, opt);

  ASSERT_TRUE(session.solve().converged);
  for (double f : {0.95, 1.0, 1.05}) {
    session.rebind(constant_load_scenario(f));
    const AdmmResult res = session.solve();
    ASSERT_TRUE(res.converged);
    EXPECT_TRUE(res.warm_started);
    // Scenario solves repay no precompute and report the reuse.
    EXPECT_EQ(res.timing.precompute, 0.0);
    EXPECT_EQ(res.timing.refactorizations, 0);
    EXPECT_GT(res.timing.precompute_reuse_count, 0);
  }
  const SessionStats& st = session.stats();
  EXPECT_EQ(st.solves, 4);
  EXPECT_EQ(st.cold_solves, 1);
  EXPECT_EQ(st.warm_solves, 3);
  EXPECT_EQ(st.precompute_reuses, 3);
  EXPECT_EQ(st.refactorizations, 0);
  EXPECT_GT(st.rhs_rebinds, 0);
}

// --- Satellite: the single-shot wrapper no longer double-counts the
// precompute when run twice.

TEST(SolverFreeAdmmTest, SecondRunDoesNotDoubleCountPrecompute) {
  AdmmOptions opt;
  SolverFreeAdmm admm(fixture().problem, opt);
  const AdmmResult first = admm.solve();
  ASSERT_TRUE(first.converged);
  EXPECT_GE(first.timing.precompute, 0.0);
  EXPECT_EQ(first.timing.precompute_reuse_count, 0);

  admm.reset();
  const AdmmResult second = admm.solve();
  ASSERT_TRUE(second.converged);
  EXPECT_EQ(second.timing.precompute, 0.0);
  EXPECT_EQ(second.timing.precompute_reuse_count, 1);
}

}  // namespace
}  // namespace dopf::core

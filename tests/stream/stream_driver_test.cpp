/// StreamDriver step semantics that the scenario sweep relies on: a sweep
/// run as a profile takes the trajectory of a hand-written session loop,
/// cold comparisons run only on warm-started steps and are totalled over
/// those same steps, and the session backend's fault report comes out
/// through StreamResult.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario_binding.hpp"
#include "core/solve_model.hpp"
#include "core/solve_session.hpp"
#include "feeders/ieee13.hpp"
#include "opf/decompose.hpp"
#include "opf/model.hpp"
#include "runtime/fault.hpp"
#include "runtime/scenario.hpp"
#include "simt/backend_builder.hpp"
#include "stream/driver.hpp"
#include "stream/profile.hpp"

namespace dopf::stream {
namespace {

using dopf::runtime::ScenarioOverride;

StreamOptions fast_options() {
  StreamOptions sopt;
  sopt.admm.eps_rel = 1e-2;
  sopt.admm.check_every = 10;
  sopt.preflight = "off";
  return sopt;
}

std::vector<dopf::runtime::Scenario> three_scenarios() {
  return {{"light", {{ScenarioOverride::Kind::kLoadScale, "constant", 0.9}}},
          {"heavy", {{ScenarioOverride::Kind::kLoadScale, "constant", 1.1}}},
          {"pricey", {{ScenarioOverride::Kind::kGenCostScale, "*", 1.3}}}};
}

TEST(StreamDriverTest, SweepProfileMatchesASessionLoopOverScenarios) {
  const auto net = dopf::feeders::ieee13();
  const auto scenarios = three_scenarios();
  const StreamOptions sopt = fast_options();
  const StreamResult result =
      StreamDriver(net, profile_from_scenarios(scenarios), sopt).run();

  // The session loop a sweep stands for: solve the base, then rebind each
  // scenario's network into the same session and solve it warm.
  dopf::core::SolveModel model(
      dopf::opf::decompose(net, dopf::opf::build_model(net)),
      sopt.admm.projector);
  dopf::core::ScenarioBinding binding(model);
  dopf::core::SolveSession session(binding, sopt.admm);
  std::vector<dopf::core::AdmmResult> expected{session.solve()};
  for (const auto& sc : scenarios) {
    const auto net_s = dopf::runtime::apply_scenario(net, sc);
    session.rebind(
        dopf::opf::decompose(net_s, dopf::opf::build_model(net_s)));
    expected.push_back(session.solve());
  }

  ASSERT_EQ(result.steps.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    const auto& rec = result.steps[k];
    EXPECT_EQ(rec.iterations, expected[k].iterations) << "step " << k;
    EXPECT_EQ(rec.objective, expected[k].objective) << "step " << k;
    EXPECT_EQ(rec.warm_started, k > 0) << "step " << k;
    EXPECT_EQ(rec.precompute_reuse_count,
              expected[k].timing.precompute_reuse_count)
        << "step " << k;
  }
  EXPECT_EQ(result.session.solves, session.stats().solves);
  EXPECT_EQ(result.session.precompute_reuses,
            session.stats().precompute_reuses);
  EXPECT_EQ(result.session.rhs_rebinds, session.stats().rhs_rebinds);
  EXPECT_EQ(result.refactorizations, 0);
}

TEST(StreamDriverTest, ColdComparisonOnlyOnWarmStartedSteps) {
  // Step 2 switches a line and, under reset_on_switch, is solved cold;
  // step 3 holds step 2's block and is warm again.
  std::istringstream text(
      "profile coldcheck\nsteps 4\n"
      "step 1\n  load constant scale 0.95\n"
      "step 2\n  load constant scale 1.05\n"
      "  switch 632-645 impedance-scale 1.5\n");
  const StreamProfile profile = parse_profile(text);
  StreamOptions sopt = fast_options();
  sopt.cold_compare = true;
  sopt.reset_on_switch = true;
  const StreamResult result =
      StreamDriver(dopf::feeders::ieee13(), profile, sopt).run();

  ASSERT_EQ(result.steps.size(), 4u);
  long long warm = 0, cold = 0;
  for (const auto& rec : result.steps) {
    const bool warm_step = rec.step == 1 || rec.step == 3;
    EXPECT_EQ(rec.warm_started, warm_step) << "step " << rec.step;
    if (warm_step) {
      EXPECT_GT(rec.cold_iterations, 0) << "step " << rec.step;
      warm += rec.iterations;
      cold += rec.cold_iterations;
    } else {
      EXPECT_EQ(rec.cold_iterations, -1) << "step " << rec.step;
    }
  }
  EXPECT_EQ(result.warm_iterations, warm);
  EXPECT_EQ(result.cold_iterations, cold);
  EXPECT_EQ(result.session.cold_solves, 2);
  EXPECT_TRUE(result.all_converged);
}

TEST(StreamDriverTest, SessionBackendFaultReportComesOut) {
  const auto net = dopf::feeders::ieee13();
  const auto profile = profile_from_scenarios(three_scenarios());
  const StreamResult clean = StreamDriver(net, profile, fast_options()).run();
  EXPECT_TRUE(clean.fault_report.empty()) << clean.fault_report;

  StreamOptions sopt = fast_options();
  sopt.make_backend = [](const dopf::core::PackedLocalSolvers& pack) {
    dopf::simt::BackendSpec spec;
    spec.name = "multigpu";
    spec.devices = 3;
    spec.faults = dopf::runtime::FaultPlan::parse("kill:device=1,iter=37");
    return dopf::simt::make_backend(spec, pack);
  };
  const StreamResult faulted = StreamDriver(net, profile, sopt).run();
  EXPECT_NE(faulted.fault_report.find("fault recovery: 1 failover(s)"),
            std::string::npos)
      << faulted.fault_report;
  // The failover replays from the restart point: same steps as serial.
  ASSERT_EQ(faulted.steps.size(), clean.steps.size());
  for (std::size_t k = 0; k < clean.steps.size(); ++k) {
    EXPECT_EQ(record_line(faulted.steps[k]), record_line(clean.steps[k]));
  }
}

}  // namespace
}  // namespace dopf::stream

/// Streaming profile parsing + per-step network materialization: the input
/// format behind `dopf_solve --stream` (see src/stream/profile.hpp).

#include "stream/profile.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "feeders/ieee13.hpp"
#include "network/phase.hpp"
#include "runtime/scenario.hpp"

namespace dopf::stream {
namespace {

StreamProfile parse(const std::string& text) {
  std::istringstream in(text);
  return parse_profile(in);
}

void expect_profile_error(const std::string& text,
                          const std::string& fragment) {
  try {
    parse(text);
    FAIL() << "expected ProfileError for:\n" << text;
  } catch (const ProfileError& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << e.what();
  }
}

TEST(StreamProfileParserTest, ParsesDirectivesBlocksAndComments) {
  const auto p = parse(
      "# a day\n"
      "profile day\n"
      "steps 288\n"
      "dt 300\n"
      "step 0\n"
      "  load constant scale 0.95  # valley\n"
      "step 96\n"
      "  load * scale 1.10\n"
      "  gen gen-mid cost-scale 1.2\n"
      "  switch 632-645 impedance-scale 1.5\n"
      "step 192\n"
      "  switch 632-645 open\n"
      "  switch 645-646 close\n");
  EXPECT_EQ(p.name, "day");
  EXPECT_EQ(p.num_steps, 288);
  EXPECT_DOUBLE_EQ(p.dt_seconds, 300.0);
  ASSERT_EQ(p.blocks.size(), 3u);
  EXPECT_EQ(p.blocks[0].step, 0);
  ASSERT_EQ(p.blocks[0].overrides.size(), 1u);
  EXPECT_EQ(p.blocks[0].overrides[0].kind,
            dopf::runtime::ScenarioOverride::Kind::kLoadScale);
  ASSERT_EQ(p.blocks[1].overrides.size(), 2u);
  ASSERT_EQ(p.blocks[1].switches.size(), 1u);
  EXPECT_EQ(p.blocks[1].switches[0].kind, SwitchEvent::Kind::kImpedanceScale);
  EXPECT_DOUBLE_EQ(p.blocks[1].switches[0].factor, 1.5);
  ASSERT_EQ(p.blocks[2].switches.size(), 2u);
  EXPECT_EQ(p.blocks[2].switches[0].kind, SwitchEvent::Kind::kOpen);
  EXPECT_EQ(p.blocks[2].switches[1].kind, SwitchEvent::Kind::kClose);
}

TEST(StreamProfileParserTest, BlockForImplementsPiecewiseHold) {
  const auto p = parse(
      "steps 10\n"
      "step 2\n  load constant scale 0.9\n"
      "step 5\n  load constant scale 1.1\n");
  EXPECT_EQ(p.block_for(0), nullptr);  // base network before first block
  EXPECT_EQ(p.block_for(1), nullptr);
  ASSERT_NE(p.block_for(2), nullptr);
  EXPECT_EQ(p.block_for(2)->step, 2);
  EXPECT_EQ(p.block_for(4)->step, 2);  // held
  EXPECT_EQ(p.block_for(5)->step, 5);
  EXPECT_EQ(p.block_for(9)->step, 5);  // held to the end
}

TEST(StreamProfileParserTest, RejectsMalformedInputWithLineNumbers) {
  expect_profile_error("", "missing 'steps");
  expect_profile_error("steps nope\n", "line 1");
  expect_profile_error("steps 0\n", "positive integer");
  expect_profile_error("step 0\n", "'step' before 'steps");
  expect_profile_error("steps 4\nstep 7\n", "out of range");
  expect_profile_error("steps 4\nstep 2\nstep 1\n", "not increasing");
  expect_profile_error("steps 4\nstep 2\nstep 2\n", "not increasing");
  expect_profile_error("steps 4\nload constant scale 1\n",
                       "outside a 'step' block");
  expect_profile_error("steps 4\nswitch l1 open\n", "outside a 'step' block");
  expect_profile_error("steps 4\nstep 0\nswitch l1 explode\n",
                       "unknown switch action");
  expect_profile_error("steps 4\nstep 0\nswitch l1 impedance-scale -2\n",
                       "must be positive");
  expect_profile_error("steps 4\nstep 0\nswitch l1 open 3\n", "expected:");
  expect_profile_error("steps 4\nfrobnicate\n", "unknown directive");
  expect_profile_error("steps 4\nsteps 5\n", "duplicate 'steps'");
}

TEST(StreamProfileParserTest, RejectsDuplicateTargetsWithBothLineNumbers) {
  // Duplicate load override inside one block (reuses the scenario-grammar
  // duplicate rejection, so both line numbers are named).
  try {
    parse(
        "steps 4\n"
        "step 0\n"
        "  load constant scale 0.9\n"
        "  load constant scale 1.2\n");
    FAIL() << "expected ProfileError";
  } catch (const ProfileError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate load override"), std::string::npos)
        << what;
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  }
  // Duplicate switch event for the same line inside one block.
  try {
    parse(
        "steps 4\n"
        "step 1\n"
        "  switch l1 open\n"
        "  switch l1 impedance-scale 2\n");
    FAIL() << "expected ProfileError";
  } catch (const ProfileError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate switch event"), std::string::npos)
        << what;
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
  }
  // The same target in DIFFERENT blocks is the normal time-series case.
  EXPECT_NO_THROW(parse(
      "steps 4\n"
      "step 0\n  load constant scale 0.9\n  switch l1 open\n"
      "step 2\n  load constant scale 1.1\n  switch l1 close\n"));
}

TEST(StreamNetworkAtStepTest, AppliesOverridesAbsoluteAgainstBase) {
  const auto net = dopf::feeders::ieee13();
  const auto p = parse(
      "steps 6\n"
      "step 1\n  load constant scale 2.0\n"
      "step 3\n  load constant scale 1.5\n");

  const auto at0 = network_at_step(net, p, 0);
  const auto at2 = network_at_step(net, p, 2);   // holds step 1's block
  const auto at4 = network_at_step(net, p, 4);   // step 3's block, NOT 2*1.5
  for (std::size_t i = 0; i < net.num_loads(); ++i) {
    const auto& base = net.load(static_cast<int>(i));
    const double f = dopf::runtime::is_constant_power(base) ? 1.0 : 0.0;
    for (auto ph : {dopf::network::Phase::kA, dopf::network::Phase::kB,
                    dopf::network::Phase::kC}) {
      EXPECT_DOUBLE_EQ(at0.load(static_cast<int>(i)).p_ref[ph],
                       base.p_ref[ph]);
      EXPECT_DOUBLE_EQ(at2.load(static_cast<int>(i)).p_ref[ph],
                       base.p_ref[ph] * (f > 0 ? 2.0 : 1.0));
      EXPECT_DOUBLE_EQ(at4.load(static_cast<int>(i)).p_ref[ph],
                       base.p_ref[ph] * (f > 0 ? 1.5 : 1.0));
    }
  }
}

TEST(StreamNetworkAtStepTest, SwitchEventsEditImpedanceAndLimits) {
  const auto net = dopf::feeders::ieee13();
  int target = -1;
  for (const auto& line : net.lines()) {
    if (line.name == "632-645") target = line.id;
  }
  ASSERT_GE(target, 0);

  const auto p = parse(
      "steps 6\n"
      "step 1\n  switch 632-645 impedance-scale 2.0\n"
      "step 3\n  switch 632-645 open\n"
      "step 5\n  switch 632-645 close\n");

  const auto& base_line = net.line(target);
  const auto scaled = network_at_step(net, p, 1);
  const auto opened = network_at_step(net, p, 4);  // holds step 3's block
  const auto closed = network_at_step(net, p, 5);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(scaled.line(target).r(i, j), base_line.r(i, j) * 2.0);
      EXPECT_DOUBLE_EQ(scaled.line(target).x(i, j), base_line.x(i, j) * 2.0);
      EXPECT_DOUBLE_EQ(opened.line(target).r(i, j),
                       base_line.r(i, j) * kOpenImpedanceScale);
      // close = back to base (blocks are absolute, not compounding).
      EXPECT_DOUBLE_EQ(closed.line(target).r(i, j), base_line.r(i, j));
      EXPECT_DOUBLE_EQ(closed.line(target).x(i, j), base_line.x(i, j));
    }
  }
  for (auto ph : {dopf::network::Phase::kA, dopf::network::Phase::kB,
                  dopf::network::Phase::kC}) {
    EXPECT_DOUBLE_EQ(opened.line(target).flow_limit[ph], kOpenFlowLimit);
    EXPECT_DOUBLE_EQ(scaled.line(target).flow_limit[ph],
                     base_line.flow_limit[ph]);  // re-rate keeps limits
    EXPECT_DOUBLE_EQ(closed.line(target).flow_limit[ph],
                     base_line.flow_limit[ph]);
  }
}

TEST(StreamNetworkAtStepTest, UnknownTargetsCarryStepProvenance) {
  const auto net = dopf::feeders::ieee13();
  const auto p_line = parse("steps 4\nstep 2\n  switch no-such-line open\n");
  const auto p_load =
      parse("steps 4\nstep 1\n  load no-such-load scale 1.1\n");
  try {
    network_at_step(net, p_line, 3);
    FAIL() << "expected ProfileError";
  } catch (const ProfileError& e) {
    EXPECT_NE(std::string(e.what()).find("step 3"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("no-such-line"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(network_at_step(net, p_load, 2), ProfileError);
  EXPECT_THROW(network_at_step(net, p_line, 7), ProfileError);   // range
  EXPECT_THROW(network_at_step(net, p_line, -1), ProfileError);  // range
}

TEST(StreamProfileFromScenariosTest, StepZeroIsBaseAndStepKIsScenarioK) {
  using dopf::runtime::ScenarioOverride;
  const auto net = dopf::feeders::ieee13();
  // The empty middle scenario must solve the base network again, not hold
  // the previous scenario's block.
  const std::vector<dopf::runtime::Scenario> scenarios = {
      {"light", {{ScenarioOverride::Kind::kLoadScale, "*", 0.9}}},
      {"empty", {}},
      {"heavy", {{ScenarioOverride::Kind::kLoadScale, "*", 1.2}}}};
  const StreamProfile p = profile_from_scenarios(scenarios);
  EXPECT_EQ(p.name, "sweep");
  ASSERT_EQ(p.num_steps, 4);
  EXPECT_EQ(p.block_for(0), nullptr);

  for (int k = 0; k < p.num_steps; ++k) {
    if (k > 0) {
      ASSERT_NE(p.block_for(k), nullptr);
      EXPECT_EQ(p.block_for(k)->step, k);
      EXPECT_TRUE(p.block_for(k)->switches.empty());
    }
    const auto at_k = network_at_step(net, p, k);
    const auto expect =
        k == 0 ? net : dopf::runtime::apply_scenario(net, scenarios[k - 1]);
    for (std::size_t i = 0; i < net.num_loads(); ++i) {
      for (auto ph : {dopf::network::Phase::kA, dopf::network::Phase::kB,
                      dopf::network::Phase::kC}) {
        EXPECT_EQ(at_k.load(static_cast<int>(i)).p_ref[ph],
                  expect.load(static_cast<int>(i)).p_ref[ph])
            << "step " << k;
        EXPECT_EQ(at_k.load(static_cast<int>(i)).q_ref[ph],
                  expect.load(static_cast<int>(i)).q_ref[ph])
            << "step " << k;
      }
    }
  }
}

}  // namespace
}  // namespace dopf::stream

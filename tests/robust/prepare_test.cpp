/// robust::prepare and robust::prepare_scenario: the one network ->
/// decomposition step of every entry point, and its per-step counterpart.

#include "robust/preflight.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <sstream>

#include "feeders/feeder_io.hpp"
#include "feeders/ieee13.hpp"
#include "runtime/scenario.hpp"

namespace dopf::robust {
namespace {

using dopf::network::Network;
using dopf::opf::DistributedProblem;

bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

/// Bitwise equality of two decompositions: layout, global data and every
/// component block.
void expect_same_problem(const DistributedProblem& x,
                         const DistributedProblem& y) {
  ASSERT_EQ(x.num_vars, y.num_vars);
  EXPECT_TRUE(same_bits(x.c, y.c));
  EXPECT_TRUE(same_bits(x.lb, y.lb));
  EXPECT_TRUE(same_bits(x.ub, y.ub));
  EXPECT_TRUE(same_bits(x.x0, y.x0));
  EXPECT_EQ(x.copy_count, y.copy_count);
  ASSERT_EQ(x.num_components(), y.num_components());
  for (std::size_t s = 0; s < x.num_components(); ++s) {
    const auto& cx = x.components[s];
    const auto& cy = y.components[s];
    EXPECT_EQ(cx.name, cy.name);
    EXPECT_EQ(cx.global, cy.global) << cx.name;
    EXPECT_EQ(cx.a.rows(), cy.a.rows()) << cx.name;
    EXPECT_TRUE(same_bits(cx.a.data(), cy.a.data())) << cx.name;
    EXPECT_TRUE(same_bits(cx.b, cy.b)) << cx.name;
  }
}

// The near-parallel feeder of preflight_test.cpp: strict refuses it.
Network near_parallel_feeder() {
  std::stringstream in(
      "feeder v1\n"
      "bus src ab 1 1 1 1 1 1 0 0 0 0 0 0\n"
      "bus b1 ab 0.9 0.9 0.9 1.1 1.1 1.1 0 0 0 0 0 0\n"
      "bus b2 ab 0.9 0.9 0.9 1.1 1.1 1.1 0 0 0 0 0 0\n"
      "gen g1 src ab 0 0 0 inf inf inf -inf -inf -inf inf inf inf 1\n"
      "load d1 b2 ab wye 0 0 0 0 0 0 1e-8 1e-8 0 0 0 0\n"
      "line l1 src b1 ab 0 1 1 1 inf inf inf "
      "866025 0 0 0 866025 0 0 0 0 "
      "500000 1000000 0 -1000000 -500000 0 0 0 0 "
      "0 0 0 0 0 0 0 0 0 0 0 0\n"
      "line l2 b1 b2 ab 0 1 1 1 inf inf inf "
      "0.01 0 0 0 0.01 0 0 0 0 0.01 0 0 0 0.01 0 0 0 0 "
      "0 0 0 0 0 0 0 0 0 0 0 0\n");
  return dopf::feeders::read_feeder(in);
}

TEST(PrepareTest, ParseModeAcceptsOffAndEveryPolicy) {
  EXPECT_EQ(parse_mode("off"), std::nullopt);
  EXPECT_EQ(parse_mode("warn"), PreflightPolicy::kWarn);
  EXPECT_EQ(parse_mode("auto"), PreflightPolicy::kRemediate);
  EXPECT_EQ(parse_mode("strict"), PreflightPolicy::kStrict);
  EXPECT_THROW(parse_mode("frobnicate"), std::invalid_argument);
  EXPECT_THROW(parse_mode(""), std::invalid_argument);
}

TEST(PrepareTest, OffWarnAndStrictGiveThePlainDecomposition) {
  const Network net = dopf::feeders::ieee13();
  const auto model = dopf::opf::build_model(net);
  const DistributedProblem plain = dopf::opf::decompose(net, model);
  for (const PreflightMode mode :
       {PreflightMode{}, PreflightMode{PreflightPolicy::kWarn},
        PreflightMode{PreflightPolicy::kStrict}}) {
    SCOPED_TRACE(mode ? to_string(*mode) : "off");
    const PreparedProblem prepared = prepare(net, mode);
    EXPECT_EQ(prepared.mode, mode);
    EXPECT_EQ(prepared.model.num_equations(), model.num_equations());
    EXPECT_EQ(prepared.model.num_vars(), model.num_vars());
    expect_same_problem(prepared.problem, plain);
    EXPECT_FALSE(prepared.decompose.equilibrate_rows);
    EXPECT_FALSE(prepared.projector.auto_regularize);
    EXPECT_EQ(prepared.report.has_value(), mode.has_value());
    if (prepared.report) EXPECT_TRUE(prepared.report->accepted);
  }
}

TEST(PrepareTest, AutoEquilibratesRowsAndArmsTheRidgeFallback) {
  const Network net = dopf::feeders::ieee13();
  const PreparedProblem prepared = prepare(net, PreflightPolicy::kRemediate);
  ASSERT_TRUE(prepared.report.has_value());
  EXPECT_TRUE(prepared.report->equilibrated);
  EXPECT_TRUE(prepared.decompose.equilibrate_rows);
  // A solve built from this must use the remediated projector; dropping it
  // equilibrates the rows without the ridge fallback the report promises.
  EXPECT_TRUE(prepared.projector.auto_regularize);

  dopf::opf::DecomposeOptions equilibrated;
  equilibrated.equilibrate_rows = true;
  expect_same_problem(
      prepared.problem,
      dopf::opf::decompose(net, dopf::opf::build_model(net), equilibrated));
}

TEST(PrepareTest, RejectionThrowsPreflightErrorCarryingTheReport) {
  const Network net = near_parallel_feeder();
  try {
    (void)prepare(net, PreflightPolicy::kStrict);
    FAIL() << "strict preflight accepted the near-parallel feeder";
  } catch (const PreflightError& e) {
    EXPECT_FALSE(e.report().accepted);
    EXPECT_EQ(e.report().policy, PreflightPolicy::kStrict);
    EXPECT_EQ(e.what(), e.report().rejection);
    EXPECT_NE(e.report().rejection.find("near-duplicate-rows"),
              std::string::npos)
        << e.report().rejection;
  }
  // warn accepts the same feeder, and off runs no preflight at all.
  EXPECT_NO_THROW((void)prepare(net, PreflightPolicy::kWarn));
  EXPECT_FALSE(prepare(net, std::nullopt).report.has_value());
}

TEST(PrepareScenarioTest, TheBaseItselfIsReboundWithEveryComponentReused) {
  const Network net = dopf::feeders::ieee13();
  const PreparedProblem base = prepare(net, PreflightPolicy::kWarn);
  const std::size_t n = base.problem.num_components();

  const PreparedScenario same = prepare_scenario(base, base.problem);
  EXPECT_FALSE(same.built.has_value());
  EXPECT_EQ(&same.problem(), &base.problem);
  ASSERT_TRUE(same.report.has_value());
  EXPECT_TRUE(same.report->accepted);
  EXPECT_EQ(same.report->scenario_components_reused, n);

  // A copy of the base network is built, and is the same problem bit for
  // bit with the same verdict.
  const PreparedScenario copy =
      prepare_scenario(net, base.mode, base.decompose, base.problem);
  ASSERT_TRUE(copy.built.has_value());
  expect_same_problem(copy.problem(), base.problem);
  ASSERT_TRUE(copy.report.has_value());
  EXPECT_EQ(copy.report->scenario_components_reused, n);
}

TEST(PrepareScenarioTest, ScenarioIsDecomposedUnderTheBaseOptions) {
  const Network net = dopf::feeders::ieee13();
  const PreparedProblem base = prepare(net, PreflightPolicy::kRemediate);
  const Network heavy = dopf::runtime::apply_scenario(
      net, {"heavy",
            {{dopf::runtime::ScenarioOverride::Kind::kLoadScale, "*", 1.1}}});
  const PreparedScenario sc =
      prepare_scenario(heavy, base.mode, base.decompose, base.problem);
  ASSERT_TRUE(sc.built.has_value());
  expect_same_problem(
      sc.problem(), dopf::opf::decompose(heavy, dopf::opf::build_model(heavy),
                                         base.decompose));
  ASSERT_TRUE(sc.report.has_value());
  EXPECT_TRUE(sc.report->accepted);
}

TEST(PrepareScenarioTest, ShapeChangeIsRejected) {
  const Network net = dopf::feeders::ieee13();
  const PreparedProblem base = prepare(net, PreflightPolicy::kWarn);
  const Network other = near_parallel_feeder();
  try {
    (void)prepare_scenario(other, base.mode, base.decompose, base.problem);
    FAIL() << "a scenario with a different layout was accepted";
  } catch (const PreflightError& e) {
    EXPECT_FALSE(e.report().accepted);
    EXPECT_NE(e.report().rejection.find("shape differs"), std::string::npos)
        << e.report().rejection;
  }
}

TEST(PrepareScenarioTest, OffRunsNoDeltaPreflight) {
  const Network net = dopf::feeders::ieee13();
  const PreparedProblem base = prepare(net, std::nullopt);
  const PreparedScenario same = prepare_scenario(base, base.problem);
  EXPECT_FALSE(same.report.has_value());
  EXPECT_EQ(&same.problem(), &base.problem);
}

}  // namespace
}  // namespace dopf::robust

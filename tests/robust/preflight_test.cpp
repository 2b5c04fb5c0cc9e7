#include "robust/preflight.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>

#include "feeders/feeder_io.hpp"
#include "feeders/ieee13.hpp"
#include "opf/model.hpp"

namespace dopf::robust {
namespace {

using dopf::network::Network;
using dopf::network::Phase;

// Structurally valid and feasible, but line l1's impedance makes its two
// voltage-coupling rows nearly parallel (1 - |cos| ~ 1e-13): the raw Gram
// matrix is on the edge of losing positive definiteness even though RREF
// recovers a well-conditioned block. This is the strict/warn dividing line.
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

PreflightReport preflight(const Network& net, PreflightPolicy policy,
                          dopf::opf::DistributedProblem* problem = nullptr) {
  PreflightOptions options;
  options.policy = policy;
  return run_preflight(net, dopf::opf::build_model(net), problem, options);
}

TEST(PreflightTest, ParsePolicyRoundTrips) {
  EXPECT_EQ(parse_policy("warn"), PreflightPolicy::kWarn);
  EXPECT_EQ(parse_policy("auto"), PreflightPolicy::kRemediate);
  EXPECT_EQ(parse_policy("remediate"), PreflightPolicy::kRemediate);
  EXPECT_EQ(parse_policy("strict"), PreflightPolicy::kStrict);
  EXPECT_THROW(parse_policy("frobnicate"), std::invalid_argument);
  EXPECT_STREQ(to_string(PreflightPolicy::kStrict), "strict");
}

TEST(PreflightTest, AcceptsIeee13UnderEveryPolicy) {
  const Network net = dopf::feeders::ieee13();
  for (PreflightPolicy policy :
       {PreflightPolicy::kWarn, PreflightPolicy::kRemediate,
        PreflightPolicy::kStrict}) {
    const PreflightReport report = preflight(net, policy);
    EXPECT_TRUE(report.accepted) << to_string(policy) << ": "
                                 << report.rejection;
    EXPECT_EQ(report.num_errors(), 0u);
    EXPECT_FALSE(report.blocks.empty());
  }
}

TEST(PreflightTest, AcceptedProblemMatchesPlainDecompose) {
  // Under kWarn the decomposition preflight hands back must be identical to
  // a plain decompose() — this is what keeps golden traces byte-stable.
  const Network net = dopf::feeders::ieee13();
  dopf::opf::DistributedProblem via_preflight;
  const PreflightReport report =
      preflight(net, PreflightPolicy::kWarn, &via_preflight);
  ASSERT_TRUE(report.accepted);
  const auto plain = dopf::opf::decompose(net, dopf::opf::build_model(net));
  ASSERT_EQ(via_preflight.num_components(), plain.num_components());
  for (std::size_t s = 0; s < plain.num_components(); ++s) {
    EXPECT_EQ(via_preflight.components[s].name, plain.components[s].name);
    EXPECT_TRUE(std::ranges::equal(via_preflight.components[s].a.data(),
                                   plain.components[s].a.data()));
  }
}

TEST(PreflightTest, NonFiniteDataRejectedUnderEveryPolicy) {
  Network net = dopf::feeders::ieee13();
  net.load_mutable(0).p_ref[Phase::kA] =
      std::numeric_limits<double>::quiet_NaN();
  for (PreflightPolicy policy :
       {PreflightPolicy::kWarn, PreflightPolicy::kRemediate,
        PreflightPolicy::kStrict}) {
    const PreflightReport report = preflight(net, policy);
    EXPECT_FALSE(report.accepted) << to_string(policy);
    EXPECT_NE(report.rejection.find("non-finite"), std::string::npos);
  }
}

TEST(PreflightTest, RejectionLeavesProblemOutUntouched) {
  Network net = dopf::feeders::ieee13();
  net.load_mutable(0).p_ref[Phase::kA] =
      std::numeric_limits<double>::quiet_NaN();
  dopf::opf::DistributedProblem problem;
  const PreflightReport report =
      preflight(net, PreflightPolicy::kWarn, &problem);
  EXPECT_FALSE(report.accepted);
  EXPECT_EQ(problem.num_components(), 0u);
}

TEST(PreflightTest, StrictRejectsNearParallelRowsWarnAccepts) {
  const Network net = near_parallel_feeder();
  const PreflightReport strict = preflight(net, PreflightPolicy::kStrict);
  EXPECT_FALSE(strict.accepted);
  // The rejection must carry row-level provenance naming both rows.
  EXPECT_NE(strict.rejection.find("near-duplicate-rows"), std::string::npos)
      << strict.rejection;
  EXPECT_NE(strict.rejection.find("volt[l1"), std::string::npos)
      << strict.rejection;

  const PreflightReport warn = preflight(net, PreflightPolicy::kWarn);
  EXPECT_TRUE(warn.accepted) << warn.rejection;
  EXPECT_GE(warn.num_warnings(), 1u);

  const PreflightReport autofix = preflight(net, PreflightPolicy::kRemediate);
  EXPECT_TRUE(autofix.accepted) << autofix.rejection;
}

TEST(PreflightTest, RemediatePolicyEquilibratesAndArmsRegularization) {
  const Network net = dopf::feeders::ieee13();
  const PreflightReport report = preflight(net, PreflightPolicy::kRemediate);
  ASSERT_TRUE(report.accepted);
  EXPECT_TRUE(report.equilibrated);
  EXPECT_TRUE(report.projector_options().auto_regularize);
}

TEST(PreflightTest, NonRemediatePoliciesKeepExactProjector) {
  const Network net = dopf::feeders::ieee13();
  EXPECT_FALSE(preflight(net, PreflightPolicy::kWarn)
                   .projector_options()
                   .auto_regularize);
  EXPECT_FALSE(preflight(net, PreflightPolicy::kWarn).equilibrated);
}

TEST(PreflightTest, SummaryContainsVerdictAndConditioning) {
  const Network net = dopf::feeders::ieee13();
  const std::string accepted =
      preflight(net, PreflightPolicy::kWarn).summary();
  EXPECT_NE(accepted.find("verdict: accepted"), std::string::npos);
  EXPECT_NE(accepted.find("conditioning:"), std::string::npos);

  const std::string rejected =
      preflight(near_parallel_feeder(), PreflightPolicy::kStrict).summary();
  EXPECT_NE(rejected.find("verdict: REJECTED"), std::string::npos);
}

TEST(PreflightTest, WorstCondAndHealthCountsAreConsistent) {
  const Network net = dopf::feeders::ieee13();
  const PreflightReport report = preflight(net, PreflightPolicy::kWarn);
  ASSERT_TRUE(report.accepted);
  EXPECT_EQ(report.count_health(BlockHealth::kHealthy) +
                report.count_health(BlockHealth::kMarginal) +
                report.count_health(BlockHealth::kDegenerate),
            report.blocks.size());
  double worst = 0.0;
  for (const BlockConditioning& b : report.blocks) {
    worst = std::max(worst, b.cond);
  }
  EXPECT_GE(worst, 1.0);
}

// --- run_scenario_preflight: validating a ScenarioBinding delta without
// re-sanitizing the unchanged topology.

TEST(ScenarioPreflightTest, LoadOnlyScenarioReusesEveryComponentVerdict) {
  const Network net = dopf::feeders::ieee13();
  const auto base = dopf::opf::decompose(net);
  // A pure objective/bounds/rhs perturbation: scale c. Components' A
  // blocks are untouched, so conditioning analysis must be skipped for all.
  auto scenario = base;
  for (double& v : scenario.c) v *= 1.25;

  const PreflightReport report = run_scenario_preflight(base, scenario);
  EXPECT_TRUE(report.accepted) << report.rejection;
  EXPECT_EQ(report.scenario_components_reused, base.num_components());
  EXPECT_TRUE(report.blocks.empty());  // no block re-analyzed
}

TEST(ScenarioPreflightTest, ChangedComponentIsReanalyzed) {
  const Network net = dopf::feeders::ieee13();
  const auto base = dopf::opf::decompose(net);
  auto scenario = base;
  auto& a = scenario.components[0].a;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) a(r, c) *= 2.0;
  }
  const PreflightReport report = run_scenario_preflight(base, scenario);
  EXPECT_TRUE(report.accepted) << report.rejection;
  EXPECT_EQ(report.scenario_components_reused, base.num_components() - 1);
  EXPECT_EQ(report.blocks.size(), 1u);
}

TEST(ScenarioPreflightTest, LayoutMismatchIsRejectedAsNewModel) {
  const Network net = dopf::feeders::ieee13();
  const auto base = dopf::opf::decompose(net);
  dopf::opf::DecomposeOptions dec;
  dec.merge_leaves = false;  // different component layout
  const auto other = dopf::opf::decompose(net, dopf::opf::build_model(net),
                                          dec);
  const PreflightReport report = run_scenario_preflight(base, other);
  EXPECT_FALSE(report.accepted);
  EXPECT_NE(report.rejection.find("rebuild the SolveModel"),
            std::string::npos)
      << report.rejection;
}

TEST(ScenarioPreflightTest, NonFiniteScenarioDataRejected) {
  const Network net = dopf::feeders::ieee13();
  const auto base = dopf::opf::decompose(net);

  auto bad_c = base;
  bad_c.c[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(run_scenario_preflight(base, bad_c).accepted);

  auto bad_b = base;
  bad_b.components[0].b[0] = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(run_scenario_preflight(base, bad_b).accepted);

  auto inverted = base;
  inverted.lb[0] = 1.0;
  inverted.ub[0] = -1.0;
  const PreflightReport report = run_scenario_preflight(base, inverted);
  EXPECT_FALSE(report.accepted);
  EXPECT_NE(report.rejection.find("bounds"), std::string::npos)
      << report.rejection;
}

}  // namespace
}  // namespace dopf::robust

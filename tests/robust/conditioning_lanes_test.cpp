// The lockstep conditioning estimate (robust/conditioning over
// linalg/lanes.hpp) against the scalar one-block estimator it replaced:
// every BlockConditioning must carry the same cond bits, health and ridge.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "../linalg/scalar_reference.hpp"
#include "linalg/lanes.hpp"
#include "opf/decompose.hpp"
#include "opf/model.hpp"
#include "robust/conditioning.hpp"
#include "robust/preflight.hpp"
#include "runtime/instances.hpp"

namespace dopf::robust {
namespace {

using dopf::linalg::Matrix;

/// analyze_component as it ran one block at a time.
BlockConditioning reference_block(const dopf::opf::Component& comp) {
  BlockConditioning block;
  block.component = comp.name;
  block.rows = comp.num_rows();
  block.cols = comp.num_vars();
  block.rows_before_reduction = comp.rows_before_reduction;
  block.rank = comp.num_rows();
  if (comp.num_rows() == 0) return block;
  block.cond = dopf::reference::estimate_gram_cond(comp.a, kPowerIterations,
                                                   dopf::linalg::kCholTol);
  if (std::isinf(block.cond)) {
    dopf::linalg::ProjectorOptions probe;
    probe.auto_regularize = true;
    const auto proj = dopf::reference::build_projector(comp.a, comp.b, probe);
    block.ridge = proj.ok ? proj.ridge : 0.0;
    block.health = BlockHealth::kDegenerate;
  } else if (block.cond >= kCondDegenerate) {
    block.health = BlockHealth::kDegenerate;
  } else if (block.cond >= kCondMarginal) {
    block.health = BlockHealth::kMarginal;
  }
  return block;
}

void expect_blocks_match(const std::vector<dopf::opf::Component>& comps,
                         const std::vector<BlockConditioning>& got,
                         const std::string& label) {
  ASSERT_EQ(got.size(), comps.size()) << label;
  std::size_t mismatches = 0;
  for (std::size_t s = 0; s < comps.size(); ++s) {
    const BlockConditioning want = reference_block(comps[s]);
    const BlockConditioning& have = got[s];
    const bool same =
        have.component == want.component && have.rows == want.rows &&
        have.cols == want.cols && have.rank == want.rank &&
        have.rows_before_reduction == want.rows_before_reduction &&
        std::bit_cast<std::uint64_t>(have.cond) ==
            std::bit_cast<std::uint64_t>(want.cond) &&
        std::bit_cast<std::uint64_t>(have.ridge) ==
            std::bit_cast<std::uint64_t>(want.ridge) &&
        have.health == want.health;
    if (!same && ++mismatches <= 5) {
      ADD_FAILURE() << label << " block " << s << " (" << comps[s].name
                    << ", m=" << comps[s].num_rows() << "): cond "
                    << have.cond << " vs " << want.cond << ", ridge "
                    << have.ridge << " vs " << want.ridge << ", health "
                    << static_cast<int>(have.health) << " vs "
                    << static_cast<int>(want.health);
    }
  }
  EXPECT_EQ(mismatches, 0u) << label;
}

dopf::opf::Component make_block(std::string name, Matrix a) {
  dopf::opf::Component comp;
  comp.name = std::move(name);
  comp.rows_before_reduction = a.rows();
  comp.b.assign(a.rows(), 1.0);
  comp.global.resize(a.cols());
  for (std::size_t j = 0; j < a.cols(); ++j) {
    comp.global[j] = static_cast<int>(j);
  }
  comp.a = std::move(a);
  return comp;
}

Matrix random_block(std::size_t m, std::size_t n, std::mt19937& rng) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::bernoulli_distribution sparse(0.4);
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    a(i, i % n) = 2.0 + dist(rng);  // keeps the rows independent
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i % n && sparse(rng)) a(i, j) = dist(rng);
    }
  }
  return a;
}

class ConditioningLanesBuiltin
    : public ::testing::TestWithParam<std::string> {};

// Every builtin under every preflight policy: the blocks run_preflight
// reports are the scalar estimator's, bit for bit.
TEST_P(ConditioningLanesBuiltin, EveryBlockMatchesScalarEstimator) {
  const dopf::network::Network net = dopf::runtime::make_network(GetParam());
  const dopf::opf::OpfModel model = dopf::opf::build_model(net);
  for (const PreflightPolicy policy :
       {PreflightPolicy::kWarn, PreflightPolicy::kRemediate,
        PreflightPolicy::kStrict}) {
    PreflightOptions popt;
    popt.policy = policy;
    dopf::opf::DecomposeOptions dec;
    dec.equilibrate_rows = policy == PreflightPolicy::kRemediate;
    const dopf::opf::DistributedProblem problem =
        dopf::opf::decompose(net, model, dec);
    const std::string label = GetParam() + "/" + to_string(policy);
    expect_blocks_match(problem.components, analyze_conditioning(problem),
                        label);
    // The report carries the same blocks whenever sanitation let the
    // decomposition run.
    const PreflightReport report = run_preflight(net, model, nullptr, popt);
    if (!report.blocks.empty()) {
      expect_blocks_match(problem.components, report.blocks,
                          label + " report");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Builtins, ConditioningLanesBuiltin,
                         ::testing::Values("ieee13", "ieee123", "ieee8500",
                                           "ieee8500_mini", "ieee13_overload"),
                         [](const auto& info) { return info.param; });

// One block of every m from 1 to 30, in groups of W - 1, W and W + 1
// members (W = the widest lane count for m), sizes interleaved in component
// order and widths varying inside a group, so every chunk width, every
// tail and the zero-padded Gram product run.
TEST(ConditioningLanesTest, EveryRowCountAndGroupSizeMatchesScalar) {
  std::mt19937 rng(20250807);
  std::uniform_int_distribution<std::size_t> extra(0, 6);
  for (const int delta : {-1, 0, 1}) {
    std::vector<dopf::opf::Component> comps;
    std::size_t round = 0;
    bool added = true;
    while (added) {
      added = false;
      for (std::size_t m = 1; m <= 30; ++m) {
        const std::size_t members =
            dopf::linalg::lanes::max_lanes(m) + static_cast<std::size_t>(delta);
        if (round >= members) continue;
        comps.push_back(make_block(
            "m" + std::to_string(m) + ":" + std::to_string(round),
            random_block(m, m + extra(rng), rng)));
        added = true;
      }
      ++round;
    }
    dopf::opf::DistributedProblem problem;
    problem.components = comps;
    expect_blocks_match(comps, analyze_conditioning(problem),
                        "delta " + std::to_string(delta));
  }
}

// Lanes that fail the Cholesky factor, carry non-finite entries, have zero
// rows or a zero Gram matrix, mixed in among healthy lanes of the same row
// count: each takes its own exit, and no healthy lane moves.
TEST(ConditioningLanesTest, EdgeLanesAmongHealthyLanes) {
  std::mt19937 rng(7);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<dopf::opf::Component> comps;
  for (int rep = 0; rep < 3; ++rep) {
    for (const std::size_t m : {1u, 2u, 3u, 5u, 9u, 14u}) {
      const std::size_t n = m + 2;
      const std::string tag = std::to_string(m) + ":" + std::to_string(rep);
      comps.push_back(make_block("healthy:" + tag, random_block(m, n, rng)));
      Matrix parallel = random_block(m, n, rng);
      if (m > 1) {
        for (std::size_t j = 0; j < n; ++j) parallel(m - 1, j) = parallel(0, j);
        parallel(m - 1, 0) += 1e-9;  // nearly parallel: a ridge is needed
      } else {
        for (std::size_t j = 0; j < n; ++j) parallel(0, j) = 1e-9;
      }
      comps.push_back(make_block("parallel:" + tag, parallel));
      comps.push_back(make_block("healthy2:" + tag, random_block(m, n, rng)));
      Matrix with_nan = random_block(m, n, rng);
      with_nan(m / 2, n / 2) = nan;
      comps.push_back(make_block("nan:" + tag, with_nan));
      Matrix with_inf = random_block(m, n, rng);
      with_inf(0, n - 1) = rep == 1 ? -inf : inf;
      comps.push_back(make_block("inf:" + tag, with_inf));
      comps.push_back(make_block("zero:" + tag, Matrix(m, n)));
      comps.push_back(make_block("huge:" + tag, [&] {
        Matrix a = random_block(m, n, rng);
        a(0, 0) = 1e200;  // the Gram overflows, the power norm turns inf
        return a;
      }()));
      comps.push_back(make_block("tiny:" + tag, [&] {
        Matrix a = random_block(m, n, rng);
        for (double& x : a.data()) x *= 1e-170;  // the Gram underflows
        return a;
      }()));
      comps.push_back(make_block("empty:" + tag, Matrix(0, n)));
    }
  }
  dopf::opf::DistributedProblem problem;
  problem.components = comps;
  const std::vector<BlockConditioning> blocks = analyze_conditioning(problem);
  expect_blocks_match(comps, blocks, "edge lanes");
  // The mix takes every exit: healthy, ridge-rescued, unrescuable.
  int healthy = 0, ridged = 0, unrescued = 0;
  for (const BlockConditioning& block : blocks) {
    healthy += block.health == BlockHealth::kHealthy && block.rows > 0;
    ridged += std::isinf(block.cond) && block.ridge > 0.0;
    unrescued += std::isinf(block.cond) && block.ridge == 0.0;
  }
  EXPECT_GT(healthy, 0);
  EXPECT_GT(ridged, 0);
  EXPECT_GT(unrescued, 0);
  // A group of one runs the same code: the single-block entry point agrees.
  for (const auto& comp : comps) {
    const BlockConditioning want = reference_block(comp);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(analyze_component(comp).cond),
              std::bit_cast<std::uint64_t>(want.cond))
        << comp.name;
  }
}

}  // namespace
}  // namespace dopf::robust

// The lockstep projector build (LocalSolvers::precompute and
// AffineProjector::try_build_group over linalg/lanes.hpp) against the
// scalar one-block build it replaced: every Abar and bbar entry, the
// ridge, the failure pivot and the rebound bbar, bit for bit.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "../linalg/scalar_reference.hpp"
#include "core/packed_solvers.hpp"
#include "linalg/affine_projector.hpp"
#include "opf/decompose.hpp"
#include "opf/model.hpp"
#include "runtime/instances.hpp"

namespace dopf::core {
namespace {

using dopf::linalg::AffineProjector;
using dopf::linalg::Matrix;
using dopf::linalg::ProjectorOptions;
using dopf::linalg::ProjectorStatus;

bool same_bits(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (std::bit_cast<std::uint64_t>(a[k]) !=
        std::bit_cast<std::uint64_t>(b[k])) {
      return false;
    }
  }
  return true;
}

/// `proj` and `status` equal the scalar build of (a, b), bit for bit.
void expect_matches_reference(const Matrix& a, std::span<const double> b,
                              const ProjectorOptions& options,
                              const std::optional<AffineProjector>& proj,
                              const ProjectorStatus& status,
                              const std::string& label) {
  const dopf::reference::Projector want =
      dopf::reference::build_projector(a, b, options);
  ASSERT_EQ(proj.has_value(), want.ok) << label;
  ASSERT_EQ(status.ok, want.ok) << label;
  if (!want.ok) {
    EXPECT_EQ(status.pivot_index, want.pivot_index) << label;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(status.pivot_value),
              std::bit_cast<std::uint64_t>(want.pivot_value))
        << label;
    return;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(status.ridge),
            std::bit_cast<std::uint64_t>(want.ridge))
      << label;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(proj->ridge()),
            std::bit_cast<std::uint64_t>(want.ridge))
      << label;
  EXPECT_TRUE(same_bits(proj->abar().data(), want.abar.data())) << label;
  EXPECT_TRUE(same_bits(proj->bbar(), want.bbar)) << label;
}

class ProjectorLanesBuiltin : public ::testing::TestWithParam<std::string> {};

// Every Abar and bbar of every builtin, plain and row-equilibrated, through
// the production precompute.
TEST_P(ProjectorLanesBuiltin, EveryProjectorMatchesScalarBuild) {
  const dopf::network::Network net = dopf::runtime::make_network(GetParam());
  const dopf::opf::OpfModel model = dopf::opf::build_model(net);
  for (const bool equilibrate : {false, true}) {
    dopf::opf::DecomposeOptions dec;
    dec.equilibrate_rows = equilibrate;
    const dopf::opf::DistributedProblem problem =
        dopf::opf::decompose(net, model, dec);
    ProjectorOptions options;
    options.auto_regularize = equilibrate;
    options.keep_factorization = true;
    const LocalSolvers solvers = LocalSolvers::precompute(problem, options);
    ASSERT_EQ(solvers.projectors.size(), problem.components.size());
    std::size_t mismatches = 0;
    for (std::size_t s = 0; s < problem.components.size(); ++s) {
      const auto& comp = problem.components[s];
      const dopf::reference::Projector want =
          dopf::reference::build_projector(comp.a, comp.b, options);
      const AffineProjector& have = solvers.projectors[s];
      if (!want.ok || !same_bits(have.abar().data(), want.abar.data()) ||
          !same_bits(have.bbar(), want.bbar) ||
          std::bit_cast<std::uint64_t>(have.ridge()) !=
              std::bit_cast<std::uint64_t>(want.ridge)) {
        if (++mismatches <= 5) {
          ADD_FAILURE() << GetParam() << " component " << s << " ("
                        << comp.name << ") differs from the scalar build";
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << GetParam() << " equilibrate " << equilibrate;
  }
}

INSTANTIATE_TEST_SUITE_P(Builtins, ProjectorLanesBuiltin,
                         ::testing::Values("ieee13", "ieee123", "ieee8500",
                                           "ieee8500_mini", "ieee13_overload"),
                         [](const auto& info) { return info.param; });

Matrix random_block(std::size_t m, std::size_t n, std::mt19937& rng) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::bernoulli_distribution sparse(0.5);
  Matrix a(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    a(i, i % n) = 2.0 + dist(rng);
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i % n && sparse(rng)) a(i, j) = dist(rng);
    }
  }
  return a;
}

// Groups of every width and tail, with lanes that need a ridge (different
// numbers of doublings), lanes no ridge can save, non-finite lanes, zero
// right-hand sides, signed zeros in A and overflowing Gram matrices (the
// zero skips), mixed among healthy lanes: each lane is its block built
// alone, with and without the ridge fallback, and a rebound bbar is the
// scalar one for the new b.
TEST(ProjectorLanesTest, MixedGroupsMatchScalarBuild) {
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  int ridged = 0, failed = 0;
  for (const std::size_t m : {0u, 1u, 2u, 3u, 6u, 13u}) {
    const std::size_t n = m + 3;
    for (const std::size_t members : {1u, 2u, 3u, 5u, 8u, 9u, 17u}) {
      std::vector<Matrix> a;
      std::vector<std::vector<double>> b;
      for (std::size_t k = 0; k < members; ++k) {
        Matrix block = random_block(m, n, rng);
        std::vector<double> rhs(m);
        for (double& x : rhs) x = dist(rng);
        if (m > 1 && k % 3 == 1) {
          // Nearly parallel rows; the gap sets how many doublings it takes.
          for (std::size_t j = 0; j < n; ++j) block(1, j) = block(0, j);
          block(1, 0) += k % 2 == 0 ? 1e-9 : 0.0;
        }
        if (m > 0 && k % 5 == 2) block(0, n - 1) = nan;
        if (m > 0 && k % 4 == 3) {
          rhs.assign(m, 0.0);
          block(0, 1) = -0.0;
        }
        if (m > 0 && k % 7 == 4) {
          // The Gram diagonal overflows and the factor still passes (for
          // m = 1 with an infinite entry, G = [inf]): G^-1 A and A itself
          // hold non-finite entries next to zero multipliers, which only
          // the zero skips keep out of Abar and bbar.
          block(0, 1) = 0.0;
          if (m == 1) {
            block(0, n - 1) = std::numeric_limits<double>::infinity();
          } else {
            block(0, 0) = 1e200;
          }
        }
        a.push_back(std::move(block));
        b.push_back(std::move(rhs));
      }
      std::vector<const Matrix*> a_ptr;
      std::vector<std::span<const double>> b_span;
      for (std::size_t k = 0; k < members; ++k) {
        a_ptr.push_back(&a[k]);
        b_span.push_back(b[k]);
      }
      for (const bool regularize : {false, true}) {
        ProjectorOptions options;
        options.auto_regularize = regularize;
        options.max_ridge_doublings = 8;
        options.keep_factorization = true;
        std::vector<ProjectorStatus> status(members);
        auto built =
            AffineProjector::try_build_group(a_ptr, b_span, options, status);
        for (std::size_t k = 0; k < members; ++k) {
          const std::string label = "m " + std::to_string(m) + " members " +
                                    std::to_string(members) + " lane " +
                                    std::to_string(k) +
                                    (regularize ? " ridge" : " exact");
          expect_matches_reference(a[k], b[k], options, built[k], status[k],
                                   label);
          ridged += status[k].ridge > 0.0;
          failed += !status[k].ok;
          ProjectorStatus one;
          const auto alone = AffineProjector::try_build(a[k], b[k], options,
                                                        &one);
          expect_matches_reference(a[k], b[k], options, alone, one,
                                   label + " alone");
          if (!built[k]) continue;
          std::vector<double> b2(m);
          for (double& x : b2) x = dist(rng);
          built[k]->rebind_rhs(b2);
          const auto want = dopf::reference::build_projector(a[k], b2, options);
          EXPECT_TRUE(same_bits(built[k]->bbar(), want.bbar)) << label;
        }
      }
    }
  }
  EXPECT_GT(ridged, 0);
  EXPECT_GT(failed, 0);
}

}  // namespace
}  // namespace dopf::core

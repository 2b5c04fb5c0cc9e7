// The lockstep projector build (linalg::factor_gram and
// linalg::assemble_projector over linalg/lanes.hpp, as SolveModel and its
// pack run them) against the scalar one-block build it replaced: every
// factor, Abar and bbar entry, the ridge, the failure pivot and the
// rebound bbar, bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "../linalg/scalar_reference.hpp"
#include "core/scenario_binding.hpp"
#include "core/solve_model.hpp"
#include "linalg/affine_projector.hpp"
#include "opf/decompose.hpp"
#include "opf/model.hpp"
#include "runtime/instances.hpp"

namespace dopf::core {
namespace {

using dopf::linalg::AffineProjector;
using dopf::linalg::AssemblyBlock;
using dopf::linalg::GramBlock;
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

// Every factor, ridge, Abar and bbar of every builtin, plain and
// row-equilibrated: the factor step over all components at once, as the
// model runs it, and the cold Abar and bbar its pack holds, then every
// bbar rebound through the model's stored factor for a new right-hand side.
TEST_P(ProjectorLanesBuiltin, EveryProjectorMatchesScalarBuild) {
  const dopf::network::Network net = dopf::runtime::make_network(GetParam());
  const dopf::opf::OpfModel model = dopf::opf::build_model(net);
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> scale(0.5, 1.5);
  for (const bool equilibrate : {false, true}) {
    dopf::opf::DecomposeOptions dec;
    dec.equilibrate_rows = equilibrate;
    const dopf::opf::DistributedProblem problem =
        dopf::opf::decompose(net, model, dec);
    ProjectorOptions options;
    options.auto_regularize = equilibrate;
    SolveModel solve_model(problem, options);
    ScenarioBinding binding(solve_model);
    const PackedLocalSolvers& pack = binding.pack();
    ASSERT_EQ(pack.num_components(), problem.components.size());
    const std::size_t S = problem.components.size();
    std::vector<std::vector<double>> factor(S);
    std::vector<ProjectorStatus> status(S);
    std::vector<GramBlock> gram;
    for (std::size_t s = 0; s < S; ++s) {
      const std::size_t m = problem.components[s].a.rows();
      factor[s].resize(m * m);
      gram.push_back({&problem.components[s].a, factor[s].data(), &status[s]});
    }
    dopf::linalg::factor_gram(gram, options);
    double max_ridge = 0.0;
    std::size_t mismatches = 0;
    std::vector<double> abar;
    for (std::size_t s = 0; s < problem.components.size(); ++s) {
      const auto& comp = problem.components[s];
      const dopf::reference::Projector want =
          dopf::reference::build_projector(comp.a, comp.b, options);
      const auto m = comp.a.rows();
      const auto n = comp.num_vars();
      const auto off = static_cast<std::size_t>(pack.comp_offset[s]);
      bool factor_ok = want.ok && status[s].ok &&
                       std::bit_cast<std::uint64_t>(status[s].ridge) ==
                           std::bit_cast<std::uint64_t>(want.ridge);
      for (std::size_t i = 0; factor_ok && i < m; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
          factor_ok = factor_ok &&
                      std::bit_cast<std::uint64_t>(factor[s][i * m + j]) ==
                          std::bit_cast<std::uint64_t>(want.l(i, j));
        }
      }
      abar.resize(n * n);
      pack.unpack_abar(s, abar);
      const std::span<const double> bbar(pack.bbar.data() + off, n);
      const bool cold_ok = same_bits(abar, want.abar.data()) &&
                           same_bits(bbar, want.bbar);
      std::vector<double> b2 = comp.b;
      for (double& v : b2) v *= scale(rng);
      binding.set_rhs(s, b2);
      const dopf::reference::Projector rebound =
          dopf::reference::build_projector(comp.a, b2, options);
      if (!factor_ok || !cold_ok || !same_bits(bbar, rebound.bbar)) {
        if (++mismatches <= 5) {
          ADD_FAILURE() << GetParam() << " component " << s << " ("
                        << comp.name << ") differs from the scalar build";
        }
      }
      max_ridge = std::max(max_ridge, want.ridge);
    }
    EXPECT_EQ(mismatches, 0u) << GetParam() << " equilibrate " << equilibrate;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(solve_model.max_ridge()),
              std::bit_cast<std::uint64_t>(max_ridge));
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
// zero skips), mixed among healthy lanes: each lane's factor, status,
// Abar and bbar are its block built alone, with and without the ridge
// fallback, and an assembly from the same factor with a new b gives the
// scalar bbar for that b.
TEST(ProjectorLanesTest, MixedGroupsMatchScalarBuild) {
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  int ridged = 0, failed = 0;
  for (const std::size_t m : {0u, 1u, 2u, 3u, 6u, 13u}) {
    const std::size_t n = m + 3;
    for (const std::size_t members : {1u, 2u, 3u, 5u, 8u, 9u, 17u}) {
      std::vector<Matrix> a;
      std::vector<std::vector<double>> b, b2;
      for (std::size_t k = 0; k < members; ++k) {
        Matrix block = random_block(m, n, rng);
        std::vector<double> rhs(m), rhs2(m);
        for (double& x : rhs) x = dist(rng);
        for (double& x : rhs2) x = dist(rng);
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
        b2.push_back(std::move(rhs2));
      }
      for (const bool regularize : {false, true}) {
        ProjectorOptions options;
        options.auto_regularize = regularize;
        options.max_ridge_doublings = 8;
        std::vector<ProjectorStatus> status(members);
        std::vector<std::vector<double>> factor(members,
                                                std::vector<double>(m * m));
        std::vector<GramBlock> gram;
        for (std::size_t k = 0; k < members; ++k) {
          gram.push_back({&a[k], factor[k].data(), &status[k]});
        }
        dopf::linalg::factor_gram(gram, options);
        // The factored blocks assembled as one group, once with b and once
        // with the second right-hand side.
        std::vector<Matrix> abar(members, Matrix(n, n)), abar2 = abar;
        std::vector<std::vector<double>> bbar(members, std::vector<double>(n));
        std::vector<std::vector<double>> bbar2 = bbar;
        std::vector<AssemblyBlock> assembly;
        for (std::size_t k = 0; k < members; ++k) {
          if (!status[k].ok) continue;
          assembly.push_back({&a[k], factor[k].data(), b[k],
                              abar[k].data().data(), bbar[k].data()});
          assembly.push_back({&a[k], factor[k].data(), b2[k],
                              abar2[k].data().data(), bbar2[k].data()});
        }
        dopf::linalg::assemble_projector(assembly);
        for (std::size_t k = 0; k < members; ++k) {
          const std::string label = "m " + std::to_string(m) + " members " +
                                    std::to_string(members) + " lane " +
                                    std::to_string(k) +
                                    (regularize ? " ridge" : " exact");
          const auto want =
              dopf::reference::build_projector(a[k], b[k], options);
          ASSERT_EQ(status[k].ok, want.ok) << label;
          ridged += status[k].ridge > 0.0;
          failed += !status[k].ok;
          ProjectorStatus one;
          const auto alone = AffineProjector::try_build(a[k], b[k], options,
                                                        &one);
          expect_matches_reference(a[k], b[k], options, alone, one,
                                   label + " alone");
          if (!want.ok) {
            EXPECT_EQ(status[k].pivot_index, want.pivot_index) << label;
            EXPECT_EQ(std::bit_cast<std::uint64_t>(status[k].pivot_value),
                      std::bit_cast<std::uint64_t>(want.pivot_value))
                << label;
            continue;
          }
          EXPECT_EQ(std::bit_cast<std::uint64_t>(status[k].ridge),
                    std::bit_cast<std::uint64_t>(want.ridge))
              << label;
          for (std::size_t i = 0; i < m; ++i) {
            for (std::size_t j = 0; j <= i; ++j) {
              EXPECT_EQ(std::bit_cast<std::uint64_t>(factor[k][i * m + j]),
                        std::bit_cast<std::uint64_t>(want.l(i, j)))
                  << label << " factor (" << i << ", " << j << ")";
            }
          }
          EXPECT_TRUE(same_bits(abar[k].data(), want.abar.data())) << label;
          EXPECT_TRUE(same_bits(bbar[k], want.bbar)) << label;
          EXPECT_TRUE(same_bits(abar2[k].data(), want.abar.data())) << label;
          const auto want2 =
              dopf::reference::build_projector(a[k], b2[k], options);
          EXPECT_TRUE(same_bits(bbar2[k], want2.bbar)) << label;
        }
      }
    }
  }
  EXPECT_GT(ridged, 0);
  EXPECT_GT(failed, 0);
}

}  // namespace
}  // namespace dopf::core

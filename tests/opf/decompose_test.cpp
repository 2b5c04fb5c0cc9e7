#include "opf/decompose.hpp"

#include <gtest/gtest.h>

#include "feeders/ieee13.hpp"
#include "linalg/cholesky.hpp"

namespace dopf::opf {
namespace {

using network::Network;

TEST(DecomposeTest, Ieee13ComponentCountMatchesTable3) {
  const Network net = dopf::feeders::ieee13();
  const DistributedProblem p = decompose(net);
  // S = nodes + lines - leaves = 29 + 28 - 7 = 50.
  EXPECT_EQ(p.num_components(), 50u);
}

TEST(DecomposeTest, NoLeafMergeGivesNodesPlusLines) {
  const Network net = dopf::feeders::ieee13();
  DecomposeOptions opts;
  opts.merge_leaves = false;
  const DistributedProblem p = decompose(net, opts);
  EXPECT_EQ(p.num_components(), 29u + 28u);
}

TEST(DecomposeTest, EveryVariableIsCovered) {
  const Network net = dopf::feeders::ieee13();
  const DistributedProblem p = decompose(net);
  for (std::size_t i = 0; i < p.num_vars; ++i) {
    EXPECT_GE(p.copy_count[i], 1) << "variable " << i;
  }
}

TEST(DecomposeTest, CopyCountsMatchComponentMembership) {
  const Network net = dopf::feeders::ieee13();
  const DistributedProblem p = decompose(net);
  std::vector<int> recount(p.num_vars, 0);
  for (const Component& comp : p.components) {
    std::vector<bool> seen(p.num_vars, false);
    for (int g : comp.global) {
      EXPECT_FALSE(seen[g]) << "duplicate copy within a component";
      seen[g] = true;
      ++recount[g];
    }
  }
  EXPECT_EQ(recount, p.copy_count);
}

TEST(DecomposeTest, ComponentsHaveFullRowRankAfterReduction) {
  const Network net = dopf::feeders::ieee13();
  const DistributedProblem p = decompose(net);
  for (const Component& comp : p.components) {
    ASSERT_GT(comp.num_rows(), 0u) << comp.name;
    EXPECT_LE(comp.num_rows(), comp.num_vars()) << comp.name;
    // A_s A_s^T must be SPD, the property (15) relies on.
    EXPECT_NO_THROW(
        dopf::linalg::Cholesky{dopf::linalg::multiply_abt(comp.a, comp.a)})
        << comp.name;
  }
}

TEST(DecomposeTest, RowReductionOnlyDropsDependentRows) {
  const Network net = dopf::feeders::ieee13();
  DecomposeOptions raw;
  raw.row_reduce = false;
  const DistributedProblem unreduced = decompose(net, raw);
  const DistributedProblem reduced = decompose(net);
  ASSERT_EQ(unreduced.num_components(), reduced.num_components());
  std::size_t dropped = 0;
  for (std::size_t s = 0; s < reduced.num_components(); ++s) {
    EXPECT_LE(reduced.components[s].num_rows(),
              unreduced.components[s].num_rows());
    EXPECT_EQ(reduced.components[s].rows_before_reduction,
              unreduced.components[s].num_rows());
    dropped += unreduced.components[s].num_rows() -
               reduced.components[s].num_rows();
  }
  // The ieee13 model is built without redundant rows, so nothing drops;
  // what matters is that reduction never *adds* rows and stays consistent.
  std::size_t unreduced_rows = 0;
  for (const auto& comp : unreduced.components) {
    unreduced_rows += comp.num_rows();
  }
  EXPECT_LT(dropped, unreduced_rows);
}

TEST(DecomposeTest, LocalSystemsAreSatisfiedByCentralizedSolution) {
  // Any x satisfying the full model satisfies every component block under
  // the B_s mapping. Use x0 where feasible rows allow a direct check:
  // verify instead that component equations are exactly rows of the model
  // restricted to the component's variables (structural equivalence).
  const Network net = dopf::feeders::ieee13();
  const OpfModel model = build_model(net);
  DecomposeOptions opts;
  opts.row_reduce = false;  // keep raw rows for one-to-one comparison
  const DistributedProblem p = decompose(net, model, opts);
  std::size_t total_rows = 0;
  for (const Component& comp : p.components) total_rows += comp.num_rows();
  EXPECT_EQ(total_rows, model.num_equations());
}

TEST(DecomposeTest, LeafComponentsAreMergedBusPlusLine) {
  const Network net = dopf::feeders::ieee13();
  const DistributedProblem p = decompose(net);
  std::size_t leaf_comps = 0;
  for (const Component& comp : p.components) {
    if (comp.name.rfind("leaf:", 0) == 0) ++leaf_comps;
  }
  EXPECT_EQ(leaf_comps, 7u);
}

TEST(DecomposeTest, FeederHeadBusIsItsOwnComponent) {
  const Network net = dopf::feeders::ieee13();
  const DistributedProblem p = decompose(net);
  bool found = false;
  for (const Component& comp : p.components) {
    if (comp.name == "bus:sourcebus") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(DecomposeTest, SubproblemSizesAreSmall) {
  // The point of component-wise decomposition: every block stays tiny
  // (Table IV: max m_s = 22, max n_s = 34 for the 13-bus system).
  const Network net = dopf::feeders::ieee13();
  const DistributedProblem p = decompose(net);
  for (const Component& comp : p.components) {
    EXPECT_LE(comp.num_rows(), 40u) << comp.name;
    EXPECT_LE(comp.num_vars(), 60u) << comp.name;
  }
}

TEST(DecomposeTest, TotalsAreConsistent) {
  const Network net = dopf::feeders::ieee13();
  const DistributedProblem p = decompose(net);
  std::size_t nvars = 0;
  long long copies = 0;
  for (const Component& comp : p.components) nvars += comp.num_vars();
  for (int c : p.copy_count) copies += c;
  EXPECT_EQ(p.total_local_vars(), nvars);
  EXPECT_EQ(static_cast<long long>(nvars), copies);
}

}  // namespace
}  // namespace dopf::opf

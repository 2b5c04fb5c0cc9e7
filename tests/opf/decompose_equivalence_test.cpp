/// Coefficient-level equivalence between the centralized model (7) and the
/// distributed model (9): with leaf-merge and row-reduction disabled, the
/// union of the component blocks (mapped through B_s) must be exactly the
/// centralized equation set — the equivalence the paper asserts between (8),
/// (9) and (7).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "feeders/ieee13.hpp"
#include "feeders/synthetic.hpp"
#include "linalg/affine_projector.hpp"
#include "opf/decompose.hpp"

namespace dopf::opf {
namespace {

// A row in canonical form: rhs followed by sorted (var, coeff) pairs.
using Row = std::pair<double, std::vector<std::pair<int, double>>>;

Row canonical(double rhs, std::map<int, double> terms) {
  std::vector<std::pair<int, double>> sorted(terms.begin(), terms.end());
  return {rhs, std::move(sorted)};
}

std::vector<Row> rows_of_model(const OpfModel& model) {
  std::vector<Row> rows;
  for (const Equation& eq : model.equations) {
    std::map<int, double> terms;
    for (const auto& [var, coeff] : eq.terms) terms[var] += coeff;
    rows.push_back(canonical(eq.rhs, std::move(terms)));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

std::vector<Row> rows_of_problem(const DistributedProblem& p) {
  std::vector<Row> rows;
  for (const Component& comp : p.components) {
    for (std::size_t r = 0; r < comp.num_rows(); ++r) {
      std::map<int, double> terms;
      for (std::size_t j = 0; j < comp.num_vars(); ++j) {
        const double coeff = comp.a(r, j);
        if (coeff != 0.0) terms[comp.global[j]] += coeff;
      }
      rows.push_back(canonical(comp.b[r], std::move(terms)));
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

void expect_same_rows(const OpfModel& model, const DistributedProblem& p) {
  const auto a = rows_of_model(model);
  const auto b = rows_of_problem(p);
  ASSERT_EQ(a.size(), b.size());
  // Canonically sorted rows with exact coefficient equality: the
  // decomposition copies coefficients, it must not perturb them.
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r], b[r]) << "row " << r;
  }
}

TEST(DecomposeEquivalenceTest, Ieee13UnmergedUnreduced) {
  const auto net = dopf::feeders::ieee13();
  const OpfModel model = build_model(net);
  DecomposeOptions opts;
  opts.merge_leaves = false;
  opts.row_reduce = false;
  expect_same_rows(model, decompose(net, model, opts));
}

TEST(DecomposeEquivalenceTest, Ieee13MergedUnreduced) {
  // Leaf merging only regroups equations; the row set must be unchanged.
  const auto net = dopf::feeders::ieee13();
  const OpfModel model = build_model(net);
  DecomposeOptions opts;
  opts.row_reduce = false;
  expect_same_rows(model, decompose(net, model, opts));
}

TEST(DecomposeEquivalenceTest, SyntheticUnmergedUnreduced) {
  dopf::feeders::SyntheticSpec spec;
  spec.num_buses = 40;
  spec.num_leaves = 12;
  spec.num_extra_lines = 4;
  spec.seed = 17;
  const auto net = dopf::feeders::synthetic_feeder(spec);
  const OpfModel model = build_model(net);
  DecomposeOptions opts;
  opts.merge_leaves = false;
  opts.row_reduce = false;
  expect_same_rows(model, decompose(net, model, opts));
}

TEST(DecomposeEquivalenceTest, RowReductionPreservesSolutionSet) {
  // After reduction the rows differ, but any point satisfying the reduced
  // blocks must satisfy the original equations; check with the reduced
  // blocks' own least-norm solutions mapped through B_s consistency via a
  // full feasible point: use x0-projection per component.
  const auto net = dopf::feeders::ieee13();
  const OpfModel model = build_model(net);
  const auto reduced = decompose(net, model);
  DecomposeOptions raw_opts;
  raw_opts.row_reduce = false;
  const auto raw = decompose(net, model, raw_opts);
  ASSERT_EQ(reduced.num_components(), raw.num_components());
  for (std::size_t s = 0; s < raw.num_components(); ++s) {
    const Component& cr = reduced.components[s];
    const Component& cu = raw.components[s];
    ASSERT_EQ(cr.global, cu.global) << cr.name;
    // Build a point satisfying the reduced block via projection of zero.
    dopf::linalg::AffineProjector proj(cr.a, cr.b);
    std::vector<double> x(cr.num_vars());
    proj.project_into(std::vector<double>(cr.num_vars(), 0.0), x);
    // It must satisfy every *unreduced* row too.
    for (std::size_t r = 0; r < cu.num_rows(); ++r) {
      double lhs = 0.0;
      for (std::size_t j = 0; j < cu.num_vars(); ++j) {
        lhs += cu.a(r, j) * x[j];
      }
      EXPECT_NEAR(lhs, cu.b[r], 1e-9) << cu.name << " row " << r;
    }
  }
}

}  // namespace
}  // namespace dopf::opf

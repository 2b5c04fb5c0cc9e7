// The sub-block image of the local update (15) against the dense scalar
// row-major local update it replaces: every builtin, synthetic projectors
// whose sub-blocks interleave, non-finite staged values, refreshed
// components, over-relaxation, the component timers and the SIMT
// per-block launch. Every comparison is bitwise (memcmp).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/packed_kernels.hpp"
#include "core/scenario_binding.hpp"
#include "core/solve_model.hpp"
#include "runtime/instances.hpp"
#include "runtime/threaded_backend.hpp"
#include "simt/multi_device.hpp"
#include "simt/simt_backend.hpp"

namespace dopf::core {
namespace {

using dopf::opf::DistributedProblem;

constexpr double kRho = 100.0;

using Blocks = std::vector<std::vector<double>>;  // row-major Abar_s

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

double from_bits(std::uint64_t b) {
  double v;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

/// The iterates a local update reads.
struct Inputs {
  std::vector<double> x, z_prev, lambda;
};

Inputs random_inputs(const PackedLocalSolvers& p, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  Inputs in;
  for (std::size_t i = 0; i < p.num_global(); ++i) in.x.push_back(unit(rng));
  for (std::size_t k = 0; k < p.total_local(); ++k) {
    in.z_prev.push_back(unit(rng));
    in.lambda.push_back(50.0 * unit(rng));
  }
  return in;
}

/// The dense scalar local update (15): y = B x + lambda / rho (B x relaxed
/// at alpha != 1), then one sequential sum over all n_s entries per row.
void reference_local(const PackedLocalSolvers& p, const Blocks& abar,
                     const Inputs& in, double alpha, std::vector<double>& y,
                     std::vector<double>& z) {
  y.assign(p.total_local(), 0.0);
  z.assign(p.total_local(), 0.0);
  for (std::size_t pos = 0; pos < y.size(); ++pos) {
    const double bx = in.x[p.global_idx[pos]];
    const double r =
        alpha == 1.0 ? bx : alpha * bx + (1.0 - alpha) * in.z_prev[pos];
    y[pos] = r + in.lambda[pos] / kRho;
  }
  for (std::size_t s = 0; s < p.num_components(); ++s) {
    const auto off = static_cast<std::size_t>(p.comp_offset[s]);
    const auto n = static_cast<std::size_t>(p.comp_nvars[s]);
    for (std::size_t i = 0; i < n; ++i) {
      double sum = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        sum += abar[s][i * n + j] * y[off + j];
      }
      z[off + i] = p.bbar[off + i] - sum;
    }
  }
}

struct Output {
  std::vector<double> y, z, seconds;
};

Output run_local(ExecutionBackend& backend, const PackedLocalSolvers& p,
                 const Inputs& in, double alpha, bool timers) {
  std::vector<double> x = in.x, z_prev = in.z_prev, lambda = in.lambda;
  Output out;
  out.y.assign(p.total_local(), 7.0);
  out.z.assign(p.total_local(), 7.0);
  if (timers) out.seconds.assign(p.num_components(), 0.0);
  PackedState st;
  st.rho = kRho;
  st.alpha = alpha;
  st.x = x;
  st.z = out.z;
  st.z_prev = z_prev;
  st.lambda = lambda;
  st.y = out.y;
  st.component_seconds = out.seconds;
  backend.local_update(p, st);
  return out;
}

using BackendFactory =
    std::function<std::unique_ptr<ExecutionBackend>(const PackedLocalSolvers&)>;

std::vector<std::pair<std::string, BackendFactory>> backends() {
  return {
      {"serial",
       [](const PackedLocalSolvers&) { return make_serial_backend(); }},
      {"threaded(1)",
       [](const PackedLocalSolvers&) {
         return dopf::runtime::make_threaded_backend(1);
       }},
      {"threaded(3)",
       [](const PackedLocalSolvers&) {
         return dopf::runtime::make_threaded_backend(3);
       }},
      {"simt",
       [](const PackedLocalSolvers&) {
         return std::make_unique<dopf::simt::SimtBackend>();
       }},
      {"multigpu(3)",
       [](const PackedLocalSolvers& pack) {
         dopf::simt::MultiGpuOptions options;
         options.num_devices = 3;
         return std::make_unique<dopf::simt::MultiDeviceBackend>(pack,
                                                                 options);
       }},
  };
}

/// Every backend, with the component timers off and on, against the
/// reference, at each alpha.
void expect_matches(const PackedLocalSolvers& p, const Blocks& abar,
                    const Inputs& in, std::initializer_list<double> alphas) {
  for (const double alpha : alphas) {
    std::vector<double> y, z;
    reference_local(p, abar, in, alpha, y, z);
    for (const auto& [name, make] : backends()) {
      for (const bool timers : {false, true}) {
        SCOPED_TRACE(name + " alpha=" + std::to_string(alpha) +
                     (timers ? " timers" : ""));
        auto backend = make(p);
        const Output out = run_local(*backend, p, in, alpha, timers);
        ASSERT_TRUE(same_bits(y, out.y)) << "y";
        ASSERT_TRUE(same_bits(z, out.z)) << "z";
      }
    }
  }
}

/// Every Abar_s of `problem`, each block built alone.
Blocks dense_blocks(const DistributedProblem& problem) {
  Blocks out;
  for (const auto& comp : problem.components) {
    const auto proj = dopf::linalg::AffineProjector::try_build(comp.a, comp.b);
    out.emplace_back(proj->abar().data().begin(), proj->abar().data().end());
  }
  return out;
}

/// What a pinned histogram holds: blocks per size, indexed blocks, constant
/// rows and stored entries.
struct Shape {
  std::map<int, int> blocks;
  int indexed = 0;
  std::size_t const_rows = 0;
  std::size_t stored = 0;
};

Shape shape(const PackedLocalSolvers& p) {
  Shape out;
  for (const SubBlockGroup& g : p.sub_groups) {
    const int count = static_cast<int>(g.end - g.first);
    out.blocks[g.dim] += count;
    if (g.indexed) out.indexed += count;
  }
  out.const_rows = p.const_rows.size();
  out.stored = p.abar.size();
  return out;
}

/// The image's structure: groups ascending by (k, indexed), each block's
/// rows ascending (contiguous unless indexed), every z position in one
/// block or one constant row of its own component, comp_blocks in order
/// of first row, and a store of sum k^2 entries.
void expect_well_formed(const PackedLocalSolvers& p) {
  std::vector<int> owner(p.total_local(), -1);
  for (std::size_t s = 0; s < p.num_components(); ++s) {
    for (int k = 0; k < p.comp_nvars[s]; ++k) {
      owner[static_cast<std::size_t>(p.comp_offset[s] + k)] =
          static_cast<int>(s);
    }
  }
  std::vector<int> seen(p.total_local(), 0);
  std::vector<int> block_comp(p.num_blocks(), -1);
  std::size_t first = 0, rows = 0, store = 0;
  for (std::size_t gi = 0; gi < p.sub_groups.size(); ++gi) {
    const SubBlockGroup& g = p.sub_groups[gi];
    ASSERT_EQ(g.first, first);
    ASSERT_LT(first, g.end);
    if (gi > 0) {
      const SubBlockGroup& prev = p.sub_groups[gi - 1];
      EXPECT_TRUE(prev.dim < g.dim || (prev.dim == g.dim && !prev.indexed &&
                                       g.indexed));
    }
    EXPECT_EQ(g.rows, static_cast<std::int64_t>(rows));
    EXPECT_EQ(g.abar, static_cast<std::int64_t>(store));
    const auto k = static_cast<std::size_t>(g.dim);
    for (std::size_t b = first; b < g.end; ++b, rows += k, store += k * k) {
      const int* r = p.sub_rows.data() + rows;
      EXPECT_EQ(g.indexed, r[k - 1] - r[0] + 1 != g.dim) << "block " << b;
      block_comp[b] = owner[static_cast<std::size_t>(r[0])];
      for (std::size_t i = 0; i < k; ++i) {
        if (i > 0) EXPECT_LT(r[i - 1], r[i]);
        EXPECT_EQ(owner[static_cast<std::size_t>(r[i])], block_comp[b]);
        ++seen[static_cast<std::size_t>(r[i])];
      }
    }
    first = g.end;
  }
  EXPECT_EQ(rows, p.sub_rows.size());
  EXPECT_EQ(store, p.abar.size());
  for (std::size_t k = 0; k < p.const_rows.size(); ++k) {
    if (k > 0) EXPECT_LT(p.const_rows[k - 1], p.const_rows[k]);
    ++seen[static_cast<std::size_t>(p.const_rows[k])];
  }
  for (int v : seen) ASSERT_EQ(v, 1);
  ASSERT_EQ(p.comp_block_ptr.size(), p.num_components() + 1);
  ASSERT_EQ(p.comp_const_ptr.size(), p.num_components() + 1);
  EXPECT_EQ(static_cast<std::size_t>(p.comp_block_ptr.back()), p.num_blocks());
  for (std::size_t s = 0; s < p.num_components(); ++s) {
    int last_row = -1;
    for (int t = p.comp_block_ptr[s]; t < p.comp_block_ptr[s + 1]; ++t) {
      const auto b = static_cast<std::size_t>(p.comp_blocks[t]);
      EXPECT_EQ(block_comp[b], static_cast<int>(s));
      const SubBlockGroup& g = p.group_of(b);
      const int row0 = p.sub_rows[static_cast<std::size_t>(g.rows) +
                                  (b - g.first) *
                                      static_cast<std::size_t>(g.dim)];
      EXPECT_LT(last_row, row0);
      last_row = row0;
    }
    for (int t = p.comp_const_ptr[s]; t < p.comp_const_ptr[s + 1]; ++t) {
      EXPECT_EQ(owner[static_cast<std::size_t>(p.const_rows[t])],
                static_cast<int>(s));
    }
  }
}

/// The logical blocks read back through unpack_abar carry the bits they
/// were built from, +0.0 outside the sub-blocks.
void expect_logical_blocks(const PackedLocalSolvers& p, const Blocks& abar) {
  std::vector<double> unpacked;
  for (std::size_t s = 0; s < p.num_components(); ++s) {
    const auto n = static_cast<std::size_t>(p.comp_nvars[s]);
    unpacked.assign(n * n, 1.0);
    p.unpack_abar(s, unpacked);
    ASSERT_TRUE(same_bits(abar[s], unpacked)) << "component " << s;
  }
}

void expect_same_image(const PackedLocalSolvers& a,
                       const PackedLocalSolvers& b) {
  EXPECT_TRUE(same_bits(a.abar, b.abar)) << "abar";
  ASSERT_EQ(a.sub_groups.size(), b.sub_groups.size());
  for (std::size_t g = 0; g < a.sub_groups.size(); ++g) {
    EXPECT_EQ(a.sub_groups[g].dim, b.sub_groups[g].dim);
    EXPECT_EQ(a.sub_groups[g].indexed, b.sub_groups[g].indexed);
    EXPECT_EQ(a.sub_groups[g].first, b.sub_groups[g].first);
    EXPECT_EQ(a.sub_groups[g].end, b.sub_groups[g].end);
    EXPECT_EQ(a.sub_groups[g].abar, b.sub_groups[g].abar);
    EXPECT_EQ(a.sub_groups[g].rows, b.sub_groups[g].rows);
  }
  EXPECT_EQ(a.sub_rows, b.sub_rows);
  EXPECT_EQ(a.const_rows, b.const_rows);
  EXPECT_EQ(a.comp_blocks, b.comp_blocks);
  EXPECT_EQ(a.comp_block_ptr, b.comp_block_ptr);
  EXPECT_EQ(a.comp_const_ptr, b.comp_const_ptr);
  EXPECT_TRUE(same_bits(a.bbar, b.bbar)) << "bbar";
}

const std::vector<std::string>& builtins() {
  static const std::vector<std::string> names = {
      "ieee13", "ieee123", "ieee8500_mini", "ieee8500", "ieee13_overload"};
  return names;
}

TEST(SubBlockImageTest, EveryBuiltinMatchesDenseReference) {
  for (const std::string& name : builtins()) {
    SCOPED_TRACE(name);
    const auto inst = dopf::runtime::make_instance(name);
    SolveModel model(inst.problem, {});
    ScenarioBinding binding(model);
    const PackedLocalSolvers& p = binding.pack();
    const Blocks abar = dense_blocks(inst.problem);
    expect_well_formed(p);
    expect_logical_blocks(p, abar);
    expect_matches(p, abar, random_inputs(p, 3), {1.0});
  }
}

TEST(SubBlockImageTest, BuiltinHistogramsArePinned) {
  // Blocks per size, indexed blocks, constant rows and stored entries of
  // each builtin. A projector change that fills the exact zeros back in
  // (or splits blocks differently) shows here first.
  const std::map<std::string, Shape> want = {
      {"ieee13",
       {{{2, 90}, {3, 6}, {4, 8}, {6, 22}, {9, 3}, {10, 3}, {12, 3}, {18, 7},
         {20, 1}, {36, 1}},
        3, 80, 6273}},
      {"ieee123",
       {{{2, 189}, {3, 37}, {4, 15}, {5, 6}, {6, 98}, {9, 10}, {10, 9},
         {11, 8}, {12, 1}, {15, 1}, {18, 8}},
        6, 436, 10646}},
      {"ieee8500_mini",
       {{{2, 1338}, {3, 624}, {4, 186}, {5, 44}, {6, 1307}, {7, 2}, {9, 18},
         {10, 3}, {11, 10}, {13, 6}, {15, 1}, {18, 1}},
        0, 892, 66725}},
      {"ieee8500",
       {{{2, 13262}, {3, 6430}, {4, 1845}, {5, 414}, {6, 13104}, {7, 6},
         {8, 5}, {9, 173}, {10, 37}, {11, 94}, {13, 32}, {15, 6}, {17, 2},
         {18, 1}},
        4, 8081, 659893}},
      {"ieee13_overload",
       {{{2, 90}, {3, 6}, {4, 8}, {6, 22}, {9, 3}, {10, 3}, {12, 3}, {18, 7},
         {20, 1}, {36, 1}},
        3, 80, 6273}},
  };
  for (const std::string& name : builtins()) {
    SCOPED_TRACE(name);
    const auto inst = dopf::runtime::make_instance(name);
    const PackedLocalSolvers p = SolveModel(inst.problem, {}).make_pack();
    const Shape have = shape(p);
    const Shape& w = want.at(name);
    EXPECT_EQ(have.blocks, w.blocks);
    EXPECT_EQ(have.indexed, w.indexed);
    EXPECT_EQ(have.const_rows, w.const_rows);
    EXPECT_EQ(have.stored, w.stored);
  }
}

/// Components of every size 1-40, three of each (so same-size blocks run
/// in lockstep), over one shared pool of global variables. A_s is one row
/// of ones; the blocks the test installs through set_abar replace the
/// projectors it implies.
DistributedProblem sizes_problem() {
  DistributedProblem p;
  std::mt19937 rng(20261019);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  constexpr int kPool = 120;
  p.num_vars = kPool;
  std::vector<int> pool(kPool);
  std::iota(pool.begin(), pool.end(), 0);
  for (int rep = 0; rep < 3; ++rep) {
    for (int n = 1; n <= 40; ++n) {
      std::shuffle(pool.begin(), pool.end(), rng);
      dopf::opf::Component comp;
      comp.name = "block" + std::to_string(p.components.size());
      comp.global.assign(pool.begin(), pool.begin() + n);
      comp.a = dopf::linalg::Matrix(1, static_cast<std::size_t>(n));
      for (int j = 0; j < n; ++j) comp.a(0, j) = 1.0;
      comp.b.push_back(unit(rng));
      p.components.push_back(std::move(comp));
    }
  }
  p.copy_count.assign(p.num_vars, 0);
  for (const auto& comp : p.components) {
    for (int g : comp.global) ++p.copy_count[g];
  }
  for (std::size_t i = 0; i < p.num_vars; ++i) {
    p.c.push_back(unit(rng));
    p.lb.push_back(-2.0);
    p.ub.push_back(2.0);
    p.x0.push_back(0.5 * unit(rng));
  }
  return p;
}

/// A synthetic n x n Abar with a known split. Rows get labels: -1 (a zero
/// row), a pass-through row (Abar(i, i) = -1, a 1 x 1 block), or one of
/// `groups` blocks, interleaved at random (contiguous when `sorted`). Each
/// block is dense and random but for a few +0.0 entries off its diagonal;
/// when two blocks exist, a -0.0 entry joins them. Carries the expected
/// number of blocks and of constant rows.
struct Synthetic {
  std::vector<double> abar;
  int blocks = 0;
  int const_rows = 0;
};

Synthetic synthetic_block(int n, bool sorted, int groups, std::mt19937& rng) {
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  std::vector<int> label(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    // Roughly one row in five is zero, one in eight a pass-through.
    const int r = static_cast<int>(rng() % 40);
    label[i] = r < 8 ? -1 : r < 13 ? -2 : r % groups;
  }
  if (sorted) std::sort(label.begin(), label.end());
  Synthetic out;
  out.abar.assign(static_cast<std::size_t>(n * n), 0.0);
  auto at = [&](int i, int j) -> double& {
    return out.abar[static_cast<std::size_t>(i * n + j)];
  };
  std::vector<int> used(static_cast<std::size_t>(groups), 0);
  std::vector<int> head(static_cast<std::size_t>(groups), -1);
  for (int i = 0; i < n; ++i) {
    if (label[i] >= 0 && head[label[i]] < 0) head[label[i]] = i;
  }
  for (int i = 0; i < n; ++i) {
    if (label[i] == -1) {
      ++out.const_rows;
    } else if (label[i] == -2) {
      at(i, i) = -1.0;
      ++out.blocks;
    } else {
      used[label[i]] = 1;
      for (int j = 0; j < n; ++j) {
        if (label[j] != label[i]) continue;
        // The head row and column keep each block connected; a few other
        // off-diagonal +0.0 entries stay inside it.
        const bool spoke = i == j || i == head[label[i]] || j == head[label[i]];
        at(i, j) = (!spoke && rng() % 7 == 0) ? 0.0 : unit(rng);
        if (i == j) at(i, j) += at(i, j) < 0 ? -1.0 : 1.0;
      }
    }
  }
  std::vector<int> present;
  for (int g = 0; g < groups; ++g) {
    if (used[g]) present.push_back(g);
  }
  out.blocks += static_cast<int>(present.size());
  if (present.size() >= 2) {
    // Join the first two blocks through a -0.0 entry: one block less.
    int i = 0, j = 0;
    while (label[i] != present[0]) ++i;
    while (label[j] != present[1]) ++j;
    at(i, j) = -0.0;
    --out.blocks;
  }
  return out;
}

struct SyntheticPack {
  PackedLocalSolvers pack;
  Blocks abar;
};

const SyntheticPack& synthetic() {
  static const SyntheticPack sp = [] {
    const DistributedProblem problem = sizes_problem();
    SyntheticPack out;
    out.pack = SolveModel(problem, {}).make_pack();
    std::mt19937 rng(7);
    int blocks = 0, const_rows = 0;
    for (std::size_t s = 0; s < out.pack.num_components(); ++s) {
      // Every third block has one big sub-block (past the 16 rows of one
      // generic pass), the others one per six rows.
      const int n = out.pack.comp_nvars[s];
      const Synthetic syn =
          synthetic_block(n, s % 2 == 1, s % 3 == 0 ? 1 : 1 + n / 6, rng);
      out.pack.set_abar(s, syn.abar);
      out.abar.push_back(syn.abar);
      blocks += syn.blocks;
      const_rows += syn.const_rows;
    }
    EXPECT_EQ(out.pack.num_blocks(), static_cast<std::size_t>(blocks));
    EXPECT_EQ(out.pack.const_rows.size(), static_cast<std::size_t>(const_rows));
    return out;
  }();
  return sp;
}

TEST(SubBlockImageTest, SyntheticSplitsMatchDenseReference) {
  const SyntheticPack& sp = synthetic();
  const PackedLocalSolvers& p = sp.pack;
  expect_well_formed(p);
  expect_logical_blocks(p, sp.abar);
  // The generator reaches what the image must handle: indexed blocks, a
  // lockstep batch of several sizes, and sizes past the fixed kernels.
  const Shape sh = shape(p);
  EXPECT_GT(sh.indexed, 10);
  EXPECT_GT(sh.const_rows, 50u);
  EXPECT_GE(sh.blocks.at(1), 20);
  EXPECT_GE(sh.blocks.rbegin()->first, 16);
  for (int k : {2, 3, 4, 6}) {
    EXPECT_GE(sh.blocks.count(k) ? sh.blocks.at(k) : 0, 4) << "k=" << k;
  }
  expect_matches(p, sp.abar, random_inputs(p, 11), {1.0, 1.6});
}

TEST(SubBlockImageTest, ScheduleSlicesGiveTheSameBits) {
  const SyntheticPack& sp = synthetic();
  const PackedLocalSolvers& p = sp.pack;
  const Inputs in = random_inputs(p, 5);
  std::vector<double> x = in.x, zp = in.z_prev, l = in.lambda;
  std::vector<double> y_want, z_want;
  reference_local(p, sp.abar, in, 1.0, y_want, z_want);
  std::mt19937 rng(17);
  for (int round = 0; round < 20; ++round) {
    std::vector<double> y(p.total_local(), 7.0), z(p.total_local(), 7.0);
    PackedState st;
    st.rho = kRho;
    st.x = x;
    st.z = z;
    st.z_prev = zp;
    st.lambda = l;
    st.y = y;
    for (std::size_t begin = 0; begin < p.total_local();) {
      const std::size_t end =
          std::min(p.total_local(), begin + 1 + rng() % 37);
      ASSERT_TRUE(kernels::stage_range(p, st, begin, end));
      begin = end;
    }
    for (std::size_t begin = 0; begin < p.local_items();) {
      const std::size_t end = std::min(p.local_items(), begin + 1 + rng() % 9);
      kernels::project_range(p, st, begin, end);
      begin = end;
    }
    ASSERT_TRUE(same_bits(y_want, y)) << "round " << round;
    ASSERT_TRUE(same_bits(z_want, z)) << "round " << round;
  }
}

/// Inputs with non-finite staged values: lambda = inf, -inf and two
/// payload NaNs at a constant row and inside sub-blocks of other
/// components.
Inputs nonfinite_inputs(const PackedLocalSolvers& p) {
  Inputs in = random_inputs(p, 23);
  EXPECT_GE(p.const_rows.size(), 2u);
  EXPECT_GE(p.sub_rows.size(), 2u);
  const double nan_a = from_bits(0x7ff8000000000123ull);
  const double nan_b = from_bits(0xfff80000000abcdeull);
  in.lambda[p.const_rows[0]] = std::numeric_limits<double>::infinity();
  in.lambda[p.const_rows[p.const_rows.size() / 2]] = nan_a;
  // Rows inside the last block (the largest size) and an early one.
  in.lambda[p.sub_rows.back()] = -std::numeric_limits<double>::infinity();
  in.lambda[p.sub_rows[1]] = nan_b;
  return in;
}

TEST(SubBlockImageTest, NonFiniteStagedValuesMatchDenseReference) {
  const SyntheticPack& sp = synthetic();
  expect_matches(sp.pack, sp.abar, nonfinite_inputs(sp.pack), {1.0, 1.6});
  const auto inst = dopf::runtime::make_instance("ieee123");
  SolveModel model(inst.problem, {});
  ScenarioBinding binding(model);
  expect_matches(binding.pack(), dense_blocks(inst.problem),
                 nonfinite_inputs(binding.pack()), {1.0});
}

/// Component s's split as the image holds it: its blocks' rows and its
/// constant rows.
std::vector<int> split_of(const PackedLocalSolvers& p, std::size_t s) {
  std::vector<int> out;
  for (int t = p.comp_block_ptr[s]; t < p.comp_block_ptr[s + 1]; ++t) {
    const auto b = static_cast<std::size_t>(p.comp_blocks[t]);
    const SubBlockGroup& g = p.group_of(b);
    const auto k = static_cast<std::size_t>(g.dim);
    const int* r = p.sub_rows.data() + g.rows + (b - g.first) * k;
    out.insert(out.end(), r, r + k);
    out.push_back(-1);
  }
  for (int t = p.comp_const_ptr[s]; t < p.comp_const_ptr[s + 1]; ++t) {
    out.push_back(p.const_rows[t]);
  }
  return out;
}

/// Rebind `edited` into a binding of ieee13 and check the refreshed image
/// against a cold build and the local update against the reference.
void check_refresh(const DistributedProblem& base,
                   const DistributedProblem& edited, std::size_t target,
                   bool split_kept) {
  SolveModel model(base, {});
  ScenarioBinding binding(model);
  const std::vector<int> before = split_of(binding.pack(), target);
  ASSERT_EQ(binding.rebind(edited).refactorizations, 1);
  const PackedLocalSolvers& warm = binding.pack();
  EXPECT_EQ(split_of(warm, target) == before, split_kept);
  // The binding's cached fingerprint follows the refresh.
  EXPECT_EQ(binding.model_fingerprint(), topology_fingerprint(warm));

  SolveModel cold_model(edited, {});
  const PackedLocalSolvers cold = cold_model.make_pack();
  expect_same_image(cold, warm);
  expect_well_formed(warm);
  EXPECT_EQ(topology_fingerprint(cold), topology_fingerprint(warm));
  const Blocks abar = dense_blocks(edited);
  expect_logical_blocks(warm, abar);
  expect_matches(warm, abar, random_inputs(warm, 29), {1.0, 1.6});
}

TEST(SubBlockImageTest, RefreshKeepingTheSplitMatchesColdBuild) {
  const DistributedProblem& base =
      dopf::runtime::make_instance("ieee13").problem;
  // Scaling A_s leaves its projector's zero pattern as it is.
  std::size_t target = 0;
  while (base.components[target].num_vars() < 10) ++target;
  DistributedProblem edited = base;
  auto& comp = edited.components[target];
  for (std::size_t r = 0; r < comp.a.rows(); ++r) {
    for (std::size_t c = 0; c < comp.a.cols(); ++c) comp.a(r, c) *= 2.0;
  }
  for (double& v : comp.b) v *= 2.0;
  check_refresh(base, edited, target, true);
}

TEST(SubBlockImageTest, RefreshBreakingTheSplitMatchesColdBuild) {
  const DistributedProblem& base =
      dopf::runtime::make_instance("ieee13").problem;
  // A dense first row couples every variable of A_s: one block, no
  // constant rows, and the image is laid out again.
  std::size_t target = 0;
  while (base.components[target].num_vars() < 10) ++target;
  DistributedProblem edited = base;
  auto& comp = edited.components[target];
  for (std::size_t c = 0; c < comp.a.cols(); ++c) {
    comp.a(0, c) = 1.0 + 0.01 * static_cast<double>(c);
  }
  check_refresh(base, edited, target, false);
}

}  // namespace
}  // namespace dopf::core

#include "core/packed_solvers.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>

#include "linalg/lanes.hpp"

namespace dopf::core {

using dopf::opf::Component;
using dopf::opf::DistributedProblem;

std::size_t PackedLocalSolvers::image_bytes() const {
  return sizeof(std::int64_t) *
             (comp_offset.size() + gather_ptr.size() + gather_pos.size()) +
         sizeof(int) * (comp_nvars.size() + comp_block_ptr.size() +
                        comp_blocks.size() + comp_const_ptr.size() +
                        global_idx.size() + sub_rows.size() +
                        const_rows.size() + global_order.size()) +
         sizeof(SubBlockGroup) * sub_groups.size() +
         sizeof(std::size_t) * bucket_end.size() +
         sizeof(double) * (abar.size() + bbar.size() + c.size() + lb.size() +
                           ub.size() + x0.size());
}

std::size_t PackedLocalSolvers::bytes() const {
  return image_bytes() + sizeof(int) * bucket_pos.size() +
         sizeof(double) * (sched_c.size() + sched_lb.size() + sched_ub.size());
}

namespace {

void permute(const std::vector<double>& from, const std::vector<int>& order,
             std::vector<double>& to) {
  to.resize(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) to[k] = from[order[k]];
}

/// True unless v is +0.0 (a -0.0 entry counts: it keeps its blocks joined).
bool stored(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits != 0;
}

/// The split of an n x n row-major block: row i's sub-block, numbered in
/// order of first row, or -1 for a constant row (row i and column i all
/// +0.0). Sub-blocks are the connected components of the stored pattern.
/// Returns the number of sub-blocks; `parent` and `cols` are scratch.
int split_rows(std::size_t n, std::span<const double> a,
               std::vector<int>& label, std::vector<int>& parent,
               std::vector<int>& cols) {
  parent.resize(n);
  cols.resize(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto root = [&](int i) {
    while (parent[i] != i) i = parent[i] = parent[parent[i]];
    return i;
  };
  // label[i] = 0 marks a used index until the numbering below. Each row's
  // stored columns are listed first (a branch-free compaction: about half
  // the entries are +0.0, in no predictable order).
  label.assign(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t count = 0;
    for (std::size_t j = 0; j < n; ++j) {
      cols[count] = static_cast<int>(j);
      count += stored(a[i * n + j]) ? 1 : 0;
    }
    if (count > 0) label[i] = 0;
    const int ri = root(static_cast<int>(i));
    for (std::size_t t = 0; t < count; ++t) {
      const int j = cols[t];
      label[j] = 0;
      parent[root(j)] = ri;  // ri stays the root of the merged set
    }
  }
  // Number the roots in order of first row (parent becomes the numbering).
  for (std::size_t i = 0; i < n; ++i) {
    if (label[i] == 0) label[i] = root(static_cast<int>(i));
  }
  std::fill(parent.begin(), parent.end(), -1);
  int next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (label[i] < 0) continue;
    int& number = parent[label[i]];
    if (number < 0) number = next++;
    label[i] = number;
  }
  return next;
}

}  // namespace

void PackedLocalSolvers::schedule_objective() {
  permute(c, global_order, sched_c);
}

void PackedLocalSolvers::schedule_bounds() {
  permute(lb, global_order, sched_lb);
  permute(ub, global_order, sched_ub);
}

const SubBlockGroup& PackedLocalSolvers::group_of(std::size_t b) const {
  return *std::upper_bound(
      sub_groups.begin(), sub_groups.end(), b,
      [](std::size_t v, const SubBlockGroup& g) { return v < g.end; });
}

namespace {

/// Block b's rows and entries in the image.
struct BlockView {
  std::size_t k;
  const int* rows;
  std::int64_t abar;
};

BlockView view(const PackedLocalSolvers& p, std::size_t b) {
  const SubBlockGroup& g = p.group_of(b);
  const auto k = static_cast<std::size_t>(g.dim);
  const auto t = static_cast<std::int64_t>(b - g.first);
  return {k, p.sub_rows.data() + g.rows + t * g.dim,
          g.abar + t * g.dim * g.dim};
}

}  // namespace

void PackedLocalSolvers::unpack_abar(std::size_t s,
                                     std::span<double> row_major) const {
  const auto n = static_cast<std::size_t>(comp_nvars[s]);
  const std::int64_t off = comp_offset[s];
  std::fill(row_major.begin(), row_major.begin() + n * n, 0.0);
  for (int t = comp_block_ptr[s]; t < comp_block_ptr[s + 1]; ++t) {
    const BlockView v = view(*this, static_cast<std::size_t>(comp_blocks[t]));
    const double* a = abar.data() + v.abar;
    for (std::size_t j = 0; j < v.k; ++j) {
      const auto cj = static_cast<std::size_t>(v.rows[j] - off);
      for (std::size_t i = 0; i < v.k; ++i) {
        const auto ri = static_cast<std::size_t>(v.rows[i] - off);
        row_major[ri * n + cj] = a[j * v.k + i];
      }
    }
  }
}

void PackedLocalSolvers::set_abar(std::size_t s,
                                  std::span<const double> row_major) {
  const auto n = static_cast<std::size_t>(comp_nvars[s]);
  const std::int64_t off = comp_offset[s];
  std::vector<int> current(n, -1);
  for (int t = comp_block_ptr[s]; t < comp_block_ptr[s + 1]; ++t) {
    const BlockView v = view(*this, static_cast<std::size_t>(comp_blocks[t]));
    for (std::size_t i = 0; i < v.k; ++i) {
      current[static_cast<std::size_t>(v.rows[i] - off)] =
          t - comp_block_ptr[s];
    }
  }
  std::vector<int> label, parent, cols;
  split_rows(n, row_major, label, parent, cols);
  if (label == current) {
    // Same split: every entry outside the blocks is +0.0 already.
    for (int t = comp_block_ptr[s]; t < comp_block_ptr[s + 1]; ++t) {
      const BlockView v =
          view(*this, static_cast<std::size_t>(comp_blocks[t]));
      double* a = abar.data() + v.abar;
      for (std::size_t j = 0; j < v.k; ++j) {
        const auto cj = static_cast<std::size_t>(v.rows[j] - off);
        for (std::size_t i = 0; i < v.k; ++i) {
          a[j * v.k + i] =
              row_major[static_cast<std::size_t>(v.rows[i] - off) * n + cj];
        }
      }
    }
    return;
  }
  // A new split moves blocks between size groups: lay the image out again
  // from every component's logical block.
  const std::size_t S = num_components();
  std::vector<std::vector<double>> dense(S);
  std::vector<std::span<const double>> blocks(S);
  for (std::size_t r = 0; r < S; ++r) {
    if (r == s) {
      blocks[r] = row_major;
      continue;
    }
    const auto nr = static_cast<std::size_t>(comp_nvars[r]);
    dense[r].resize(nr * nr);
    unpack_abar(r, dense[r]);
    blocks[r] = dense[r];
  }
  build_image(blocks);
}

void PackedLocalSolvers::build_image(
    const std::vector<std::span<const double>>& blocks) {
  // Every sub-block in component order, by first row inside a component:
  // its component, its z positions (found_rows from found_start) and its
  // schedule key (k, indexed).
  const std::size_t S = num_components();
  std::vector<int> found_comp, found_start, found_rows, label, parent, cols;
  std::vector<int> scratch;
  std::vector<std::pair<int, int>> keys;
  comp_block_ptr.assign(1, 0);
  comp_const_ptr.assign(1, 0);
  const_rows.clear();
  found_rows.reserve(total_local());
  for (std::size_t s = 0; s < S; ++s) {
    const auto n = static_cast<std::size_t>(comp_nvars[s]);
    const int count = split_rows(n, blocks[s], label, parent, cols);
    const int off = static_cast<int>(comp_offset[s]);
    // Counting sort of the rows by block; the constant rows apart.
    scratch.assign(static_cast<std::size_t>(count) + 1, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (label[i] < 0) {
        const_rows.push_back(off + static_cast<int>(i));
      } else {
        ++scratch[static_cast<std::size_t>(label[i]) + 1];
      }
    }
    const auto base = static_cast<int>(found_rows.size());
    for (int l = 0; l < count; ++l) {
      scratch[l + 1] += scratch[l];
      const int k = scratch[l + 1] - scratch[l];
      found_comp.push_back(static_cast<int>(s));
      found_start.push_back(base + scratch[l]);
      keys.push_back({k, 0});
    }
    found_rows.resize(found_rows.size() +
                      static_cast<std::size_t>(scratch[count]));
    for (std::size_t i = 0; i < n; ++i) {
      if (label[i] >= 0) {
        found_rows[static_cast<std::size_t>(base + scratch[label[i]]++)] =
            off + static_cast<int>(i);
      }
    }
    for (std::size_t t = keys.size() - static_cast<std::size_t>(count);
         t < keys.size(); ++t) {
      const int* rows = found_rows.data() + found_start[t];
      const int k = keys[t].first;
      keys[t].second = rows[k - 1] - rows[0] + 1 != k ? 1 : 0;
    }
    comp_block_ptr.push_back(static_cast<int>(keys.size()));
    comp_const_ptr.push_back(static_cast<int>(const_rows.size()));
  }

  // The schedule: a stable sort by (k, indexed).
  std::vector<std::size_t> ends;
  const std::vector<std::size_t> order =
      dopf::linalg::lanes::group_by(keys, &ends);
  std::size_t stored = 0;
  for (const auto& key : keys) {
    stored += static_cast<std::size_t>(key.first) * key.first;
  }
  comp_blocks.assign(keys.size(), 0);
  sub_groups.clear();
  sub_rows.clear();
  sub_rows.reserve(found_rows.size());
  abar.clear();
  abar.reserve(stored);  // resize below never reallocates
  std::size_t b = 0;
  for (const std::size_t end : ends) {
    const auto [k, indexed] = keys[order[b]];
    sub_groups.push_back({k, indexed != 0, b, end,
                          static_cast<std::int64_t>(abar.size()),
                          static_cast<std::int64_t>(sub_rows.size())});
    for (; b < end; ++b) {
      const std::size_t t = order[b];
      comp_blocks[t] = static_cast<int>(b);
      const int* rows = found_rows.data() + found_start[t];
      const auto s = static_cast<std::size_t>(found_comp[t]);
      const auto n = static_cast<std::size_t>(comp_nvars[s]);
      const auto off = static_cast<int>(comp_offset[s]);
      sub_rows.insert(sub_rows.end(), rows, rows + k);
      const std::size_t at = abar.size();
      abar.resize(at + static_cast<std::size_t>(k) * k);
      double* out = abar.data() + at;
      for (int i = 0; i < k; ++i) {
        const double* row =
            blocks[s].data() + static_cast<std::size_t>(rows[i] - off) * n;
        for (int j = 0; j < k; ++j) {
          out[j * k + i] = row[rows[j] - off];
        }
      }
    }
  }
}

PackedLocalSolvers PackedLocalSolvers::build(
    const DistributedProblem& problem,
    const std::vector<std::span<const double>>& abar,
    std::vector<double> bbar) {
  PackedLocalSolvers pack;
  const std::size_t S = problem.components.size();
  pack.comp_offset.reserve(S);
  pack.comp_nvars.reserve(S);
  pack.bbar = std::move(bbar);
  pack.global_idx.reserve(pack.bbar.size());

  std::int64_t zoff = 0;
  for (const Component& comp : problem.components) {
    pack.comp_offset.push_back(zoff);
    pack.comp_nvars.push_back(static_cast<int>(comp.num_vars()));
    pack.global_idx.insert(pack.global_idx.end(), comp.global.begin(),
                           comp.global.end());
    zoff += static_cast<std::int64_t>(comp.num_vars());
  }
  pack.build_image(abar);

  const std::size_t n = problem.num_vars;
  pack.c = problem.c;
  pack.lb = problem.lb;
  pack.ub = problem.ub;
  pack.x0 = problem.x0;
  // Gather lists: z positions per global variable, in ascending z order so
  // per-variable summation matches the component-order scatter bit-for-bit.
  pack.gather_ptr.assign(n + 1, 0);
  for (int g : pack.global_idx) ++pack.gather_ptr[g + 1];
  for (std::size_t i = 0; i < n; ++i) {
    pack.gather_ptr[i + 1] += pack.gather_ptr[i];
  }
  pack.gather_pos.resize(pack.global_idx.size());
  std::vector<std::int64_t> cursor(pack.gather_ptr.begin(),
                                   pack.gather_ptr.end() - 1);
  for (std::size_t pos = 0; pos < pack.global_idx.size(); ++pos) {
    pack.gather_pos[cursor[pack.global_idx[pos]]++] =
        static_cast<std::int64_t>(pos);
  }
  // Global-update schedule: a stable partition of the variables by copy
  // count, so each fixed-degree bucket runs a fixed-trip gather over
  // contiguous positions and contiguous c/lb/ub.
  auto degree = [&](std::size_t i) {
    return pack.gather_ptr[i + 1] - pack.gather_ptr[i];
  };
  pack.global_order.reserve(n);
  for (int d = 1; d <= kMaxBucketDegree; ++d) {
    for (std::size_t i = 0; i < n; ++i) {
      if (degree(i) != d) continue;
      pack.global_order.push_back(static_cast<int>(i));
      for (std::int64_t k = pack.gather_ptr[i]; k < pack.gather_ptr[i + 1];
           ++k) {
        pack.bucket_pos.push_back(static_cast<int>(pack.gather_pos[k]));
      }
    }
    pack.bucket_end[d - 1] = pack.global_order.size();
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (degree(i) < 1 || degree(i) > kMaxBucketDegree) {
      pack.global_order.push_back(static_cast<int>(i));
    }
  }
  pack.schedule_objective();
  pack.schedule_bounds();
  return pack;
}

}  // namespace dopf::core

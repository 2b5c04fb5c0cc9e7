#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "opf/decompose.hpp"

namespace dopf::core {

/// One size class of the sub-block schedule: blocks [first, end).
struct SubBlockGroup {
  int dim = 0;              ///< k: every block of the group is k x k
  bool indexed = false;     ///< rows not contiguous in z (read sub_rows)
  std::size_t first = 0;    ///< the group's first block
  std::size_t end = 0;      ///< one past the group's last block
  std::int64_t abar = 0;    ///< store offset of the group's first block
  std::int64_t rows = 0;    ///< sub_rows offset of the group's first block
};

/// Packed structure-of-arrays image of everything the per-iteration updates
/// touch — the flat device-array layout of the paper's Sec. IV-C/IV-D,
/// shared by every execution backend (serial / threaded / SIMT):
///
///   - the sub-block image of every Abar_s: Abar_s is a direct sum of
///     independent sub-blocks, the connected components of its non-+0.0
///     pattern (read from the bits, so a -0.0 entry keeps its blocks
///     joined). A row whose row and column are all +0.0 is a constant row
///     (z = bbar whatever y is); every other row belongs to one k x k
///     sub-block, stored densely and column-major in `abar`. The blocks
///     are grouped by size across components (`sub_groups`: ascending k,
///     contiguous blocks before indexed ones, then by component and first
///     row), which is also the order of the store and of `sub_rows`, each
///     block's z positions;
///   - each component's own blocks (`comp_blocks` from `comp_block_ptr`)
///     and constant rows (`const_rows` from `comp_const_ptr`), for the
///     per-component walk of the SIMT launch and the component timers;
///   - all bbar_s concatenated (same {comp_offset, comp_nvars} layout as z);
///   - each B_s lowered to the flat gather array `global_idx`
///     (z position -> global variable), plus the transposed CSR
///     `gather_ptr`/`gather_pos` that turns the B' scatter of the global
///     update (18) into independent per-variable gathers;
///   - the degree-bucketed global-update schedule `global_order` /
///     `bucket_end`, with each bucket's copy positions (`bucket_pos`) and
///     c/lb/ub (`sched_c`, `sched_lb`, `sched_ub`) stored in schedule
///     order, built once per topology;
///   - the global objective/bounds (c, lb, ub).
///
/// Gather lists store z positions in ascending order, so per-variable sums
/// accumulate in exactly the order the component-by-component scatter would
/// produce — this is what keeps all backends bit-identical.
struct PackedLocalSolvers {
  /// Largest copy count with its own fixed-trip global-update bucket.
  static constexpr int kMaxBucketDegree = 3;

  // Per component s:
  std::vector<std::int64_t> comp_offset;  ///< start of x_s within z
  std::vector<int> comp_nvars;            ///< n_s
  /// Component s's blocks are comp_blocks[comp_block_ptr[s] ..
  /// comp_block_ptr[s + 1]) (ascending first row); its constant rows are
  /// const_rows[comp_const_ptr[s] .. comp_const_ptr[s + 1]).
  std::vector<int> comp_block_ptr, comp_blocks, comp_const_ptr;
  // Concatenated payloads:
  std::vector<double> abar;     ///< every sub-block, schedule order
  std::vector<double> bbar;     ///< all bbar_s
  std::vector<int> global_idx;  ///< z position -> global variable (B_s)
  /// The sub-block schedule, and each block's z positions (ascending) in
  /// schedule order: block b of group g has rows
  /// sub_rows[g.rows + (b - g.first) k ..] and entries
  /// abar[g.abar + (b - g.first) k^2 ..], entry (i, j) at j k + i.
  std::vector<SubBlockGroup> sub_groups;
  std::vector<int> sub_rows;
  std::vector<int> const_rows;  ///< constant rows' z positions, ascending
  // Per global variable i (CSR over z positions holding copies of i):
  std::vector<std::int64_t> gather_ptr;
  std::vector<std::int64_t> gather_pos;
  /// Every global variable once, grouped by copy count: degree 1 in
  /// [0, bucket_end[0]), degree d <= kMaxBucketDegree in
  /// [bucket_end[d-2], bucket_end[d-1]), every other degree after
  /// bucket_end[kMaxBucketDegree-1]; ascending within a group.
  std::vector<int> global_order;
  std::array<std::size_t, kMaxBucketDegree> bucket_end{};
  /// Bucket-major copy positions: the gather_pos list of global_order[k]
  /// for every k in the degree-d bucket, at stride d, bucket after bucket.
  std::vector<int> bucket_pos;
  /// c, lb and ub permuted into global_order order (sched_c[k] is
  /// c[global_order[k]]); schedule_objective/schedule_bounds refresh them.
  std::vector<double> sched_c, sched_lb, sched_ub;
  std::vector<double> c, lb, ub;
  std::vector<double> x0;  ///< global initial iterate (scenario data)

  std::size_t num_components() const { return comp_nvars.size(); }
  std::size_t num_global() const { return c.size(); }
  std::size_t total_local() const { return global_idx.size(); }
  std::size_t num_blocks() const {
    return sub_groups.empty() ? 0 : sub_groups.back().end;
  }
  /// Length of the local schedule: every sub-block, then every constant
  /// row.
  std::size_t local_items() const { return num_blocks() + const_rows.size(); }
  /// Packed footprint in bytes, both schedules included (diagnostics; the
  /// model cache budget).
  std::size_t bytes() const;
  /// The part of bytes() a simulated device uploads: everything but
  /// bucket_pos and the sched_* copies, which only the serial and threaded
  /// global update walks.
  std::size_t image_bytes() const;

  /// The group holding schedule block b.
  const SubBlockGroup& group_of(std::size_t b) const;
  /// Abar_s written out row-major (n_s x n_s): the stored bits, +0.0
  /// outside its blocks.
  void unpack_abar(std::size_t s, std::span<double> row_major) const;
  /// Replace Abar_s by a row-major block. When the new block splits into
  /// the same sub-blocks and constant rows, its entries are written in
  /// place; otherwise the image is rebuilt, exactly as build would lay it
  /// out.
  void set_abar(std::size_t s, std::span<const double> row_major);

  /// Refresh sched_c from c (resp. sched_lb/sched_ub from lb/ub) after an
  /// in-place edit of the objective (bounds).
  void schedule_objective();
  void schedule_bounds();

  /// Pack the problem with every Abar_s (`abar[s]`, n_s x n_s row-major)
  /// and all bbar_s concatenated; the dense blocks are not needed
  /// afterwards.
  static PackedLocalSolvers build(
      const dopf::opf::DistributedProblem& problem,
      const std::vector<std::span<const double>>& abar,
      std::vector<double> bbar);

 private:
  /// Lay out the sub-block image of the row-major blocks, one per
  /// component.
  void build_image(const std::vector<std::span<const double>>& blocks);
};

}  // namespace dopf::core

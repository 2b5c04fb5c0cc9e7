#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "linalg/affine_projector.hpp"
#include "opf/decompose.hpp"

namespace dopf::core {

/// Precomputed closed-form local solvers: the Abar_s / bbar_s pairs of
/// (15b)-(15c), one AffineProjector per component (lines 2-3 of
/// Algorithm 1). Reusable across solver instances and rho values; the
/// per-iteration machinery consumes the packed form below.
struct LocalSolvers {
  std::vector<dopf::linalg::AffineProjector> projectors;
  /// Largest Tikhonov ridge any projector needed (0 = all exact). Nonzero
  /// only when `options.auto_regularize` was set (preflight remediation).
  double max_ridge = 0.0;

  /// Build one projector per component. A component whose Gram matrix is
  /// not SPD (and that the `options` policy cannot regularize) raises
  /// opf::ConditioningError with component/row provenance instead of a
  /// bare SingularMatrixError from deep inside the factorization.
  static LocalSolvers precompute(
      const dopf::opf::DistributedProblem& problem,
      const dopf::linalg::ProjectorOptions& options = {});
};

/// Rows per Abar panel: the lane width of every packed kernel (see
/// core/packed_kernels.hpp and DESIGN.md §11).
inline constexpr std::size_t kPanelRows = 4;

/// Packed structure-of-arrays image of everything the per-iteration updates
/// touch — the flat device-array layout of the paper's Sec. IV-C/IV-D,
/// shared by every execution backend (serial / threaded / SIMT):
///
///   - all Abar_s matrices in one panel store: the rows of each Abar_s are
///     grouped in panels of kPanelRows, each panel stored column-major
///     (the kPanelRows entries of column j are adjacent), the last panel
///     zero-padded; addressed by per-component {abar_offset, comp_nvars};
///   - all bbar_s concatenated (same {comp_offset, comp_nvars} layout as z);
///   - each B_s lowered to the flat gather array `global_idx`
///     (z position -> global variable), plus the transposed CSR
///     `gather_ptr`/`gather_pos` that turns the B' scatter of the global
///     update (18) into independent per-variable gathers;
///   - the degree-bucketed global-update schedule `global_order` /
///     `bucket_end`, built once per topology;
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
  std::vector<std::int64_t> abar_offset;  ///< start of Abar_s's panels
  std::vector<int> comp_nvars;            ///< n_s
  // Concatenated payloads:
  std::vector<double> abar;     ///< all Abar_s, panel-interleaved
  std::vector<double> bbar;     ///< all bbar_s
  std::vector<int> global_idx;  ///< z position -> global variable (B_s)
  // Per global variable i (CSR over z positions holding copies of i):
  std::vector<std::int64_t> gather_ptr;
  std::vector<std::int64_t> gather_pos;
  /// Every global variable once, grouped by copy count: degree 1 in
  /// [0, bucket_end[0]), degree d <= kMaxBucketDegree in
  /// [bucket_end[d-2], bucket_end[d-1]), every other degree after
  /// bucket_end[kMaxBucketDegree-1]; ascending within a group.
  std::vector<int> global_order;
  std::array<std::size_t, kMaxBucketDegree> bucket_end{};
  std::vector<double> c, lb, ub;
  std::vector<double> x0;  ///< global initial iterate (scenario data)

  std::size_t num_components() const { return comp_nvars.size(); }
  std::size_t num_global() const { return c.size(); }
  std::size_t total_local() const { return global_idx.size(); }
  /// Packed footprint in bytes, panel padding and schedule included
  /// (diagnostics; the SIMT upload charge; the model cache budget).
  std::size_t bytes() const;

  /// Panel-store size of one n x n block (rows rounded up to kPanelRows).
  static std::size_t panel_size(std::size_t n) {
    return (n + kPanelRows - 1) / kPanelRows * kPanelRows * n;
  }
  /// Scatter a row-major Abar_s into component s's panels.
  void set_abar(std::size_t s, std::span<const double> row_major);
  /// Entry (i, j) of Abar_s, read through the panel layout.
  double abar_at(std::size_t s, std::size_t i, std::size_t j) const {
    const std::size_t n = static_cast<std::size_t>(comp_nvars[s]);
    return abar[static_cast<std::size_t>(abar_offset[s]) +
                i / kPanelRows * kPanelRows * n + j * kPanelRows +
                i % kPanelRows];
  }

  /// Pack the precomputed projectors once; the projector objects are not
  /// needed afterwards.
  static PackedLocalSolvers build(const dopf::opf::DistributedProblem& problem,
                                  const LocalSolvers& solvers);
};

}  // namespace dopf::core

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/backend.hpp"
#include "core/packed_solvers.hpp"
#include "linalg/lanes.hpp"

/// The per-entry update expressions of Algorithm 1 over the packed SoA
/// storage. Every execution backend (serial, threaded, SIMT single- and
/// multi-device) calls these same inline kernels, so the floating-point
/// expression and summation order of each update exist in exactly one
/// place — which is what makes cross-backend bit-identity a structural
/// property instead of a test-enforced coincidence.
///
/// SIMD rule (DESIGN.md §11): vector lanes run across independent rows,
/// variables or z positions, never across the terms of one sum. Each lane
/// evaluates the scalar expression with a separate multiply and add
/// (the build sets -ffp-contract=off), and every sum keeps its ascending
/// order, so the vector kernels are bit-identical to scalar loops.
namespace dopf::core::kernels {

/// The two-lane register of linalg/lanes.hpp; one holds two rows of a
/// sub-block.
using dopf::linalg::lanes::Vec2;

inline Vec2 load2(const double* p) {
  Vec2 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void store2(double* p, Vec2 v) { std::memcpy(p, &v, sizeof(v)); }

using dopf::linalg::lanes::Mask2;

/// The bits of v, as a mask.
inline Mask2 bits(Vec2 v) {
  Mask2 m;
  std::memcpy(&m, &v, sizeof(m));
  return m;
}

/// One copy's share of the global sum (18): rho z - lambda. T is double or
/// Vec2 (lanes across variables).
template <class T>
inline T global_term(double rho, T z, T lambda) {
  return rho * z - lambda;
}

/// The closing expression of (18) for an accumulated sum:
///   clip((acc - c) / (rho deg), lb, ub)
/// with exactly std::max/std::min semantics (NaN and signed zeros alike).
template <class T>
inline T global_value(T acc, T c, T lb, T ub, double rho_deg) {
  const T xhat = (acc - c) / rho_deg;
  const T above = xhat < lb ? lb : xhat;  // std::max(xhat, lb)
  return ub < above ? ub : above;         // std::min(above, ub)
}

/// Staging expression of (15): B_s x + lambda / rho, per lane.
template <class T>
inline T stage_value(T bx, T lambda, double rho) {
  return bx + lambda / rho;
}

/// Dual expression of (12): lambda + rho (B x - x_s), per lane.
template <class T>
inline T dual_value(T lambda, double rho, T bx, T z) {
  return lambda + rho * (bx - z);
}

/// Over-relaxation of B x: the local and dual updates see
///   alpha B x + (1 - alpha) z_prev
/// in place of B x when kRelaxed. Kernels fix kRelaxed = (alpha != 1) once
/// per call, so the paper path keeps B x itself: the relaxed form at
/// alpha == 1 would turn -0 into +0 (0 z_prev) and a non-finite z_prev into
/// NaN.
template <bool kRelaxed, class T>
inline T relaxed_value(T bx, T zp, double alpha) {
  if constexpr (kRelaxed) {
    return alpha * bx + (1.0 - alpha) * zp;
  } else {
    return bx;
  }
}

/// Global update (18), one global variable i:
///   x_i = clip((sum_{copies} (rho z - lambda) - c_i) / (rho deg_i)).
/// The CSR gather visits z positions in ascending order (see
/// PackedLocalSolvers::build), fixing the summation order.
inline void global_entry(const PackedLocalSolvers& p, const double* z,
                         const double* lambda, double rho, std::size_t i,
                         double* x) {
  const std::int64_t p0 = p.gather_ptr[i];
  const std::int64_t p1 = p.gather_ptr[i + 1];
  double acc = 0.0;
  for (std::int64_t k = p0; k < p1; ++k) {
    const std::int64_t pos = p.gather_pos[k];
    acc += global_term(rho, z[pos], lambda[pos]);
  }
  x[i] = global_value(acc, p.c[i], p.lb[i], p.ub[i],
                      rho * static_cast<double>(p1 - p0));
}

/// Global update (18) for the copy-count-D bucket's share of
/// global_order[k, end): fixed-trip gathers, two variables per vector. The
/// bucket's copy positions and c/lb/ub are read in schedule order
/// (bucket_pos, sched_*), so both streams are contiguous. Advances k past
/// the bucket.
template <int D>
inline void global_bucket(const PackedLocalSolvers& p, const double* z,
                          const double* lambda, double rho, std::size_t& k,
                          std::size_t end, double* x) {
  const std::size_t stop = std::min(end, p.bucket_end[D - 1]);
  if (k >= stop) return;
  // Bucket D's positions follow those of the buckets of degree < D.
  std::size_t first = 0, base = 0;
  for (int d = 1; d < D; ++d) {
    base += static_cast<std::size_t>(d) * (p.bucket_end[d - 1] - first);
    first = p.bucket_end[d - 1];
  }
  const int* order = p.global_order.data();
  const int* pos = p.bucket_pos.data() + base + (k - first) * D;
  const double* c = p.sched_c.data();
  const double* lb = p.sched_lb.data();
  const double* ub = p.sched_ub.data();
  const double rho_deg = rho * static_cast<double>(D);
  for (; k + 2 <= stop; k += 2, pos += 2 * D) {
    Vec2 acc = {0.0, 0.0};
    for (int d = 0; d < D; ++d) {
      acc += global_term(rho, Vec2{z[pos[d]], z[pos[D + d]]},
                         Vec2{lambda[pos[d]], lambda[pos[D + d]]});
    }
    const Vec2 xv =
        global_value(acc, load2(c + k), load2(lb + k), load2(ub + k), rho_deg);
    x[order[k]] = xv[0];
    x[order[k + 1]] = xv[1];
  }
  if (k < stop) {
    double acc = 0.0;
    for (int d = 0; d < D; ++d) {
      acc += global_term(rho, z[pos[d]], lambda[pos[d]]);
    }
    x[order[k]] = global_value(acc, c[k], lb[k], ub[k], rho_deg);
    ++k;
  }
}

/// Global update (18) for the schedule slice global_order[begin, end): the
/// degree buckets run fixed-trip gathers, every other degree global_entry.
/// Each x_i is written once, so any slicing gives the same bits.
inline void global_range(const PackedLocalSolvers& p, const double* z,
                         const double* lambda, double rho, std::size_t begin,
                         std::size_t end, double* x) {
  static_assert(PackedLocalSolvers::kMaxBucketDegree == 3);
  std::size_t k = begin;
  global_bucket<1>(p, z, lambda, rho, k, end, x);
  global_bucket<2>(p, z, lambda, rho, k, end, x);
  global_bucket<3>(p, z, lambda, rho, k, end, x);
  for (; k < end; ++k) global_entry(p, z, lambda, rho, p.global_order[k], x);
}

/// stage_range with kRelaxed fixed.
template <bool kRelaxed>
inline bool stage_lanes(const PackedLocalSolvers& p, const PackedState& st,
                        std::size_t begin, std::size_t end) {
  const int* g = p.global_idx.data();
  const double* x = st.x.data();
  const double* l = st.lambda.data();
  const double* zp = st.z_prev.data();
  double* y = st.y.data();
  const double rho = st.rho, alpha = st.alpha;
  // v - v is +0.0 (no bits set) exactly when v is finite.
  Mask2 bad = {0, 0};
  std::size_t j = begin;
  for (; j + 2 <= end; j += 2) {
    const Vec2 bx = relaxed_value<kRelaxed>(Vec2{x[g[j]], x[g[j + 1]]},
                                            load2(zp + j), alpha);
    const Vec2 v = stage_value(bx, load2(l + j), rho);
    store2(y + j, v);
    bad |= bits(v - v);
  }
  bool finite = (bad[0] | bad[1]) == 0;
  if (j < end) {
    y[j] = stage_value(relaxed_value<kRelaxed>(x[g[j]], zp[j], alpha), l[j],
                       rho);
    finite = finite && std::isfinite(y[j]);
  }
  return finite;
}

/// Local update (15), staging half over z positions [begin, end):
///   y = B x + lambda / rho, written into st.y, with B x relaxed when
/// st.alpha != 1 (relaxed_value). Returns false when a staged value is
/// not finite: the sub-block image is exact only for finite y (see
/// dense_component).
inline bool stage_range(const PackedLocalSolvers& p, const PackedState& st,
                        std::size_t begin, std::size_t end) {
  return st.alpha == 1.0 ? stage_lanes<false>(p, st, begin, end)
                         : stage_lanes<true>(p, st, begin, end);
}

/// Projection rows [r0, r0 + 2 H + kTail) of B consecutive size-k blocks
/// of one group, in lockstep: for each row i of a block,
///   z_i = bbar_i - sum_j Abar(i, j) y_j   (the projection form (15)),
/// j running over the block's rows, ascending. Block t's entries start at
/// a + t k^2 (column-major) and its z positions at rows + t k; a contiguous
/// block (!kIndexed) reads only the first. Each Vec2 accumulator holds two
/// rows of one block, the scalar tail an odd last row, and all of them move
/// through one j loop, so that many add chains are in flight. Each row's
/// sum still starts at 0.0 and adds Abar(i, j) y_j for ascending j, as a
/// scalar row loop does. K > 0 fixes k at compile time, so the j loop
/// unrolls; K == 0 reads `dim`.
template <int H, bool kTail, int B, bool kIndexed, int K = 0>
inline void project_blocks(const double* a, const int* rows, std::size_t dim,
                           std::size_t r0, const double* bbar,
                           const double* y, double* z) {
  const std::size_t k = K > 0 ? static_cast<std::size_t>(K) : dim;
  const double* col[B];
  const int* pos[B];
  const double* yb[B];
  for (int b = 0; b < B; ++b) {
    col[b] = a + static_cast<std::size_t>(b) * k * k + r0;
    pos[b] = rows + static_cast<std::size_t>(b) * k;
    yb[b] = y + pos[b][0];
  }
  Vec2 acc[B][H > 0 ? H : 1];
  double tail[B];
  for (int b = 0; b < B; ++b) {
    for (int h = 0; h < H; ++h) acc[b][h] = Vec2{0.0, 0.0};
    tail[b] = 0.0;
  }
  for (std::size_t j = 0; j < k; ++j) {
    for (int b = 0; b < B; ++b) {
      const double yj = kIndexed ? y[pos[b][j]] : yb[b][j];
      const double* c = col[b] + j * k;
      for (int h = 0; h < H; ++h) acc[b][h] += load2(c + 2 * h) * yj;
      if constexpr (kTail) tail[b] += c[2 * H] * yj;
    }
  }
  for (int b = 0; b < B; ++b) {
    for (int h = 0; h < H; ++h) {
      const std::size_t r = r0 + 2 * static_cast<std::size_t>(h);
      if constexpr (kIndexed) {
        const int p0 = pos[b][r], p1 = pos[b][r + 1];
        z[p0] = bbar[p0] - acc[b][h][0];
        z[p1] = bbar[p1] - acc[b][h][1];
      } else {
        const std::size_t p0 = static_cast<std::size_t>(pos[b][0]) + r;
        store2(z + p0, load2(bbar + p0) - acc[b][h]);
      }
    }
    if constexpr (kTail) {
      const std::size_t r = r0 + 2 * H;
      const std::size_t p0 = kIndexed
                                 ? static_cast<std::size_t>(pos[b][r])
                                 : static_cast<std::size_t>(pos[b][0]) + r;
      z[p0] = bbar[p0] - tail[b];
    }
  }
}

/// Blocks per lockstep pass for size k: as many as keep the accumulators
/// (two rows per register, plus the odd row's) within twelve of the 16
/// vector registers, at most four.
constexpr int lockstep_width(int k) {
  const int regs = k / 2 + k % 2;
  return std::max(1, std::min(4, 12 / regs));
}

/// `count` consecutive contiguous size-K blocks, B = lockstep_width(K) at a
/// time and the rest one by one.
template <int K>
inline void blocks_fixed(const double* a, const int* rows, std::size_t count,
                         const double* bbar, const double* y, double* z) {
  constexpr int H = K / 2;
  constexpr bool kTail = K % 2 != 0;
  constexpr int B = lockstep_width(K);
  constexpr std::size_t kk = static_cast<std::size_t>(K) * K;
  std::size_t t = 0;
  for (; t + B <= count; t += B) {
    project_blocks<H, kTail, B, false, K>(a + t * kk, rows + t * K, K, 0,
                                          bbar, y, z);
  }
  for (; t < count; ++t) {
    project_blocks<H, kTail, 1, false, K>(a + t * kk, rows + t * K, K, 0,
                                          bbar, y, z);
  }
}

/// Rows [r0, r0 + R) of one block of any size, R <= 16: R / 2 two-row
/// accumulators and, for odd R, the scalar tail.
template <bool kIndexed, int R = 1>
inline void generic_rows(std::size_t rows_left, const double* a,
                         const int* rows, std::size_t k, std::size_t r0,
                         const double* bbar, const double* y, double* z) {
  if constexpr (R < 16) {
    if (rows_left != R) {
      generic_rows<kIndexed, R + 1>(rows_left, a, rows, k, r0, bbar, y, z);
      return;
    }
  }
  project_blocks<R / 2, R % 2 != 0, 1, kIndexed>(a, rows, k, r0, bbar, y, z);
}

/// `count` consecutive size-k blocks of any size, one at a time, up to 16
/// rows per j loop: every size without a fixed-size kernel, and every
/// indexed block.
template <bool kIndexed>
inline void blocks_generic(const double* a, const int* rows, std::size_t k,
                           std::size_t count, const double* bbar,
                           const double* y, double* z) {
  for (std::size_t t = 0; t < count; ++t, a += k * k, rows += k) {
    for (std::size_t r0 = 0; r0 < k; r0 += 16) {
      generic_rows<kIndexed>(std::min<std::size_t>(16, k - r0), a, rows, k,
                             r0, bbar, y, z);
    }
  }
}

/// Projection of blocks [lo, hi) of group g: each common size runs its
/// fixed-size kernel, every other size and every indexed group the generic
/// one.
inline void project_group(const PackedLocalSolvers& p, const SubBlockGroup& g,
                          std::size_t lo, std::size_t hi, const double* y,
                          double* z) {
  const auto k = static_cast<std::size_t>(g.dim);
  const double* a = p.abar.data() + g.abar +
                    static_cast<std::int64_t>((lo - g.first) * k * k);
  const int* rows = p.sub_rows.data() + g.rows +
                    static_cast<std::int64_t>((lo - g.first) * k);
  const double* bbar = p.bbar.data();
  const std::size_t count = hi - lo;
  if (g.indexed) {
    blocks_generic<true>(a, rows, k, count, bbar, y, z);
    return;
  }
  switch (g.dim) {
    case 1: blocks_fixed<1>(a, rows, count, bbar, y, z); break;
    case 2: blocks_fixed<2>(a, rows, count, bbar, y, z); break;
    case 3: blocks_fixed<3>(a, rows, count, bbar, y, z); break;
    case 4: blocks_fixed<4>(a, rows, count, bbar, y, z); break;
    case 5: blocks_fixed<5>(a, rows, count, bbar, y, z); break;
    case 6: blocks_fixed<6>(a, rows, count, bbar, y, z); break;
    case 7: blocks_fixed<7>(a, rows, count, bbar, y, z); break;
    case 8: blocks_fixed<8>(a, rows, count, bbar, y, z); break;
    case 9: blocks_fixed<9>(a, rows, count, bbar, y, z); break;
    case 10: blocks_fixed<10>(a, rows, count, bbar, y, z); break;
    case 11: blocks_fixed<11>(a, rows, count, bbar, y, z); break;
    case 12: blocks_fixed<12>(a, rows, count, bbar, y, z); break;
    case 18: blocks_fixed<18>(a, rows, count, bbar, y, z); break;
    default: blocks_generic<false>(a, rows, k, count, bbar, y, z);
  }
}

/// Local update (15), projection half for the schedule slice [begin, end)
/// of local_items(): sub-blocks first (each group through project_group),
/// then the constant rows, z = bbar. Reads the y that stage_range wrote.
/// Each row has one writer, so any slicing gives the same bits.
inline void project_range(const PackedLocalSolvers& p, const PackedState& st,
                          std::size_t begin, std::size_t end) {
  const double* y = st.y.data();
  double* z = st.z.data();
  for (const SubBlockGroup& g : p.sub_groups) {
    if (g.first >= end) break;
    const std::size_t lo = std::max(begin, g.first);
    const std::size_t hi = std::min(end, g.end);
    if (lo < hi) project_group(p, g, lo, hi, y, z);
  }
  const std::size_t blocks = p.num_blocks();
  for (std::size_t k = std::max(begin, blocks); k < end; ++k) {
    const int pos = p.const_rows[k - blocks];
    z[pos] = p.bbar[pos];
  }
}

/// The dense local update of component s from its staged y: one
/// sequential sum per row over all n_s logical entries of Abar_s (+0.0
/// outside its blocks). It reproduces what a dense kernel makes of
/// non-finite staged values (0 * inf and 0 * NaN are NaN), which the
/// sub-block image skips.
inline void dense_component(const PackedLocalSolvers& p, const PackedState& st,
                            std::size_t s) {
  const auto n = static_cast<std::size_t>(p.comp_nvars[s]);
  const auto off = static_cast<std::size_t>(p.comp_offset[s]);
  std::vector<double> a(n * n);
  p.unpack_abar(s, a);
  const double* y = st.y.data() + off;
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) sum += a[i * n + j] * y[j];
    st.z[off + i] = p.bbar[off + i] - sum;
  }
}

/// Local update (15) for one component s, through the same kernels as the
/// schedule: stage its positions, project its blocks one at a time, copy
/// its constant rows, and redo it densely if a staged value is not finite.
/// The SIMT per-block launch and the component timers run it.
inline void local_component(const PackedLocalSolvers& p, const PackedState& st,
                            std::size_t s) {
  const auto off = static_cast<std::size_t>(p.comp_offset[s]);
  const bool finite = stage_range(
      p, st, off, off + static_cast<std::size_t>(p.comp_nvars[s]));
  for (int t = p.comp_block_ptr[s]; t < p.comp_block_ptr[s + 1]; ++t) {
    const auto b = static_cast<std::size_t>(p.comp_blocks[t]);
    project_group(p, p.group_of(b), b, b + 1, st.y.data(), st.z.data());
  }
  for (int t = p.comp_const_ptr[s]; t < p.comp_const_ptr[s + 1]; ++t) {
    const int pos = p.const_rows[t];
    st.z[pos] = p.bbar[pos];
  }
  if (!finite) dense_component(p, st, s);
}

/// dual_range with kRelaxed fixed.
template <bool kRelaxed>
inline void dual_lanes(const PackedLocalSolvers& p, const PackedState& st,
                       std::size_t begin, std::size_t end) {
  const int* g = p.global_idx.data();
  const double* x = st.x.data();
  const double* z = st.z.data();
  const double* zp = st.z_prev.data();
  double* lambda = st.lambda.data();
  const double rho = st.rho, alpha = st.alpha;
  std::size_t pos = begin;
  for (; pos + 2 <= end; pos += 2) {
    const Vec2 bx = relaxed_value<kRelaxed>(Vec2{x[g[pos]], x[g[pos + 1]]},
                                            load2(zp + pos), alpha);
    store2(lambda + pos,
           dual_value(load2(lambda + pos), rho, bx, load2(z + pos)));
  }
  if (pos < end) {
    lambda[pos] =
        dual_value(lambda[pos], rho,
                   relaxed_value<kRelaxed>(x[g[pos]], zp[pos], alpha), z[pos]);
  }
}

/// Dual update (12) over z positions [begin, end), two per vector:
///   lambda += rho (B x - x_s), with B x relaxed when st.alpha != 1.
inline void dual_range(const PackedLocalSolvers& p, const PackedState& st,
                       std::size_t begin, std::size_t end) {
  if (st.alpha == 1.0) {
    dual_lanes<false>(p, st, begin, end);
  } else {
    dual_lanes<true>(p, st, begin, end);
  }
}

}  // namespace dopf::core::kernels

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "core/packed_solvers.hpp"

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

/// Two double lanes in one native vector register (SSE2 on x86-64, NEON on
/// AArch64); two of them span one kPanelRows panel. A compiler vector
/// extension rather than intrinsics, so there is one kernel for every ISA.
using Vec2 = double __attribute__((vector_size(2 * sizeof(double))));

inline Vec2 load2(const double* p) {
  Vec2 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void store2(double* p, Vec2 v) { std::memcpy(p, &v, sizeof(v)); }

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
/// global_order[k, end): fixed-trip gathers, two variables per vector.
/// Advances k past the bucket.
template <int D>
inline void global_bucket(const PackedLocalSolvers& p, const double* z,
                          const double* lambda, double rho, std::size_t& k,
                          std::size_t end, double* x) {
  const std::size_t stop = std::min(end, p.bucket_end[D - 1]);
  const int* order = p.global_order.data();
  const std::int64_t* ptr = p.gather_ptr.data();
  const std::int64_t* pos = p.gather_pos.data();
  const double rho_deg = rho * static_cast<double>(D);
  for (; k + 2 <= stop; k += 2) {
    const int i0 = order[k], i1 = order[k + 1];
    const std::int64_t* g0 = pos + ptr[i0];
    const std::int64_t* g1 = pos + ptr[i1];
    Vec2 acc = {0.0, 0.0};
    for (int d = 0; d < D; ++d) {
      acc += global_term(rho, Vec2{z[g0[d]], z[g1[d]]},
                         Vec2{lambda[g0[d]], lambda[g1[d]]});
    }
    const Vec2 xv = global_value(acc, Vec2{p.c[i0], p.c[i1]},
                                 Vec2{p.lb[i0], p.lb[i1]},
                                 Vec2{p.ub[i0], p.ub[i1]}, rho_deg);
    x[i0] = xv[0];
    x[i1] = xv[1];
  }
  if (k < stop) global_entry(p, z, lambda, rho, order[k++], x);
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

/// Local update (15), staging half for component s:
///   y_s = B_s x + lambda_s / rho, written into the scratch pool.
inline void stage_component(const PackedLocalSolvers& p, const double* x,
                            const double* lambda, double rho, std::size_t s,
                            double* y_pool) {
  const std::size_t ns = static_cast<std::size_t>(p.comp_nvars[s]);
  const std::int64_t off = p.comp_offset[s];
  const int* g = p.global_idx.data() + off;
  const double* l = lambda + off;
  double* y = y_pool + off;
  std::size_t j = 0;
  for (; j + 2 <= ns; j += 2) {
    const Vec2 bx = {x[g[j]], x[g[j + 1]]};
    store2(y + j, stage_value(bx, load2(l + j), rho));
  }
  if (j < ns) y[j] = stage_value(x[g[j]], l[j], rho);
}

/// Local update (15), projection half for component s:
///   x_s = bbar_s - Abar_s y_s   (the projection form; dense matvec over the
/// panel store). The lanes of a panel are its kPanelRows rows; each row's
/// sum runs over columns in ascending order, as in a scalar row loop. A
/// last panel with at most two real rows skips its padding half.
inline void project_component(const PackedLocalSolvers& p, std::size_t s,
                              const double* y_pool, double* z) {
  static_assert(kPanelRows == 4);
  const std::size_t ns = static_cast<std::size_t>(p.comp_nvars[s]);
  const std::int64_t off = p.comp_offset[s];
  const double* y = y_pool + off;
  const double* bbar = p.bbar.data() + off;
  double* out = z + off;
  const double* panel = p.abar.data() + p.abar_offset[s];
  std::size_t r0 = 0;
  for (; r0 + 2 < ns; r0 += kPanelRows, panel += kPanelRows * ns) {
    Vec2 lo = {0.0, 0.0}, hi = {0.0, 0.0};  // rows r0, r0+1 | r0+2, r0+3
    for (std::size_t j = 0; j < ns; ++j) {
      lo += load2(panel + kPanelRows * j) * y[j];
      hi += load2(panel + kPanelRows * j + 2) * y[j];
    }
    store2(out + r0, load2(bbar + r0) - lo);
    if (r0 + kPanelRows <= ns) {
      store2(out + r0 + 2, load2(bbar + r0 + 2) - hi);
    } else {
      out[r0 + 2] = bbar[r0 + 2] - hi[0];
    }
  }
  if (r0 < ns) {  // one or two rows left
    Vec2 lo = {0.0, 0.0};
    for (std::size_t j = 0; j < ns; ++j) {
      lo += load2(panel + kPanelRows * j) * y[j];
    }
    out[r0] = bbar[r0] - lo[0];
    if (r0 + 1 < ns) out[r0 + 1] = bbar[r0 + 1] - lo[1];
  }
}

/// Dual update (12), one z position: lambda += rho (B x - x_s).
inline void dual_entry(const PackedLocalSolvers& p, const double* x,
                       const double* z, double rho, std::size_t pos,
                       double* lambda) {
  lambda[pos] = dual_value(lambda[pos], rho, x[p.global_idx[pos]], z[pos]);
}

/// Dual update (12) over z positions [begin, end), two per vector.
inline void dual_range(const PackedLocalSolvers& p, const double* x,
                       const double* z, double rho, std::size_t begin,
                       std::size_t end, double* lambda) {
  const int* g = p.global_idx.data();
  std::size_t pos = begin;
  for (; pos + 2 <= end; pos += 2) {
    const Vec2 bx = {x[g[pos]], x[g[pos + 1]]};
    store2(lambda + pos,
           dual_value(load2(lambda + pos), rho, bx, load2(z + pos)));
  }
  if (pos < end) dual_entry(p, x, z, rho, pos, lambda);
}

}  // namespace dopf::core::kernels

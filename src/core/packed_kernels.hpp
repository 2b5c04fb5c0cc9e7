#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

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

/// The two-lane register of linalg/lanes.hpp; two of them span one
/// kPanelRows panel.
using dopf::linalg::lanes::Vec2;

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

/// stage_component with kRelaxed fixed.
template <bool kRelaxed, int N>
inline void stage_lanes(const PackedLocalSolvers& p, const PackedState& st,
                        std::size_t s) {
  const std::size_t ns =
      N > 0 ? static_cast<std::size_t>(N)
            : static_cast<std::size_t>(p.comp_nvars[s]);
  const std::int64_t off = p.comp_offset[s];
  const int* g = p.global_idx.data() + off;
  const double* x = st.x.data();
  const double* l = st.lambda.data() + off;
  const double* zp = st.z_prev.data() + off;
  double* y = st.y.data() + off;
  const double rho = st.rho, alpha = st.alpha;
  std::size_t j = 0;
  for (; j + 2 <= ns; j += 2) {
    const Vec2 bx = relaxed_value<kRelaxed>(Vec2{x[g[j]], x[g[j + 1]]},
                                            load2(zp + j), alpha);
    store2(y + j, stage_value(bx, load2(l + j), rho));
  }
  if (j < ns) {
    y[j] = stage_value(relaxed_value<kRelaxed>(x[g[j]], zp[j], alpha), l[j],
                       rho);
  }
}

/// Local update (15), staging half for component s:
///   y_s = B_s x + lambda_s / rho, written into st.y, with B_s x relaxed
/// when st.alpha != 1 (relaxed_value). N > 0 asserts n_s = N, so the loop
/// unrolls.
template <int N = 0>
inline void stage_component(const PackedLocalSolvers& p, const PackedState& st,
                            std::size_t s) {
  if (st.alpha == 1.0) {
    stage_lanes<false, N>(p, st, s);
  } else {
    stage_lanes<true, N>(p, st, s);
  }
}

/// Projection rows of B same-size blocks in lockstep: the half-panels
/// [h0, h0 + H) (rows 2 h0 .. 2 (h0 + H) - 1) of each block comps[b],
///   x_s = bbar_s - Abar_s y_s   (the projection form (15)).
/// Each Vec2 accumulator holds two rows of one block. All H x B of them
/// move through one j loop, so that many add chains are in flight; each
/// row's sum still starts at 0.0 and adds Abar(i, j) y_j for ascending j,
/// as a scalar row loop does. h0 is even (the group starts a panel). N > 0
/// fixes n_s at compile time, so the j loop unrolls; N == 0 reads `ns`.
template <int H, int B, int N = 0>
inline void project_rows(const PackedLocalSolvers& p, const int* comps,
                         std::size_t ns, std::size_t h0, const double* y_pool,
                         double* z) {
  static_assert(kPanelRows == 4);
  const std::size_t n = N > 0 ? static_cast<std::size_t>(N) : ns;
  const double* panel[B];
  const double* y[B];
  for (int b = 0; b < B; ++b) {
    panel[b] = p.abar.data() + p.abar_offset[comps[b]] +
               h0 / 2 * kPanelRows * n;
    y[b] = y_pool + p.comp_offset[comps[b]];
  }
  // Half h sits in panel h / 2, lanes 2 (h % 2) and 2 (h % 2) + 1.
  auto at = [n](int h, std::size_t j) {
    return static_cast<std::size_t>(h / 2) * kPanelRows * n + kPanelRows * j +
           static_cast<std::size_t>(h % 2) * 2;
  };
  Vec2 acc[B][H];
  for (int b = 0; b < B; ++b) {
    for (int h = 0; h < H; ++h) acc[b][h] = Vec2{0.0, 0.0};
  }
  for (std::size_t j = 0; j < n; ++j) {
    for (int b = 0; b < B; ++b) {
      const double yj = y[b][j];
      for (int h = 0; h < H; ++h) acc[b][h] += load2(panel[b] + at(h, j)) * yj;
    }
  }
  for (int b = 0; b < B; ++b) {
    const std::int64_t off = p.comp_offset[comps[b]];
    const double* bbar = p.bbar.data() + off;
    double* out = z + off;
    for (int h = 0; h < H; ++h) {
      const std::size_t r = 2 * (h0 + h);
      if (r + 2 <= n) {
        store2(out + r, load2(bbar + r) - acc[b][h]);
      } else {
        out[r] = bbar[r] - acc[b][h][0];
      }
    }
  }
}

/// Half-panels per j loop of the generic kernel: 16 rows, eight
/// accumulators, which the baseline ISA's 16 vector registers still hold.
inline constexpr int kGenericHalves = 8;

/// Local update (15), projection half for one component s of any size: the
/// generic single-block kernel. Up to 16 rows move through each j loop. The
/// SIMT per-block launch and every size without a fixed-size kernel run it.
inline void project_component(const PackedLocalSolvers& p, std::size_t s,
                              const double* y_pool, double* z) {
  const int comp[1] = {static_cast<int>(s)};
  const std::size_t ns = static_cast<std::size_t>(p.comp_nvars[s]);
  const std::size_t halves = (ns + 1) / 2;
  for (std::size_t h0 = 0; h0 < halves; h0 += kGenericHalves) {
    switch (std::min<std::size_t>(kGenericHalves, halves - h0)) {
      case 1: project_rows<1, 1>(p, comp, ns, h0, y_pool, z); break;
      case 2: project_rows<2, 1>(p, comp, ns, h0, y_pool, z); break;
      case 3: project_rows<3, 1>(p, comp, ns, h0, y_pool, z); break;
      case 4: project_rows<4, 1>(p, comp, ns, h0, y_pool, z); break;
      case 5: project_rows<5, 1>(p, comp, ns, h0, y_pool, z); break;
      case 6: project_rows<6, 1>(p, comp, ns, h0, y_pool, z); break;
      case 7: project_rows<7, 1>(p, comp, ns, h0, y_pool, z); break;
      default: project_rows<8, 1>(p, comp, ns, h0, y_pool, z); break;
    }
  }
}

/// Local update (15) for the schedule slice local_order[k, end), whose
/// blocks all have n_s = N: stage each block, then project two blocks in
/// lockstep while their accumulators fit the registers (one at a time
/// otherwise).
template <int N>
inline void local_fixed(const PackedLocalSolvers& p, const PackedState& st,
                        std::size_t k, std::size_t end) {
  constexpr int H = (N + 1) / 2;
  constexpr int B = 2 * H <= 12 ? 2 : 1;
  const int* order = p.local_order.data();
  for (; k + B <= end; k += B) {
    for (int b = 0; b < B; ++b) stage_component<N>(p, st, order[k + b]);
    project_rows<H, B, N>(p, order + k, N, 0, st.y.data(), st.z.data());
  }
  if (k < end) {
    stage_component<N>(p, st, order[k]);
    project_rows<H, 1, N>(p, order + k, N, 0, st.y.data(), st.z.data());
  }
}

/// Local update (15) for the schedule slice local_order[begin, end): each
/// size group runs its fixed-size kernel (the common n_s of ieee13, ieee123
/// and ieee8500), any other size project_component. Each block has one
/// writer, so any slicing gives the same bits.
inline void local_range(const PackedLocalSolvers& p, const PackedState& st,
                        std::size_t begin, std::size_t end) {
  std::size_t first = 0;
  for (std::size_t g = 0; g < p.local_group_end.size() && first < end; ++g) {
    const std::size_t lo = std::max(begin, first);
    const std::size_t hi = std::min(end, p.local_group_end[g]);
    first = p.local_group_end[g];
    if (lo >= hi) continue;
    switch (p.comp_nvars[p.local_order[lo]]) {
      case 4: local_fixed<4>(p, st, lo, hi); break;
      case 6: local_fixed<6>(p, st, lo, hi); break;
      case 8: local_fixed<8>(p, st, lo, hi); break;
      case 9: local_fixed<9>(p, st, lo, hi); break;
      case 10: local_fixed<10>(p, st, lo, hi); break;
      case 12: local_fixed<12>(p, st, lo, hi); break;
      case 18: local_fixed<18>(p, st, lo, hi); break;
      default:
        for (std::size_t k = lo; k < hi; ++k) {
          const auto s = static_cast<std::size_t>(p.local_order[k]);
          stage_component(p, st, s);
          project_component(p, s, st.y.data(), st.z.data());
        }
    }
  }
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

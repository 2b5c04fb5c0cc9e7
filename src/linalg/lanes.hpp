#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <type_traits>
#include <vector>

/// Lockstep kernels for groups of same-shape dense blocks: the Gram
/// product, the Cholesky factor and its triangular solves, and the
/// projector assembly (15b)-(15c), run for up to W blocks side by side.
/// The precompute of every component block (preflight's conditioning
/// estimate, the projectors of Algorithm 1 lines 2-3) goes through them.
///
/// SIMD rule (DESIGN.md §11): lanes run across independent blocks, never
/// across the terms of one sum. Lane l of every entry belongs to block l,
/// and each lane performs the scalar operations of a one-block build in the
/// same order, each multiply and add rounded separately (the build sets
/// -ffp-contract=off). A lane's result is therefore bit-identical to the
/// block built alone. W = 1 is plain double, so a group of one runs the
/// scalar code itself.
///
/// Layout: a block of r x c entries is stored row-major as r * c lane
/// vectors; entry (i, j) of block l is lane l of element i * c + j.
namespace dopf::linalg::lanes {

/// Two double lanes in one native vector register (SSE2 on x86-64, NEON on
/// AArch64), and the mask a comparison yields. A compiler vector extension
/// rather than intrinsics, so there is one kernel for every ISA; the packed
/// iteration kernels (core/packed_kernels.hpp) use the same type.
using Vec2 = double __attribute__((vector_size(2 * sizeof(double))));
using Mask2 = decltype(Vec2{} < Vec2{});

/// 2K lanes as K native registers. Each operator applies the Vec2 operator
/// to every register, so each lane performs exactly one scalar operation,
/// and the K registers are K independent chains for the out-of-order core.
/// (One 2K-wide vector extension would leave GCC to split it on a baseline
/// build, through memory and with scalar compares.)
template <int K>
struct Pack {
  Vec2 r[K];
};
template <int K>
struct PackMask {
  Mask2 r[K];
};

template <int W>
struct LaneTypes {
  static_assert(W % 2 == 0, "lane counts above one are even");
  using Vec = Pack<W / 2>;
  using Mask = PackMask<W / 2>;
};
template <>
struct LaneTypes<1> {
  using Vec = double;
  using Mask = bool;
};

/// W doubles, lane l belonging to block l (plain double for W = 1).
template <int W>
using Vec = typename LaneTypes<W>::Vec;
/// Per-lane truth value of a comparison of two Vec<W> (bool for W = 1).
template <int W>
using Mask = typename LaneTypes<W>::Mask;

#define DOPF_LANES_OP(op)                                      \
  template <int K>                                             \
  inline Pack<K> operator op(Pack<K> a, const Pack<K>& b) {    \
    for (int q = 0; q < K; ++q) a.r[q] = a.r[q] op b.r[q];     \
    return a;                                                  \
  }                                                            \
  template <int K>                                             \
  inline Pack<K> operator op(Pack<K> a, double b) {            \
    for (int q = 0; q < K; ++q) a.r[q] = a.r[q] op b;          \
    return a;                                                  \
  }                                                            \
  template <int K, class B>                                    \
  inline Pack<K>& operator op##=(Pack<K>& a, const B& b) {     \
    return a = a op b;                                         \
  }
DOPF_LANES_OP(+)
DOPF_LANES_OP(-)
DOPF_LANES_OP(*)
DOPF_LANES_OP(/)
#undef DOPF_LANES_OP

#define DOPF_LANES_CMP(op)                                                 \
  template <int K>                                                         \
  inline PackMask<K> operator op(const Pack<K>& a, const Pack<K>& b) {     \
    PackMask<K> m;                                                         \
    for (int q = 0; q < K; ++q) m.r[q] = a.r[q] op b.r[q];                 \
    return m;                                                              \
  }
DOPF_LANES_CMP(<)
DOPF_LANES_CMP(>)
DOPF_LANES_CMP(!=)
#undef DOPF_LANES_CMP

#define DOPF_LANES_MASK_OP(op)                                                \
  template <int K>                                                            \
  inline PackMask<K> operator op(PackMask<K> a, const PackMask<K>& b) {       \
    for (int q = 0; q < K; ++q) a.r[q] = a.r[q] op b.r[q];                    \
    return a;                                                                 \
  }
DOPF_LANES_MASK_OP(&)
DOPF_LANES_MASK_OP(|)
DOPF_LANES_MASK_OP(==)
#undef DOPF_LANES_MASK_OP

inline double get(double v, int) { return v; }
inline long get(bool m, int) { return m; }
template <int K>
inline double get(const Pack<K>& v, int l) {
  return v.r[l / 2][l % 2];
}
template <int K>
inline long get(const PackMask<K>& m, int l) {
  return m.r[l / 2][l % 2];
}

inline void set(double& v, int, double x) { v = x; }
template <int K>
inline void set(Pack<K>& v, int l, double x) {
  v.r[l / 2][l % 2] = x;
}

template <int W>
inline Vec<W> splat(double x) {
  Vec<W> v{};
  for (int l = 0; l < W; ++l) set(v, l, x);
  return v;
}

/// True when some lane of `m` is set.
inline bool any(bool m) { return m; }
template <int K>
inline bool any(const PackMask<K>& m) {
  Mask2 acc = m.r[0];
  for (int q = 1; q < K; ++q) acc |= m.r[q];
  return (acc[0] | acc[1]) != 0;
}

/// True when every lane of `m` is set.
inline bool all(bool m) { return m; }
template <int K>
inline bool all(const PackMask<K>& m) {
  Mask2 acc = m.r[0];
  for (int q = 1; q < K; ++q) acc &= m.r[q];
  return (acc[0] & acc[1]) != 0;
}

template <int W>
inline Mask<W> all_lanes() {
  if constexpr (W == 1) {
    return true;
  } else {
    Mask<W> m;
    for (auto& r : m.r) r = Mask2{-1, -1};
    return m;
  }
}

/// Lane-wise `m ? a : b`.
inline double select(bool m, double a, double b) { return m ? a : b; }
template <int K>
inline Pack<K> select(const PackMask<K>& m, Pack<K> a, const Pack<K>& b) {
  for (int q = 0; q < K; ++q) a.r[q] = m.r[q] ? a.r[q] : b.r[q];
  return a;
}

/// Lane-wise std::sqrt (correctly rounded, so the same bits as the scalar
/// call).
inline double sqrt(double x) { return std::sqrt(x); }
template <int K>
inline Pack<K> sqrt(Pack<K> x) {
  for (int q = 0; q < K; ++q) {
    x.r[q][0] = std::sqrt(x.r[q][0]);
    x.r[q][1] = std::sqrt(x.r[q][1]);
  }
  return x;
}

/// Lane buffers a group reuses across its blocks and iterations.
template <int W>
using Buffer = std::vector<Vec<W>>;

/// Interleave up to W blocks of rows x cols entries into `out`. Block l is
/// entry (i, j) at at(l, i, j); a block of fewer columns than `cols` is
/// zero-padded on the right. Lanes past `count` repeat the last block, so
/// they take exactly its branches and add no failure of their own.
template <int W, class At>
inline void gather(std::size_t count, std::size_t rows, std::size_t cols,
                   At&& at, Buffer<W>& out) {
  out.resize(rows * cols);
  for (int l = 0; l < W; ++l) {
    const std::size_t src = std::min<std::size_t>(l, count - 1);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        set(out[i * cols + j], l, at(src, i, j));
      }
    }
  }
}

/// G = A A^T (m x m) for m x n blocks A: each entry a sum from 0.0 in
/// ascending k, as multiply_abt. Zero columns padded after a block's last
/// column add +0.0 to a sum that is never -0.0, so they change no bit.
template <int W>
void gram(const Vec<W>* a, std::size_t m, std::size_t n, Vec<W>* g) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      Vec<W> sum{};
      for (std::size_t k = 0; k < n; ++k) sum += a[i * n + k] * a[j * n + k];
      g[i * m + j] = sum;
    }
  }
}

/// The first pivot of a lane that did not clear the tolerance.
struct Pivot {
  std::size_t index = 0;
  double value = 0.0;
};

/// Cholesky factor L L^T = G of m x m blocks, reading the lower triangle of
/// `g` and writing the lower triangle of `l` (the strict upper triangle is
/// not touched). Sets `ok` to the lanes whose every pivot exceeded `tol`;
/// each other lane stops at its first failing pivot, recorded in pivots[l]
/// (NaN pivots fail too). A failed lane keeps running on a unit pivot so
/// the others can go on; its entries are meaningless.
template <int W>
void cholesky(const Vec<W>* g, std::size_t m, double tol, Vec<W>* l,
              Mask<W>& ok, Pivot* pivots) {
  ok = all_lanes<W>();
  const Vec<W> one = splat<W>(1.0);
  const Vec<W> tol_v = splat<W>(tol);
  for (std::size_t j = 0; j < m; ++j) {
    Vec<W> diag = g[j * m + j];
    for (std::size_t k = 0; k < j; ++k) diag -= l[j * m + k] * l[j * m + k];
    const Mask<W> pass = ok & (diag > tol_v);
    if (!all(pass == ok)) {
      for (int lane = 0; lane < W; ++lane) {
        if (get(ok, lane) != 0 && get(pass, lane) == 0) {
          pivots[lane] = Pivot{j, get(diag, lane)};
        }
      }
      ok = pass;
      if (!any(ok)) return;
    }
    const Vec<W> ljj = lanes::sqrt(select(ok, diag, one));
    l[j * m + j] = ljj;
    for (std::size_t i = j + 1; i < m; ++i) {
      Vec<W> sum = g[i * m + j];
      for (std::size_t k = 0; k < j; ++k) sum -= l[i * m + k] * l[j * m + k];
      l[i * m + j] = sum / ljj;
    }
  }
}

/// Solve L L^T x = b in place: forward then back substitution, each entry
/// one running difference divided by its pivot.
template <int W>
void cholesky_solve(const Vec<W>* l, std::size_t m, Vec<W>* x) {
  for (std::size_t i = 0; i < m; ++i) {
    Vec<W> sum = x[i];
    for (std::size_t k = 0; k < i; ++k) sum -= l[i * m + k] * x[k];
    x[i] = sum / l[i * m + i];
  }
  for (std::size_t i = m; i-- > 0;) {
    Vec<W> sum = x[i];
    for (std::size_t k = i + 1; k < m; ++k) sum -= l[k * m + i] * x[k];
    x[i] = sum / l[i * m + i];
  }
}

/// acc[j] += s * row[j] for j < len, skipped in every lane whose s is zero
/// (the zero-skip of multiply_atb / multiply_transpose, per lane).
template <int W>
inline void add_scaled_row(Vec<W> s, const Vec<W>* row, std::size_t len,
                           Vec<W>* acc) {
  const Mask<W> nz = s != Vec<W>{};
  if (all(nz)) {
    for (std::size_t j = 0; j < len; ++j) acc[j] += s * row[j];
  } else if (any(nz)) {
    for (std::size_t j = 0; j < len; ++j) {
      acc[j] = select(nz, acc[j] + s * row[j], acc[j]);
    }
  }
}

/// bbar = A^T (G^-1 b) (15c) for m x n blocks, given the factor `l` of G:
/// `x` (m) is scratch.
template <int W>
void projector_rhs(const Vec<W>* a, const Vec<W>* l, const Vec<W>* b,
                   std::size_t m, std::size_t n, Vec<W>* x, Vec<W>* bbar) {
  std::copy(b, b + m, x);
  cholesky_solve<W>(l, m, x);
  std::fill(bbar, bbar + n, Vec<W>{});
  for (std::size_t i = 0; i < m; ++i) {
    add_scaled_row<W>(x[i], a + i * n, n, bbar);
  }
}

/// Abar = A^T (G^-1 A) - I (15b) for m x n blocks, given the factor `l` of
/// G: G^-1 A one column at a time into `y` (m x n), then the product row by
/// row of A. `col` (m) is scratch.
template <int W>
void projector_matrix(const Vec<W>* a, const Vec<W>* l, std::size_t m,
                      std::size_t n, Vec<W>* col, Vec<W>* y, Vec<W>* abar) {
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < m; ++i) col[i] = a[i * n + j];
    cholesky_solve<W>(l, m, col);
    for (std::size_t i = 0; i < m; ++i) y[i * n + j] = col[i];
  }
  std::fill(abar, abar + n * n, Vec<W>{});
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      add_scaled_row<W>(a[k * n + i], y + k * n, n, abar + i * n);
    }
  }
  for (std::size_t i = 0; i < n; ++i) abar[i * n + i] -= 1.0;
}

/// Widest lane count for blocks of `rows` rows. Small blocks wait on
/// chains of adds, square roots and divisions, which W lanes share; large
/// ones already keep the adders busy, so extra lanes add work.
inline std::size_t max_lanes(std::size_t rows) { return rows <= 12 ? 8 : 4; }

/// Split `total` same-shape blocks of `rows` rows into lane chunks and call
/// fn.template operator()<W>(first, count) for each: full chunks of
/// max_lanes(rows), then one tail chunk of the narrowest power of two that
/// holds the rest, so a group of one runs at W = 1.
template <class Fn>
void for_each_chunk(std::size_t rows, std::size_t total, Fn&& fn) {
  const std::size_t widest = max_lanes(rows);
  for (std::size_t first = 0; first < total;) {
    const std::size_t left = total - first;
    std::size_t w = 1;
    while (w < left && w < widest) w *= 2;
    const std::size_t count = std::min(left, w);
    switch (w) {
      case 1: fn.template operator()<1>(first, count); break;
      case 2: fn.template operator()<2>(first, count); break;
      case 4: fn.template operator()<4>(first, count); break;
      default: fn.template operator()<8>(first, count); break;
    }
    first += count;
  }
}

/// Indices 0..keys.size()-1 grouped by key: ascending key, ascending index
/// inside a group (a stable sort). Returns the order; group g ends at
/// ends[g].
template <class Key>
std::vector<std::size_t> group_by(const std::vector<Key>& keys,
                                  std::vector<std::size_t>* ends) {
  std::vector<std::size_t> order(keys.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::stable_sort(
      order.begin(), order.end(),
      [&](std::size_t x, std::size_t y) { return keys[x] < keys[y]; });
  ends->clear();
  for (std::size_t k = 1; k <= order.size(); ++k) {
    if (k == order.size() || keys[order[k]] != keys[order[k - 1]]) {
      ends->push_back(k);
    }
  }
  return order;
}

}  // namespace dopf::linalg::lanes

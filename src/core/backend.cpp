#include "core/backend.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <vector>

#include "core/packed_kernels.hpp"

namespace dopf::core {

namespace {

/// The five residual accumulators for one chunk (T = double) or for two
/// chunks side by side (T = Vec2, one chunk per lane).
template <class T>
struct Sums {
  T pres2{}, bx2{}, z2{}, dz2{}, l2{};
};

/// One z position's contribution to (16), after its dual update (12) when
/// kDual: `l` is lambda at the position and is updated in place. The dual
/// update sees the relaxed B x when kRelaxed; the residual terms keep B x.
template <bool kDual, bool kRelaxed, class T>
inline void position_step(Sums<T>& acc, double rho, double alpha, T bx, T zv,
                          T zp, T& l) {
  if constexpr (kDual) {
    l = kernels::dual_value(
        l, rho, kernels::relaxed_value<kRelaxed>(bx, zp, alpha), zv);
  }
  const T d = bx - zv;
  acc.pres2 += d * d;
  acc.bx2 += bx * bx;
  acc.z2 += zv * zv;
  const T dz = zv - zp;
  acc.dz2 += dz * dz;
  acc.l2 += l * l;
}

/// Positions [begin, end) of one chunk, continuing the sums in `acc`.
template <bool kDual, bool kRelaxed>
void scalar_pass(const PackedLocalSolvers& pack, const PackedState& state,
                 std::size_t begin, std::size_t end, Sums<double>& acc) {
  for (std::size_t pos = begin; pos < end; ++pos) {
    double l = state.lambda[pos];
    position_step<kDual, kRelaxed>(acc, state.rho, state.alpha,
                                   state.x[pack.global_idx[pos]],
                                   state.z[pos], state.z_prev[pos], l);
    if constexpr (kDual) state.lambda[pos] = l;
  }
}

ResidualSums to_sums(const Sums<double>& s) {
  return ResidualSums{s.pres2, s.bx2, s.z2, s.dz2, s.l2};
}

Sums<double> lane(const Sums<dopf::linalg::lanes::Vec2>& s, int i) {
  return Sums<double>{s.pres2[i], s.bx2[i], s.z2[i], s.dz2[i], s.l2[i]};
}

/// Chunks k and k+1 together: lane 0 walks chunk k and lane 1 chunk k+1,
/// position by position, so each chunk's sums keep their ascending order
/// while the two latency-bound add chains overlap. Chunk k is full; when
/// chunk k+1 is the shorter last chunk, lane 0 finishes alone.
template <bool kDual, bool kRelaxed>
void chunk_pair(const PackedLocalSolvers& pack, const PackedState& state,
                std::size_t k, ResidualSums* out) {
  using dopf::linalg::lanes::Vec2;
  const std::size_t b0 = k * kResidualChunk;
  const std::size_t b1 = b0 + kResidualChunk;
  const std::size_t n1 =
      std::min(pack.total_local(), b1 + kResidualChunk) - b1;
  const int* g = pack.global_idx.data();
  const double* x = state.x.data();
  const double* z = state.z.data();
  const double* zp = state.z_prev.data();
  double* lambda = state.lambda.data();
  Sums<Vec2> acc;
  for (std::size_t p = 0; p < n1; ++p) {
    const std::size_t q0 = b0 + p, q1 = b1 + p;
    Vec2 l = {lambda[q0], lambda[q1]};
    position_step<kDual, kRelaxed>(acc, state.rho, state.alpha,
                                   Vec2{x[g[q0]], x[g[q1]]}, Vec2{z[q0], z[q1]},
                                   Vec2{zp[q0], zp[q1]}, l);
    if constexpr (kDual) {
      lambda[q0] = l[0];
      lambda[q1] = l[1];
    }
  }
  Sums<double> first = lane(acc, 0);
  scalar_pass<kDual, kRelaxed>(pack, state, b0 + n1, b1, first);
  out[0] = to_sums(first);
  out[1] = to_sums(lane(acc, 1));
}

template <bool kDual, bool kRelaxed>
void chunk_range(const PackedLocalSolvers& pack, const PackedState& state,
                 std::size_t begin, std::size_t end, ResidualSums* partials) {
  std::size_t k = begin;
  for (; k + 2 <= end; k += 2) {
    chunk_pair<kDual, kRelaxed>(pack, state, k, partials + k);
  }
  if (k < end) {
    Sums<double> acc;
    const std::size_t b = k * kResidualChunk;
    scalar_pass<kDual, kRelaxed>(
        pack, state, b, std::min(pack.total_local(), b + kResidualChunk), acc);
    partials[k] = to_sums(acc);
  }
}

}  // namespace

void residual_chunks(const PackedLocalSolvers& pack, const PackedState& state,
                     std::size_t begin, std::size_t end,
                     ResidualSums* partials) {
  chunk_range<false, false>(pack, state, begin, end, partials);
}

void dual_residual_chunks(const PackedLocalSolvers& pack,
                          const PackedState& state, std::size_t begin,
                          std::size_t end, ResidualSums* partials) {
  if (state.alpha == 1.0) {
    chunk_range<true, false>(pack, state, begin, end, partials);
  } else {
    chunk_range<true, true>(pack, state, begin, end, partials);
  }
}

void local_schedule(const PackedLocalSolvers& pack, const PackedState& state) {
  if (!state.component_seconds.empty()) {
    local_components(pack, state, 0, pack.num_components());
    return;
  }
  const bool finite = kernels::stage_range(pack, state, 0, pack.total_local());
  kernels::project_range(pack, state, 0, pack.local_items());
  if (!finite) repair_nonfinite(pack, state);
}

void local_components(const PackedLocalSolvers& pack, const PackedState& state,
                      std::size_t begin, std::size_t end) {
  if (state.component_seconds.empty()) {
    for (std::size_t s = begin; s < end; ++s) {
      kernels::local_component(pack, state, s);
    }
    return;
  }
  using Clock = std::chrono::steady_clock;
  for (std::size_t s = begin; s < end; ++s) {
    const auto start = Clock::now();
    kernels::local_component(pack, state, s);
    state.component_seconds[s] +=
        std::chrono::duration<double>(Clock::now() - start).count();
  }
}

void repair_nonfinite(const PackedLocalSolvers& pack,
                      const PackedState& state) {
  for (std::size_t s = 0; s < pack.num_components(); ++s) {
    const auto off = static_cast<std::size_t>(pack.comp_offset[s]);
    const auto n = static_cast<std::size_t>(pack.comp_nvars[s]);
    const auto y = state.y.subspan(off, n);
    if (!std::all_of(y.begin(), y.end(),
                     [](double v) { return std::isfinite(v); })) {
      kernels::dense_component(pack, state, s);
    }
  }
}

ResidualSums combine_residual_chunks(std::span<ResidualSums> partials) {
  std::size_t n = partials.size();
  if (n == 0) return {};
  // Pairwise rounds: partial i' = partial 2i + partial 2i+1, odd tail kept.
  // The tree depends only on the chunk count, never on thread count.
  while (n > 1) {
    const std::size_t half = n / 2;
    for (std::size_t i = 0; i < half; ++i) {
      const ResidualSums& a = partials[2 * i];
      const ResidualSums& b = partials[2 * i + 1];
      partials[i] = ResidualSums{a.pres2 + b.pres2, a.bx2 + b.bx2,
                                 a.z2 + b.z2, a.dz2 + b.dz2, a.l2 + b.l2};
    }
    if (n % 2 != 0) {
      partials[half] = partials[n - 1];
      n = half + 1;
    } else {
      n = half;
    }
  }
  return partials[0];
}

namespace {

class SerialBackend final : public ExecutionBackend {
 public:
  const char* name() const override { return "serial"; }

  void global_update(const PackedLocalSolvers& pack,
                     PackedState& state) override {
    kernels::global_range(pack, state.z.data(), state.lambda.data(),
                          state.rho, 0, pack.num_global(), state.x.data());
  }

  void local_update(const PackedLocalSolvers& pack,
                    PackedState& state) override {
    local_schedule(pack, state);
  }

  void dual_update(const PackedLocalSolvers& pack,
                   PackedState& state) override {
    kernels::dual_range(pack, state, 0, pack.total_local());
  }

  ResidualSums residual_sums(const PackedLocalSolvers& pack,
                             const PackedState& state) override {
    partials_.assign(residual_num_chunks(pack.total_local()), ResidualSums{});
    residual_chunks(pack, state, 0, partials_.size(), partials_.data());
    return combine_residual_chunks(partials_);
  }

  ResidualSums dual_update_and_residuals(const PackedLocalSolvers& pack,
                                         PackedState& state) override {
    partials_.assign(residual_num_chunks(pack.total_local()), ResidualSums{});
    dual_residual_chunks(pack, state, 0, partials_.size(), partials_.data());
    return combine_residual_chunks(partials_);
  }

 private:
  std::vector<ResidualSums> partials_;
};

}  // namespace

std::unique_ptr<ExecutionBackend> make_serial_backend() {
  return std::make_unique<SerialBackend>();
}

}  // namespace dopf::core

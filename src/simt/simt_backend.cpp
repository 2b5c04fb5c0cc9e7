#include "simt/simt_backend.hpp"

#include <algorithm>

#include "core/packed_kernels.hpp"

namespace dopf::simt {

using dopf::core::PackedLocalSolvers;
using dopf::core::PackedState;
using dopf::core::ResidualSums;
namespace kernels = dopf::core::kernels;

SimtBackend::SimtBackend(Device device, Config config)
    : device_(std::move(device)), config_(config) {}

void SimtBackend::global_update(const PackedLocalSolvers& pack,
                                PackedState& state) {
  // One thread per global variable (Sec. IV-C): the Gram matrix B'B is
  // diagonal, so each entry is an independent gather + clip.
  const std::size_t n = pack.num_global();
  const int T = config_.elementwise_block;
  const int blocks = static_cast<int>((n + T - 1) / T);
  device_.launch("global_update", blocks, T, [&](BlockContext& ctx) {
    const std::size_t begin = static_cast<std::size_t>(ctx.block_index) * T;
    const std::size_t end = std::min(n, begin + T);
    double max_flops = 0.0, max_bytes = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      kernels::global_entry(pack, state.z.data(), state.lambda.data(),
                            state.rho, i, state.x.data());
      const double deg =
          static_cast<double>(pack.gather_ptr[i + 1] - pack.gather_ptr[i]);
      max_flops = std::max(max_flops, 3.0 * deg + 5.0);
      max_bytes = std::max(max_bytes, 24.0 * deg + 40.0);
    }
    ctx.charge(end - begin, max_flops, max_bytes);
  });
}

void SimtBackend::local_update(const PackedLocalSolvers& pack,
                               PackedState& state) {
  // One block per component, T threads per block (Sec. IV-D): the block
  // first stages y_s = B_s x + lambda_s / rho cooperatively, then thread t
  // computes entries t, t+T, ... of x_s = bbar_s - Abar_s y_s.
  const int T = config_.threads_per_block;
  device_.launch("local_update", static_cast<int>(pack.num_components()), T,
                 [&](BlockContext& ctx) {
                   const std::size_t s =
                       static_cast<std::size_t>(ctx.block_index);
                   const std::size_t ns =
                       static_cast<std::size_t>(pack.comp_nvars[s]);
                   kernels::stage_component(pack, state.x.data(),
                                            state.lambda.data(), state.rho, s,
                                            state.y.data());
                   ctx.charge(ns, 3.0, 28.0);  // staging pass
                   kernels::project_component(pack, s, state.y.data(),
                                              state.z.data());
                   ctx.charge(ns, 2.0 * static_cast<double>(ns) + 1.0,
                              8.0 * static_cast<double>(ns) + 24.0);
                 });
}

void SimtBackend::dual_update(const PackedLocalSolvers& pack,
                              PackedState& state) {
  const std::size_t total = pack.total_local();
  const int T = config_.elementwise_block;
  const int blocks = static_cast<int>((total + T - 1) / T);
  device_.launch("dual_update", blocks, T, [&](BlockContext& ctx) {
    const std::size_t begin = static_cast<std::size_t>(ctx.block_index) * T;
    const std::size_t end = std::min(total, begin + T);
    for (std::size_t pos = begin; pos < end; ++pos) {
      kernels::dual_entry(pack, state.x.data(), state.z.data(), state.rho,
                          pos, state.lambda.data());
    }
    ctx.charge(end - begin, 3.0, 44.0);
  });
}

ResidualSums SimtBackend::residual_sums(const PackedLocalSolvers& pack,
                                        const PackedState& state) {
  // Same deterministic chunk-tree reduction as every other backend; priced
  // as one fused elementwise reduction kernel plus the d2h copy of the five
  // partial sums.
  partials_.assign(dopf::core::residual_num_chunks(pack.total_local()),
                   ResidualSums{});
  dopf::core::residual_chunks(pack, state, 0, partials_.size(),
                              partials_.data());
  const std::size_t total = pack.total_local();
  const int T = config_.elementwise_block;
  device_.launch("residuals", static_cast<int>((total + T - 1) / T), T,
                 [&](BlockContext& ctx) {
                   const std::size_t begin =
                       static_cast<std::size_t>(ctx.block_index) * T;
                   const std::size_t end = std::min(total, begin + T);
                   ctx.charge(end - begin, 10.0, 48.0);
                 });
  device_.record_transfer(5 * sizeof(double));
  return dopf::core::combine_residual_chunks(partials_);
}

}  // namespace dopf::simt

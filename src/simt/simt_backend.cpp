#include "simt/simt_backend.hpp"

#include <algorithm>
#include <numeric>

#include "core/admm.hpp"
#include "core/packed_kernels.hpp"

namespace dopf::simt {

using dopf::core::PackedLocalSolvers;
using dopf::core::PackedState;
using dopf::core::ResidualSums;
namespace kernels = dopf::core::kernels;

namespace {

/// One local-update block's cost for a component of `ns` variables: the
/// staging pass y_s = B_s x + lambda_s / rho, then thread t computing
/// entries t, t+T, ... of x_s = bbar_s - Abar_s y_s.
void charge_local_block(BlockContext& ctx, std::size_t ns) {
  ctx.charge(ns, 3.0, 28.0);  // staging pass
  ctx.charge(ns, 2.0 * static_cast<double>(ns) + 1.0,
             8.0 * static_cast<double>(ns) + 24.0);
}

}  // namespace

void launch_global_update(Device& device, const PackedLocalSolvers& pack,
                          PackedState& state, int block) {
  // One thread per global variable (Sec. IV-C): the Gram matrix B'B is
  // diagonal, so each entry is an independent gather + clip.
  const std::size_t n = pack.num_global();
  const int blocks = static_cast<int>((n + block - 1) / block);
  device.launch("global_update", blocks, block, [&](BlockContext& ctx) {
    const std::size_t begin = static_cast<std::size_t>(ctx.block_index) * block;
    const std::size_t end = std::min(n, begin + block);
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

void launch_local_update(Device& device, const PackedLocalSolvers& pack,
                         PackedState& state,
                         std::span<const std::size_t> components,
                         int threads_per_block) {
  // One block per component, T threads per block (Sec. IV-D).
  device.launch("local_update", static_cast<int>(components.size()),
                threads_per_block, [&](BlockContext& ctx) {
                  const std::size_t s = components[ctx.block_index];
                  kernels::stage_component(pack, state.x.data(),
                                           state.lambda.data(), state.rho, s,
                                           state.y.data());
                  kernels::project_component(pack, s, state.y.data(),
                                             state.z.data());
                  charge_local_block(
                      ctx, static_cast<std::size_t>(pack.comp_nvars[s]));
                });
}

double local_update_kernel_seconds(const Device& device,
                                   const PackedLocalSolvers& pack,
                                   std::span<const std::size_t> components,
                                   int threads_per_block) {
  Device pricing(device.spec());
  pricing.launch("local_update", static_cast<int>(components.size()),
                 threads_per_block, [&](BlockContext& ctx) {
                   charge_local_block(ctx, static_cast<std::size_t>(
                                               pack.comp_nvars[components
                                                   [ctx.block_index]]));
                 });
  return pricing.ledger().kernel_seconds;
}

SimtBackend::SimtBackend(Device device, Config config)
    : device_(std::move(device)), config_(config) {}

void SimtBackend::upload_once(const PackedLocalSolvers& pack) {
  if (uploaded_) return;
  uploaded_ = true;
  // The problem image plus the x, z and lambda iterates, copied h2d once
  // before the ADMM loop.
  device_.record_transfer(pack.bytes() +
                          sizeof(double) *
                              (pack.num_global() + 2 * pack.total_local()));
}

void SimtBackend::global_update(const PackedLocalSolvers& pack,
                                PackedState& state) {
  upload_once(pack);
  launch_global_update(device_, pack, state, config_.elementwise_block);
}

void SimtBackend::local_update(const PackedLocalSolvers& pack,
                               PackedState& state) {
  upload_once(pack);
  if (all_components_.size() != pack.num_components()) {
    all_components_.resize(pack.num_components());
    std::iota(all_components_.begin(), all_components_.end(), 0);
  }
  launch_local_update(device_, pack, state, all_components_,
                      config_.threads_per_block);
}

void SimtBackend::dual_update(const PackedLocalSolvers& pack,
                              PackedState& state) {
  upload_once(pack);
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
  upload_once(pack);
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

void SimtBackend::report_simulated_timing(
    dopf::core::TimingBreakdown& timing) const {
  const auto& by = device_.ledger().by_kernel;
  auto get = [&](const char* k) {
    const auto it = by.find(k);
    return it == by.end() ? 0.0 : it->second;
  };
  timing.global_update = get("global_update");
  timing.local_update = get("local_update");
  timing.dual_update = get("dual_update");
  timing.residuals = get("residuals");
}

}  // namespace dopf::simt

#include "runtime/threaded_backend.hpp"

#include <chrono>

#include "core/packed_kernels.hpp"

namespace dopf::runtime {

using dopf::core::PackedLocalSolvers;
using dopf::core::PackedState;
using dopf::core::ResidualSums;
namespace kernels = dopf::core::kernels;

ThreadedBackend::ThreadedBackend(int threads) : pool_(threads) {}

void ThreadedBackend::global_update(const PackedLocalSolvers& pack,
                                    PackedState& state) {
  // Slices of the degree-bucketed schedule; each x_i has one writer.
  pool_.parallel_for(pack.num_global(),
                     [&](int, std::size_t begin, std::size_t end) {
                       kernels::global_range(pack, state.z.data(),
                                             state.lambda.data(), state.rho,
                                             begin, end, state.x.data());
                     });
}

void ThreadedBackend::local_update(const PackedLocalSolvers& pack,
                                   PackedState& state) {
  using Clock = std::chrono::steady_clock;
  const bool timed = !state.component_seconds.empty();
  pool_.parallel_for(
      pack.num_components(), [&](int, std::size_t begin, std::size_t end) {
        for (std::size_t s = begin; s < end; ++s) {
          const auto start = timed ? Clock::now() : Clock::time_point{};
          kernels::stage_component(pack, state.x.data(), state.lambda.data(),
                                   state.rho, s, state.y.data());
          kernels::project_component(pack, s, state.y.data(), state.z.data());
          if (timed) {
            state.component_seconds[s] +=
                std::chrono::duration<double>(Clock::now() - start).count();
          }
        }
      });
}

void ThreadedBackend::dual_update(const PackedLocalSolvers& pack,
                                  PackedState& state) {
  pool_.parallel_for(pack.total_local(),
                     [&](int, std::size_t begin, std::size_t end) {
                       kernels::dual_range(pack, state.x.data(),
                                           state.z.data(), state.rho, begin,
                                           end, state.lambda.data());
                     });
}

ResidualSums ThreadedBackend::residual_sums(const PackedLocalSolvers& pack,
                                            const PackedState& state) {
  // Chunk layout is fixed by total_local (see the deterministic-reduction
  // contract); only the chunk->lane assignment varies with thread count,
  // and each chunk's partial lands in its own slot.
  partials_.assign(dopf::core::residual_num_chunks(pack.total_local()),
                   ResidualSums{});
  pool_.parallel_for(partials_.size(),
                     [&](int, std::size_t begin, std::size_t end) {
                       dopf::core::residual_chunks(pack, state, begin, end,
                                                   partials_.data());
                     });
  return dopf::core::combine_residual_chunks(partials_);
}

ResidualSums ThreadedBackend::dual_update_and_residuals(
    const PackedLocalSolvers& pack, PackedState& state) {
  // Same fixed chunks as residual_sums; the dual update of a position
  // rides in the chunk that owns it.
  partials_.assign(dopf::core::residual_num_chunks(pack.total_local()),
                   ResidualSums{});
  pool_.parallel_for(partials_.size(),
                     [&](int, std::size_t begin, std::size_t end) {
                       dopf::core::dual_residual_chunks(pack, state, begin,
                                                        end, partials_.data());
                     });
  return dopf::core::combine_residual_chunks(partials_);
}

std::unique_ptr<dopf::core::ExecutionBackend> make_threaded_backend(
    int threads) {
  return std::make_unique<ThreadedBackend>(threads);
}

}  // namespace dopf::runtime

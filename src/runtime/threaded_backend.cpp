#include "runtime/threaded_backend.hpp"

#include <algorithm>

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
  if (!state.component_seconds.empty()) {
    pool_.parallel_for(pack.num_components(),
                       [&](int, std::size_t begin, std::size_t end) {
                         dopf::core::local_components(pack, state, begin, end);
                       });
    return;
  }
  // Staging slices, then slices of the sub-block schedule; each y and z
  // position has one writer.
  nonfinite_.assign(static_cast<std::size_t>(pool_.size()), 0);
  pool_.parallel_for(pack.total_local(),
                     [&](int lane, std::size_t begin, std::size_t end) {
                       if (!kernels::stage_range(pack, state, begin, end)) {
                         nonfinite_[static_cast<std::size_t>(lane)] = 1;
                       }
                     });
  pool_.parallel_for(pack.local_items(),
                     [&](int, std::size_t begin, std::size_t end) {
                       kernels::project_range(pack, state, begin, end);
                     });
  if (std::find(nonfinite_.begin(), nonfinite_.end(), 1) != nonfinite_.end()) {
    dopf::core::repair_nonfinite(pack, state);
  }
}

void ThreadedBackend::dual_update(const PackedLocalSolvers& pack,
                                  PackedState& state) {
  pool_.parallel_for(pack.total_local(),
                     [&](int, std::size_t begin, std::size_t end) {
                       kernels::dual_range(pack, state, begin, end);
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

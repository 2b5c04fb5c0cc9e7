#pragma once

#include <memory>
#include <vector>

#include "core/backend.hpp"
#include "runtime/thread_pool.hpp"

namespace dopf::runtime {

/// Multi-threaded CPU execution backend: the per-iteration updates of
/// Algorithm 1 over a persistent ThreadPool with static contiguous
/// chunking (components for the local update, slices of the global-update
/// schedule, z positions and residual chunks for the elementwise updates).
///
/// Bit-reproducibility: every output element is written by exactly one
/// lane with the same per-element expression as the serial backend, and
/// residual sums follow the deterministic chunk-tree reduction of
/// core::backend.hpp (chunk layout independent of thread count), so
/// iterates and residual histories are byte-identical to the serial and
/// SIMT backends at any thread count.
class ThreadedBackend final : public dopf::core::ExecutionBackend {
 public:
  /// `threads` <= 0 selects std::thread::hardware_concurrency().
  explicit ThreadedBackend(int threads = 0);

  int threads() const { return pool_.size(); }

  const char* name() const override { return "threaded"; }
  void global_update(const dopf::core::PackedLocalSolvers& pack,
                     dopf::core::PackedState& state) override;
  void local_update(const dopf::core::PackedLocalSolvers& pack,
                    dopf::core::PackedState& state) override;
  void dual_update(const dopf::core::PackedLocalSolvers& pack,
                   dopf::core::PackedState& state) override;
  dopf::core::ResidualSums residual_sums(
      const dopf::core::PackedLocalSolvers& pack,
      const dopf::core::PackedState& state) override;
  dopf::core::ResidualSums dual_update_and_residuals(
      const dopf::core::PackedLocalSolvers& pack,
      dopf::core::PackedState& state) override;

 private:
  ThreadPool pool_;
  std::vector<dopf::core::ResidualSums> partials_;
  std::vector<char> nonfinite_;  // per lane: a staged value was not finite
};

std::unique_ptr<dopf::core::ExecutionBackend> make_threaded_backend(
    int threads = 0);

}  // namespace dopf::runtime

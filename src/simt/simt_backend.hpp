#pragma once

#include <span>
#include <vector>

#include "core/backend.hpp"
#include "simt/device.hpp"

namespace dopf::simt {

/// SIMT execution backend: runs the packed update kernels bit-exactly on the
/// host (same core::kernels expressions as the serial/threaded backends)
/// while charging a simulated GPU Device ledger per launch — the grid/block
/// mapping of the paper's Sec. IV-C/IV-D (one block per component for the
/// local update, elementwise grids for global/dual, a fused reduction kernel
/// plus a 5-double d2h transfer for the residuals). The first launch also
/// charges the one-time h2d upload of the problem image and iterate state.
///
/// A SIMT solve is core::SolverFreeAdmm (or core::SolveSession) driving
/// this backend; the driver's TimingBreakdown then reports the ledger's
/// simulated seconds per kernel instead of host wall-clock time.
class SimtBackend final : public dopf::core::ExecutionBackend {
 public:
  struct Config {
    /// Threads per block T for the local-update kernel (paper sweeps 1..64).
    int threads_per_block = 32;
    /// Threads per block for the elementwise global/dual/residual kernels.
    int elementwise_block = 256;
  };

  SimtBackend() : SimtBackend(Device()) {}
  explicit SimtBackend(Device device) : SimtBackend(std::move(device), Config()) {}
  SimtBackend(Device device, Config config);

  const char* name() const override { return "simt"; }
  void global_update(const dopf::core::PackedLocalSolvers& pack,
                     dopf::core::PackedState& state) override;
  void local_update(const dopf::core::PackedLocalSolvers& pack,
                    dopf::core::PackedState& state) override;
  void dual_update(const dopf::core::PackedLocalSolvers& pack,
                   dopf::core::PackedState& state) override;
  dopf::core::ResidualSums residual_sums(
      const dopf::core::PackedLocalSolvers& pack,
      const dopf::core::PackedState& state) override;
  /// Ledger seconds of the global/local/dual/residual kernels.
  void report_simulated_timing(
      dopf::core::TimingBreakdown& timing) const override;

  const Device& device() const { return device_; }
  Device& device() { return device_; }
  const Config& config() const { return config_; }

 private:
  void upload_once(const dopf::core::PackedLocalSolvers& pack);

  Device device_;
  Config config_;
  bool uploaded_ = false;
  std::vector<std::size_t> all_components_;
  std::vector<dopf::core::ResidualSums> partials_;
};

/// The global update (13)/(18) as an elementwise kernel on `device`: one
/// thread per global variable, `block` threads per block. Shared by the
/// single- and multi-device backends.
void launch_global_update(Device& device,
                          const dopf::core::PackedLocalSolvers& pack,
                          dopf::core::PackedState& state, int block);

/// The local update (15) for `components` on `device`: one block per
/// component with `threads_per_block` threads, priced as the cooperative
/// staging pass plus the projection rows. Shared by the single- and
/// multi-device backends.
void launch_local_update(Device& device,
                         const dopf::core::PackedLocalSolvers& pack,
                         dopf::core::PackedState& state,
                         std::span<const std::size_t> components,
                         int threads_per_block);

/// Pure cost helper: simulated seconds of one local-update kernel launch for
/// the given subset of components with T threads per block, priced exactly
/// as launch_local_update charges it, without executing anything.
double local_update_kernel_seconds(const Device& device,
                                   const dopf::core::PackedLocalSolvers& pack,
                                   std::span<const std::size_t> components,
                                   int threads_per_block);

}  // namespace dopf::simt

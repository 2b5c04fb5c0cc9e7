#pragma once

#include <memory>
#include <span>

#include "core/packed_solvers.hpp"

namespace dopf::core {

struct TimingBreakdown;  // core/admm.hpp

/// The mutable per-iteration state Algorithm 1 runs over, as spans into
/// solver-owned storage. Backends read/write through these spans only.
struct PackedState {
  double rho = 0.0;
  std::span<double> x;             ///< global iterate (n)
  std::span<double> z;             ///< local solutions, concatenated
  std::span<const double> z_prev;  ///< previous local solutions
  std::span<double> lambda;        ///< duals, concatenated
  std::span<double> y;             ///< staging scratch (total_local)
  /// Optional per-component cumulative local-update seconds (size S, or
  /// empty to disable the timers). Adds per-component timer overhead.
  std::span<double> component_seconds;
};

/// The five partial sums behind the residual criterion (16).
struct ResidualSums {
  double pres2 = 0.0;  ///< ||Bx - z||^2
  double bx2 = 0.0;    ///< ||Bx||^2
  double z2 = 0.0;     ///< ||z||^2
  double dz2 = 0.0;    ///< ||z - z_prev||^2
  double l2 = 0.0;     ///< ||lambda||^2
};

/// Deterministic-reduction contract: every backend computes residual sums by
/// (1) accumulating each fixed-size chunk of kResidualChunk consecutive z
/// positions linearly, then (2) combining the chunk partials with the fixed
/// pairwise tree of combine_residual_chunks. Chunk layout depends only on
/// total_local, never on thread/block count, so residual histories are
/// byte-identical across backends and across any threaded configuration.
inline constexpr std::size_t kResidualChunk = 1024;

inline std::size_t residual_num_chunks(std::size_t total_local) {
  return (total_local + kResidualChunk - 1) / kResidualChunk;
}

/// Linear accumulation of the residual sums of chunks [begin, end) (chunk k
/// covers positions [k*kResidualChunk, ...)) into partials[k]; the single
/// shared definition of the per-entry expressions. Any split of the chunk
/// range gives the same partials.
void residual_chunks(const PackedLocalSolvers& pack, const PackedState& state,
                     std::size_t begin, std::size_t end,
                     ResidualSums* partials);

/// The fused check-iteration pass over chunks [begin, end): the dual update
/// (12) of each position, then that position's residual terms, in one
/// sweep. Same bits as the dual update followed by residual_chunks.
void dual_residual_chunks(const PackedLocalSolvers& pack,
                          const PackedState& state, std::size_t begin,
                          std::size_t end, ResidualSums* partials);

/// Fixed pairwise-tree combination of chunk partials (destroys `partials`).
ResidualSums combine_residual_chunks(std::span<ResidualSums> partials);

/// What ExecutionBackend::begin_iteration asks of the driver.
enum class IterationStart {
  kProceed,  ///< run the iteration
  kRewind,   ///< device state was lost: restore the restart point first
};

/// One execution strategy for the per-iteration updates of Algorithm 1 over
/// the packed storage. Implementations:
///   - serial   (core, make_serial_backend): plain loops, kernel-shaped;
///   - threaded (runtime::make_threaded_backend): persistent thread pool,
///     static chunking;
///   - simt     (simt::SimtBackend): bit-exact host execution plus a
///     simulated-GPU cost ledger;
///   - multigpu (simt::MultiDeviceBackend): components partitioned over
///     simulated devices, with fault injection, failover and degraded mode.
/// All of them produce byte-identical iterates and residual histories; the
/// driver (core::SolverFreeAdmm::solve) owns the state vectors and the
/// update sequencing (including the z/z_prev swap before local_update).
class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  virtual const char* name() const = 0;

  /// Global update (13)/(18): x = clip((rho B'z - c - B'lambda)/(rho deg)).
  virtual void global_update(const PackedLocalSolvers& pack,
                             PackedState& state) = 0;
  /// Local update (15): z = proj_{A_s x = b_s}(B_s x + lambda_s/rho).
  virtual void local_update(const PackedLocalSolvers& pack,
                            PackedState& state) = 0;
  /// Dual update (12): lambda += rho (B x - z).
  virtual void dual_update(const PackedLocalSolvers& pack,
                           PackedState& state) = 0;
  /// Residual partial sums of (16) under the deterministic-reduction
  /// contract above.
  virtual ResidualSums residual_sums(const PackedLocalSolvers& pack,
                                     const PackedState& state) = 0;
  /// Check iterations: the dual update followed by the residual sums of the
  /// updated state. Overrides fuse the two into one pass over the chunks
  /// (dual_residual_chunks) with identical bits; the default runs the two
  /// methods above, so a backend that prices or times them separately
  /// keeps doing so.
  virtual ResidualSums dual_update_and_residuals(
      const PackedLocalSolvers& pack, PackedState& state) {
    dual_update(pack, state);
    return residual_sums(pack, state);
  }

  /// Called by the driver before iteration t's global update. Backends with
  /// per-iteration work outside the kernels run it here (the multi-device
  /// backend's fault, failover and degrade processing). kRewind means a
  /// failover lost device state: the driver restores its restart point,
  /// truncates the history to it, and resumes after it. Only a backend
  /// whose can_rewind() is true may return kRewind.
  virtual IterationStart begin_iteration(int /*t*/) {
    return IterationStart::kProceed;
  }
  /// True when begin_iteration may request a rewind. The driver keeps an
  /// in-memory restart point only for such backends.
  virtual bool can_rewind() const { return false; }
  /// Backends whose cost is a model rather than host work overwrite the
  /// per-phase seconds of `timing` (global, local, dual, residuals,
  /// recovery, degrade, degraded_iterations) with their simulated totals
  /// since construction. The default keeps the driver's wall-clock values.
  virtual void report_simulated_timing(TimingBreakdown& /*timing*/) const {}
};

/// The serial reference backend (the paper's single-CPU path).
std::unique_ptr<ExecutionBackend> make_serial_backend();

}  // namespace dopf::core

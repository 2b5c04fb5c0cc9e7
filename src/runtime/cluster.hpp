#pragma once

#include <span>
#include <vector>

#include "runtime/comm_model.hpp"
#include "runtime/partition.hpp"

namespace dopf::runtime {

/// Per-iteration cost of the distributed local-update phase on a virtual
/// cluster (the quantities of the paper's Fig. 1).
struct LocalUpdatePhase {
  double compute_seconds = 0.0;        ///< makespan of subproblem work
  double communication_seconds = 0.0;  ///< aggregator <-> rank traffic
  double staging_seconds = 0.0;        ///< GPU<->host staging (GPU ranks)

  double total() const {
    return compute_seconds + communication_seconds + staging_seconds;
  }
};

/// A virtual cluster of `ranks` workers coordinated by a central aggregator
/// (the "operator" of Sec. III-A). It prices one ADMM iteration's
/// local-update phase from
///   - measured (or simulated) per-component compute seconds, and
///   - the per-component consensus payload sizes (n_s doubles down,
///     2 n_s doubles up: x_s and lambda_s — Sec. IV-E),
/// under an alpha-beta communication model with the aggregator serializing
/// its per-rank messages. Compute decreases with ranks while communication
/// grows — exactly the trade-off of Fig. 1(b)/(c).
class VirtualCluster {
 public:
  VirtualCluster(std::size_t ranks, CommModel comm,
                 bool gpu_ranks = false, StagingModel staging = {});

  std::size_t ranks() const { return ranks_; }

  LocalUpdatePhase price_local_update(
      const Partition& partition,
      std::span<const double> component_seconds,
      std::span<const std::size_t> component_payload_vars) const;

  /// Convenience: block partition of the given component count.
  LocalUpdatePhase price_local_update(
      std::span<const double> component_seconds,
      std::span<const std::size_t> component_payload_vars) const;

 private:
  std::size_t ranks_;
  CommModel comm_;
  bool gpu_ranks_;
  StagingModel staging_;
};

}  // namespace dopf::runtime

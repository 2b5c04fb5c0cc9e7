#include "runtime/cluster.hpp"

#include <algorithm>
#include <stdexcept>

namespace dopf::runtime {

VirtualCluster::VirtualCluster(std::size_t ranks, CommModel comm,
                               bool gpu_ranks, StagingModel staging)
    : ranks_(ranks), comm_(comm), gpu_ranks_(gpu_ranks), staging_(staging) {
  if (ranks_ == 0) throw std::invalid_argument("VirtualCluster: 0 ranks");
}

LocalUpdatePhase VirtualCluster::price_local_update(
    const Partition& partition, std::span<const double> component_seconds,
    std::span<const std::size_t> component_payload_vars) const {
  if (component_seconds.size() != component_payload_vars.size()) {
    throw std::invalid_argument("price_local_update: size mismatch");
  }
  LocalUpdatePhase phase;
  double staging_worst = 0.0;
  for (const auto& part : partition) {
    double compute = 0.0;
    std::size_t vars = 0;
    for (std::size_t s : part) {
      compute += component_seconds[s];
      vars += component_payload_vars[s];
    }
    phase.compute_seconds = std::max(phase.compute_seconds, compute);

    // Aggregator -> rank: x restricted to the rank's copies (n_s doubles per
    // component); rank -> aggregator: x_s and lambda_s (2 n_s doubles).
    // The aggregator handles ranks serially, so per-message latencies add up
    // — this is what makes communication grow with the rank count.
    const std::size_t down_bytes = vars * sizeof(double);
    const std::size_t up_bytes = 2 * vars * sizeof(double);
    phase.communication_seconds += comm_.message_seconds(down_bytes) +
                                   comm_.message_seconds(up_bytes);

    if (gpu_ranks_) {
      // Each rank stages its payload across PCIe before/after MPI; ranks
      // stage concurrently, so take the slowest.
      const double stage = staging_.transfer_seconds(down_bytes) +
                           staging_.transfer_seconds(up_bytes);
      staging_worst = std::max(staging_worst, stage);
    }
  }
  phase.staging_seconds = staging_worst;
  return phase;
}

LocalUpdatePhase VirtualCluster::price_local_update(
    std::span<const double> component_seconds,
    std::span<const std::size_t> component_payload_vars) const {
  return price_local_update(
      block_partition(component_seconds.size(), ranks_), component_seconds,
      component_payload_vars);
}

}  // namespace dopf::runtime

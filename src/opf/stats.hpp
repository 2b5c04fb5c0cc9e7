#pragma once

#include <cstddef>

#include "opf/decompose.hpp"
#include "opf/model.hpp"

namespace dopf::opf {

/// Size of the centralized A of (7) — the paper's Table II.
struct ModelSizes {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::size_t nonzeros = 0;
};
ModelSizes model_sizes(const OpfModel& model);

/// Component-graph counts — the paper's Table III.
struct ComponentCounts {
  std::size_t nodes = 0;   ///< graph nodes (buses)
  std::size_t lines = 0;   ///< graph edges (branches + transformers)
  std::size_t leaves = 0;  ///< degree-1 non-root buses (merged with lines)
  std::size_t S = 0;       ///< number of components = nodes + lines - leaves
};
ComponentCounts component_counts(const dopf::network::Network& net,
                                 const DistributedProblem& problem);

/// Distribution summary of the m_s / n_s subproblem sizes — Table IV.
struct SizeDistribution {
  std::size_t min = 0;
  std::size_t max = 0;
  double mean = 0.0;
  double stdev = 0.0;
  std::size_t sum = 0;
};
struct SubproblemStats {
  SizeDistribution rows;  ///< m_s across components
  SizeDistribution cols;  ///< n_s across components
};
SubproblemStats subproblem_stats(const DistributedProblem& problem);

}  // namespace dopf::opf

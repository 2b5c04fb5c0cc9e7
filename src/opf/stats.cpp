#include "opf/stats.hpp"

#include <cmath>
#include <limits>

namespace dopf::opf {

ModelSizes model_sizes(const OpfModel& model) {
  ModelSizes s;
  s.rows = model.num_equations();
  s.cols = model.num_vars();
  for (const Equation& eq : model.equations) s.nonzeros += eq.terms.size();
  return s;
}

ComponentCounts component_counts(const dopf::network::Network& net,
                                 const DistributedProblem& problem) {
  ComponentCounts c;
  c.nodes = net.num_buses();
  c.lines = net.num_lines();
  for (int leaf : net.leaf_buses()) {
    if (leaf != 0) ++c.leaves;  // the feeder head is never merged
  }
  c.S = problem.num_components();
  return c;
}

namespace {

template <typename Getter>
SizeDistribution distribution(const DistributedProblem& problem, Getter get) {
  SizeDistribution d;
  if (problem.components.empty()) return d;
  d.min = std::numeric_limits<std::size_t>::max();
  double sum = 0.0, sum_sq = 0.0;
  for (const Component& comp : problem.components) {
    const std::size_t v = get(comp);
    d.min = std::min(d.min, v);
    d.max = std::max(d.max, v);
    d.sum += v;
    sum += static_cast<double>(v);
    sum_sq += static_cast<double>(v) * static_cast<double>(v);
  }
  const double n = static_cast<double>(problem.components.size());
  d.mean = sum / n;
  d.stdev = std::sqrt(std::max(0.0, sum_sq / n - d.mean * d.mean));
  return d;
}

}  // namespace

SubproblemStats subproblem_stats(const DistributedProblem& problem) {
  SubproblemStats s;
  s.rows = distribution(problem,
                        [](const Component& c) { return c.num_rows(); });
  s.cols = distribution(problem,
                        [](const Component& c) { return c.num_vars(); });
  return s;
}

}  // namespace dopf::opf

#pragma once

#include <vector>

#include "network/network.hpp"
#include "opf/model.hpp"
#include "robust/issues.hpp"

namespace dopf::robust {

/// Structural sanitation of a feeder/network: non-finite numeric fields,
/// inverted or degenerate bound boxes, phase consistency, orphaned phases,
/// connectivity, generator presence. Unlike Network::validate() this never
/// throws — it collects EVERY finding with component provenance, so a user
/// fixing a malformed feeder sees all problems at once.
std::vector<Issue> sanitize_network(const dopf::network::Network& net);

/// Numerical sanitation of the assembled model: non-finite coefficients,
/// per-row scale disparity, near-duplicate constraint rows within one
/// owning component (the blocks that become A_s).
std::vector<Issue> sanitize_model(const dopf::opf::OpfModel& model);

}  // namespace dopf::robust

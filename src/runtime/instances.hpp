#pragma once

#include <memory>
#include <string>
#include <vector>

#include "network/network.hpp"
#include "opf/decompose.hpp"
#include "opf/model.hpp"

namespace dopf::runtime {

/// A fully prepared test instance: feeder, centralized model (7), and
/// component-wise decomposition (9). Shared by the benches, examples and
/// integration tests.
struct Instance {
  std::string name;
  dopf::network::Network net;
  dopf::opf::OpfModel model;
  dopf::opf::DistributedProblem problem;
};

/// The feeder of one of the paper's instances (or the quick stand-in):
/// "ieee13", "ieee123", "ieee8500", "ieee8500_mini". "ieee13_overload" is
/// ieee13 with loads scaled 50x past capacity — deliberately infeasible,
/// for stall/watchdog testing. Throws std::invalid_argument for unknown
/// names.
dopf::network::Network make_network(const std::string& name);

/// The feeder a command line or request names: "builtin:NAME"
/// (make_network) or a feeder file path (feeders::load_feeder).
dopf::network::Network load_network(const std::string& reference);

/// make_network(name) plus its model and decomposition.
Instance make_instance(const std::string& name,
                       const dopf::opf::DecomposeOptions& options = {});

/// The three instances evaluated in the paper, in size order.
std::vector<std::string> paper_instance_names();

}  // namespace dopf::runtime

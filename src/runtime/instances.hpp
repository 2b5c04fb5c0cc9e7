#pragma once

#include <memory>
#include <string>
#include <string_view>
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

/// True when `name` is a builtin feeder: one of the paper's instances
/// "ieee13", "ieee123", "ieee8500", the quick stand-in "ieee8500_mini", or
/// "ieee13_overload", ieee13 with loads scaled 50x past capacity —
/// deliberately infeasible, for stall/watchdog testing.
bool is_builtin(std::string_view name);

/// The builtin feeder `name`. Throws std::invalid_argument "unknown
/// builtin '<name>' (expected ...)", listing the builtins, for any other
/// name.
dopf::network::Network make_network(const std::string& name);

/// The feeder a command line or request names: "builtin:NAME"
/// (make_network) or a feeder file path (feeders::load_feeder).
dopf::network::Network load_network(const std::string& reference);

/// make_network(name) plus its model and decomposition.
Instance make_instance(const std::string& name,
                       const dopf::opf::DecomposeOptions& options = {});

}  // namespace dopf::runtime

#include "runtime/instances.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

#include "feeders/feeder_io.hpp"
#include "feeders/ieee13.hpp"
#include "feeders/synthetic.hpp"

namespace dopf::runtime {

namespace {
constexpr std::string_view kBuiltins[] = {
    "ieee13", "ieee123", "ieee8500", "ieee8500_mini", "ieee13_overload"};
}  // namespace

bool is_builtin(std::string_view name) {
  return std::find(std::begin(kBuiltins), std::end(kBuiltins), name) !=
         std::end(kBuiltins);
}

dopf::network::Network make_network(const std::string& name) {
  using namespace dopf::feeders;
  if (!is_builtin(name)) {
    std::string expected;
    for (std::string_view b : kBuiltins) {
      expected += (expected.empty() ? "" : ", ") + std::string(b);
    }
    throw std::invalid_argument("unknown builtin '" + name + "' (expected " +
                                expected + ")");
  }
  if (name == "ieee123") return synthetic_feeder(ieee123_spec());
  if (name == "ieee8500") return synthetic_feeder(ieee8500_spec());
  if (name == "ieee8500_mini") return synthetic_feeder(ieee8500_mini_spec());
  dopf::network::Network net = ieee13();
  if (name == "ieee13_overload") {
    // ieee13 with every load scaled far past the generation and flow
    // capacity: the OPF is infeasible, so ADMM's primal residual stays
    // bounded away from zero. A deterministic stall for watchdog tests.
    for (std::size_t i = 0; i < net.num_loads(); ++i) {
      auto& load = net.load_mutable(static_cast<int>(i));
      for (double& v : load.p_ref.values) v *= 50.0;
      for (double& v : load.q_ref.values) v *= 50.0;
    }
  }
  return net;
}

dopf::network::Network load_network(const std::string& reference) {
  if (reference.rfind("builtin:", 0) == 0) {
    return make_network(reference.substr(8));
  }
  return dopf::feeders::load_feeder(reference);
}

Instance make_instance(const std::string& name,
                       const dopf::opf::DecomposeOptions& options) {
  dopf::network::Network net = make_network(name);
  dopf::opf::OpfModel model = dopf::opf::build_model(net);
  dopf::opf::DistributedProblem problem =
      dopf::opf::decompose(net, model, options);
  return Instance{name, std::move(net), std::move(model), std::move(problem)};
}

}  // namespace dopf::runtime

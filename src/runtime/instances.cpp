#include "runtime/instances.hpp"

#include <stdexcept>

#include "feeders/feeder_io.hpp"
#include "feeders/ieee13.hpp"
#include "feeders/synthetic.hpp"

namespace dopf::runtime {

dopf::network::Network make_network(const std::string& name) {
  using namespace dopf::feeders;
  if (name == "ieee123") return synthetic_feeder(ieee123_spec());
  if (name == "ieee8500") return synthetic_feeder(ieee8500_spec());
  if (name == "ieee8500_mini") return synthetic_feeder(ieee8500_mini_spec());
  if (name != "ieee13" && name != "ieee13_overload") {
    throw std::invalid_argument("make_instance: unknown instance '" + name +
                                "'");
  }
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

std::vector<std::string> paper_instance_names() {
  return {"ieee13", "ieee123", "ieee8500"};
}

}  // namespace dopf::runtime

#include "simt/backend_builder.hpp"

#include <algorithm>
#include <stdexcept>

#include "runtime/threaded_backend.hpp"
#include "simt/multi_device.hpp"
#include "simt/simt_backend.hpp"

namespace dopf::simt {

bool is_backend_name(std::string_view name) {
  return name == "serial" || name == "threaded" || name == "simt" ||
         name == "multigpu";
}

bool breaks_multigpu_only(const BackendSpec& spec) {
  return spec.name != "multigpu" &&
         (!spec.faults.empty() || !spec.recovery || spec.degrade);
}

std::unique_ptr<dopf::core::ExecutionBackend> make_backend(
    const BackendSpec& spec, const dopf::core::PackedLocalSolvers& pack,
    std::string* label) {
  std::string described = spec.name;
  std::unique_ptr<dopf::core::ExecutionBackend> backend;
  if (spec.name == "serial") {
    backend = dopf::core::make_serial_backend();
  } else if (spec.name == "threaded") {
    auto tb = std::make_unique<dopf::runtime::ThreadedBackend>(spec.threads);
    described = "threaded(" + std::to_string(tb->threads()) + " threads)";
    backend = std::move(tb);
  } else if (spec.name == "simt") {
    backend = std::make_unique<SimtBackend>();
  } else if (spec.name == "multigpu") {
    MultiGpuOptions mo;
    mo.num_devices = static_cast<std::size_t>(std::max(1, spec.devices));
    mo.faults = spec.faults;
    mo.recovery.failover = spec.recovery;
    mo.recovery.verify_messages = spec.recovery;
    mo.degrade.enabled = spec.degrade;
    if (spec.staleness_bound >= 0) {
      mo.degrade.staleness_bound = spec.staleness_bound;
    }
    auto mb = std::make_unique<MultiDeviceBackend>(pack, std::move(mo));
    described = "multigpu(" + std::to_string(mb->num_devices()) + ")";
    backend = std::move(mb);
  } else {
    throw std::invalid_argument("unknown backend '" + spec.name + "'");
  }
  if (label) *label = described;
  return backend;
}

}  // namespace dopf::simt

#pragma once

#include <memory>

#include "core/admm.hpp"
#include "simt/multi_device.hpp"

namespace dopf::simt {

/// A multi-device solve: core::SolverFreeAdmm driving a MultiDeviceBackend
/// it owns. `checkpoint_every` > 0 refreshes the in-memory restart point a
/// failover rewinds to; `backend` stays valid for the solver's lifetime.
struct MultiDeviceSolve {
  MultiDeviceSolve(const dopf::opf::DistributedProblem& problem,
                   const dopf::core::AdmmOptions& options,
                   MultiGpuOptions mo, int checkpoint_every = 0)
      : admm(problem, options) {
    auto owned = std::make_unique<MultiDeviceBackend>(admm.packed(), mo);
    backend = owned.get();
    admm.set_backend(std::move(owned));
    if (checkpoint_every > 0) admm.set_checkpoint_hook(checkpoint_every, {});
  }

  dopf::core::AdmmResult solve() { return admm.solve(); }
  const MultiDeviceBackend* operator->() const { return backend; }

  dopf::core::SolverFreeAdmm admm;
  MultiDeviceBackend* backend = nullptr;
};

}  // namespace dopf::simt

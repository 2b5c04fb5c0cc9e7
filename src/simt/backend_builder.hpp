#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "core/backend.hpp"
#include "core/packed_solvers.hpp"
#include "runtime/fault.hpp"

namespace dopf::simt {

/// What `--backend` and its companion flags select: one of the four
/// execution backends, plus the thread count of `threaded` and the device
/// settings of `multigpu`. Every tool and every solve path (single solve,
/// scenario sweep and its cold copies, stream) builds its backend from
/// this through make_backend.
struct BackendSpec {
  std::string name = "serial";  ///< serial | threaded | simt | multigpu
  int threads = 0;              ///< threaded: workers (0 = hardware)
  int devices = 2;              ///< multigpu: simulated devices
  dopf::runtime::FaultPlan faults;  ///< multigpu: `--faults`
  bool recovery = true;   ///< multigpu: false = `--no-recovery`
  bool degrade = false;   ///< multigpu: `--degrade`
  int staleness_bound = -1;  ///< multigpu: -1 = DegradePolicy default
};

/// True when `name` is one of the four backend names. The tools check it
/// where `--backend` is read.
bool is_backend_name(std::string_view name);

/// The rule every tool checks on the spec it read: faults, disabled
/// recovery and degradation act only on multigpu.
inline constexpr const char kMultigpuOnly[] =
    "--faults/--no-recovery/--degrade/--staleness-bound require --backend "
    "multigpu";

/// True when `spec` sets a multigpu-only field on another backend, which
/// kMultigpuOnly refuses.
bool breaks_multigpu_only(const BackendSpec& spec);

/// The backend `spec` names, for solves over `pack` (multigpu partitions
/// the pack's components over its devices; the others ignore it). Never
/// null. `label`, when given, receives the backend as reports print it:
/// "threaded(N threads)", "multigpu(N)", else the name. Throws
/// std::invalid_argument on an unknown name and runtime::FaultError on a
/// fault naming a device the backend does not have.
std::unique_ptr<dopf::core::ExecutionBackend> make_backend(
    const BackendSpec& spec, const dopf::core::PackedLocalSolvers& pack,
    std::string* label = nullptr);

}  // namespace dopf::simt

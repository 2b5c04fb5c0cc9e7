#pragma once

#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "network/network.hpp"
#include "runtime/scenario.hpp"

namespace dopf::stream {

/// Thrown on malformed profile files or profile entries that reference
/// unknown network components.
class ProfileError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A switching event: topology actuation on a named line. Opening a switch
/// is modeled as a high-impedance open (series r/x blocks scaled by
/// kOpenImpedanceScale, per-phase flow limits collapsed to kOpenFlowLimit)
/// — the examples/dynamic_topology.cpp idiom plus an impedance change, so
/// the event genuinely edits the owning component's A_s block and exercises
/// the incremental-refactorization path. `impedance-scale` models a tap
/// change / reconfiguration that re-rates the series impedance without
/// touching the flow limits.
struct SwitchEvent {
  enum class Kind {
    kOpen,            ///< switch <line> open
    kClose,           ///< switch <line> close (explicit back-to-base marker)
    kImpedanceScale,  ///< switch <line> impedance-scale <factor>
  };
  Kind kind = Kind::kOpen;
  std::string line;
  double factor = 1.0;  ///< kImpedanceScale only
  int line_no = 0;      ///< source line (0 = constructed in code)
};

/// Impedance multiplier applied to an opened switch's series r/x blocks.
inline constexpr double kOpenImpedanceScale = 1e3;
/// Per-phase flow limit of an opened switch (effectively zero flow).
inline constexpr double kOpenFlowLimit = 1e-9;

/// The overrides in effect FROM `step` until the next block (piecewise
/// hold). Overrides are absolute against the BASE network — they do not
/// compose with earlier blocks — so any step's network is reconstructible
/// from the base plus exactly one block (what makes mid-stream resume a
/// single rebind instead of a replay of every earlier step).
struct ProfileBlock {
  int step = 0;
  std::vector<dopf::runtime::ScenarioOverride> overrides;
  std::vector<SwitchEvent> switches;
  int line_no = 0;  ///< source line of the `step` header
};

/// A parsed time-series profile: `num_steps` solve steps on a fixed step
/// clock (`dt_seconds` is informational — nothing in the replay driver
/// reads wall time), with piecewise-held override blocks.
struct StreamProfile {
  std::string name = "stream";
  int num_steps = 0;
  double dt_seconds = 300.0;
  std::vector<ProfileBlock> blocks;  ///< strictly increasing .step

  /// The block in effect at `step` (latest block with .step <= step), or
  /// nullptr when the base network applies.
  const ProfileBlock* block_for(int step) const;
};

/// Parse the streaming profile format consumed by `dopf_solve --stream`:
///
///   # 24h of 5-minute steps
///   profile day
///   steps 288
///   dt 300
///   step 0
///     load constant scale 0.95
///   step 96
///     load constant scale 1.10
///     switch l42 impedance-scale 1.5
///   step 192
///     load constant scale 1.02
///
/// `profile`/`dt` are optional; `steps N` is required before the first
/// `step` block; `step K` indices must be strictly increasing within
/// [0, N). Override lines reuse the scenario grammar (load/gen), plus
/// `switch <line> open|close|impedance-scale [<factor>]`. Duplicate load
/// overrides or duplicate switch events for the same target within one
/// block are rejected with both line numbers. Throws ProfileError with
/// line provenance on malformed input.
StreamProfile parse_profile(std::istream& in);
StreamProfile load_profile(const std::string& path);

/// A scenario sweep as a profile (named "sweep"): step 0 has no block and
/// solves the base network, step k (k >= 1) holds scenario k-1's overrides
/// and no switch events. Both are absolute against base, so step k's
/// network is exactly `runtime::apply_scenario(base, scenarios[k - 1])`.
StreamProfile profile_from_scenarios(
    const std::vector<dopf::runtime::Scenario>& scenarios);

/// The network in effect at `step`: the active block's overrides and
/// switch events applied to a copy of `base` (absolute, non-compounding).
/// Unknown load/gen/line targets raise ProfileError with step provenance.
dopf::network::Network network_at_step(const dopf::network::Network& base,
                                       const StreamProfile& profile,
                                       int step);

}  // namespace dopf::stream

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/admm.hpp"
#include "feeders/synthetic.hpp"
#include "verify/invariants.hpp"

namespace dopf::verify {

/// Property-based differential fuzzing of the whole pipeline: seeded random
/// radial feeders -> model -> decomposition -> all three execution backends
/// -> invariant checks against the interior-point reference.
struct FuzzOptions {
  int num_cases = 25;
  std::uint64_t base_seed = 20250807;
  /// ADMM profile for every case (default: default_fuzz_admm()).
  dopf::core::AdmmOptions admm;
  InvariantOptions invariants;
  /// Worker threads for the threaded backend leg.
  int threads = 4;
  /// Also solve each case with the centralized interior-point reference and
  /// check KKT stationarity / objective gap. Dominates the run time.
  bool run_reference = true;

  FuzzOptions();
};

/// The ADMM profile the fuzzer runs: paper defaults (eps_rel = 1e-3), the
/// stop checked every 10 iterations and capped at 50,000. At this loose
/// stop some seeds miss the KKT tolerance against the reference; 20250807
/// passes every check at eps_rel = 1e-4.
dopf::core::AdmmOptions default_fuzz_admm();

/// Outcome of one fuzz case. `digest` is the trace digest of the serial run
/// (see trace_digest) — the anchor for seeded-determinism regressions.
struct FuzzCase {
  std::uint64_t seed = 0;
  std::string feeder_summary;
  std::size_t components = 0;
  int iterations = 0;
  bool converged = false;
  double objective = 0.0;
  std::uint64_t digest = 0;
  std::vector<std::string> failures;

  bool passed() const { return failures.empty(); }
};

struct FuzzReport {
  std::vector<FuzzCase> cases;

  int num_failed() const;
  bool ok() const { return num_failed() == 0; }
  /// Multi-line report: one line per case, then a verdict.
  std::string summary() const;
};

/// Derive a randomized (but fully seed-determined) synthetic feeder spec:
/// 16-48 buses with randomized phase/load/transformer/DER mixes. Exposed so
/// determinism tests can compare generated feeders directly.
dopf::feeders::SyntheticSpec random_spec(std::uint64_t seed);

/// Run the fuzzer. Case i uses seed base_seed + i. Never throws on a
/// verification failure — failures land in the per-case reports — but does
/// propagate infrastructure errors (e.g. feeder generation throwing).
FuzzReport run_fuzz(const FuzzOptions& options);

}  // namespace dopf::verify

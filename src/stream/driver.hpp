#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "core/solve_session.hpp"
#include "opf/decompose.hpp"
#include "robust/preflight.hpp"
#include "runtime/durable.hpp"
#include "stream/profile.hpp"

namespace dopf::stream {

/// Thrown when a stream step cannot be driven: layout-changing steps,
/// preflight rejections, bad checkpoint/resume state. Always carries step
/// provenance in the message.
class StreamError : public std::runtime_error {
 public:
  StreamError(int step, const std::string& message)
      : std::runtime_error("stream step " + std::to_string(step) + ": " +
                           message),
        step_(step) {}
  int step() const noexcept { return step_; }

 private:
  int step_ = -1;
};

/// A preflight rejection of one step's scenario delta (exit code 5 at the
/// CLI, matching the single-solve contract).
class StreamPreflightError : public StreamError {
 public:
  using StreamError::StreamError;
};

/// Everything one stream step did, recorded with deterministic fields only
/// (no wall-clock quantities), so a replay of the same profile serializes
/// byte-identically. See StreamDriver and record_line().
struct StreamStepRecord {
  int step = 0;
  dopf::core::AdmmStatus status = dopf::core::AdmmStatus::kIterationLimit;
  bool converged = false;
  bool warm_started = false;
  /// True when this step's rebind refactorized at least one component
  /// (a switching event reached the packed pool).
  bool switched = false;
  int iterations = 0;
  /// Iterations of the same step solved cold; -1 when cold comparison is
  /// off or the step was itself solved cold (step 0, a reset step).
  int cold_iterations = -1;
  /// The step solve's TimingBreakdown::precompute_reuse_count (not part of
  /// record_line).
  int precompute_reuse_count = 0;
  dopf::core::RebindStats rebind;
  /// Per-step delta preflight: components skipped because their equality
  /// block was unchanged (0 when preflight is off).
  std::size_t preflight_reused = 0;
  bool preflight_ran = false;
  int watchdog_stalls = 0;
  double objective = 0.0;
  double primal_residual = 0.0;
  double dual_residual = 0.0;
  std::uint64_t model_fp = 0;
  std::uint64_t scenario_fp = 0;
};

struct StreamOptions {
  /// Solve options; `admm.projector` is replaced by the prepared base's.
  dopf::core::AdmmOptions admm;
  /// Decomposition options the base is prepared from (robust::prepare).
  dopf::opf::DecomposeOptions decompose;
  /// Preflight mode (robust::parse_mode): the full preflight for the base
  /// (robust::prepare), the delta one for every step (prepare_scenario); a
  /// step rejection raises StreamPreflightError with step provenance.
  std::string preflight = "warn";
  /// Also solve every warm-started step cold (fresh iterate state on the
  /// same binding) and record cold_iterations. A step solved cold in the
  /// first place gets no second cold solve.
  bool cold_compare = false;
  /// Warm-start reset policy: when true, a step whose rebind refactorized
  /// any component (a topology switch) drops the retained consensus state
  /// and solves cold — the conservative policy when switching events move
  /// the optimum far enough that stale duals mislead. Default keeps warm
  /// state across switches (Kim & Kim tracking).
  bool reset_on_switch = false;
  /// Capture a stream checkpoint after this step's solve (requires
  /// checkpoint_path); -1 disables.
  int checkpoint_at_step = -1;
  /// Durably checkpoint every k completed steps into the generation-
  /// numbered A/B pair `checkpoint_path + ".a"/".b"` (requires
  /// checkpoint_path); 0 disables. Unlike checkpoint_at_step's single
  /// file, a torn write here can always fall back to the previous
  /// generation on resume.
  int checkpoint_every_steps = 0;
  std::string checkpoint_path;
  /// Cooperative cancellation (not owned; must outlive run()). Checked at
  /// every step boundary AND passed into each step's solve via
  /// admm.cancel, so a signal/deadline lands within one check cadence. On
  /// cancellation the driver durably checkpoints the last COMPLETED step
  /// (when checkpoint_path is set) and returns with cancelled = true;
  /// partially-solved steps are discarded so the recorded steps stay a
  /// byte-identical prefix of the uninterrupted run.
  const dopf::core::CancelToken* cancel = nullptr;
  /// Durability policy (fsync, retry budget, failpoints) for every
  /// checkpoint write and resume read issued by the driver.
  dopf::runtime::DurableOptions durable;
  /// Resume from a stream checkpoint captured by a previous run: the
  /// binding is fast-forwarded to the checkpoint's step with ONE rebind
  /// (profile blocks are absolute against base), the iterate state is
  /// restored, and the stream continues at the next step — byte-identical
  /// to the uninterrupted run from there (model/scenario fingerprints are
  /// validated before any state is touched).
  std::string resume_path;
  /// Execution backend factory (empty = serial); called with the session's
  /// pack once for the main session and once per cold comparison, so every
  /// solve sees an equivalent backend (multigpu partitions that pack).
  std::function<std::unique_ptr<dopf::core::ExecutionBackend>(
      const dopf::core::PackedLocalSolvers&)>
      make_backend;
};

/// The full stream outcome: per-step records plus lifetime session
/// counters and the contract quantities the streaming bench certifies.
struct StreamResult {
  std::vector<StreamStepRecord> steps;
  dopf::core::SessionStats session;
  /// Model-level single-component refactorizations across the stream ==
  /// the number of switched components (each switch event touches exactly
  /// the components whose A_s changed).
  int refactorizations = 0;
  int first_step = 0;  ///< 0, or checkpoint step + 1 on a resumed run
  long long warm_iterations = 0;  ///< total over warm-started steps
  /// Total cold_compare iterations over the same warm-started steps.
  long long cold_iterations = 0;
  /// Every solve converged, cold comparisons included.
  bool all_converged = true;
  /// Wall seconds of the one full topology precompute plus the initial
  /// bind (not part of the replay record).
  double precompute_seconds = 0.0;
  /// The main session backend's fault_report() after the last step (empty
  /// for a clean run).
  std::string fault_report;
  /// Cooperative cancellation outcome: the stream stopped early after
  /// `steps.back().step` (no partial step is recorded).
  bool cancelled = false;
  std::string cancel_reason;
  /// Non-empty when the resume load had to fall back to the previous good
  /// generation (the newest slot was torn/corrupt).
  std::string resume_fallback;
  /// Durable-I/O work done by the driver (checkpoint writes, retries with
  /// their simulated backoff seconds).
  dopf::runtime::IoStats io;
};

/// Receding-horizon streaming driver: one long-lived SolveSession per
/// feeder consumes a StreamProfile step by step. The base network is
/// prepared once, at construction. Every step a block applies to
/// re-decomposes its network (a step no block applies to rebinds the base
/// problem as it is), routes it through ScenarioBinding::rebind (load-only
/// steps touch no factorization; a switching event refreshes exactly the
/// touched components), and warm-starts ADMM from the previous consensus
/// state. Deterministic by construction: fixed step clock, any execution
/// backend (all four give byte-identical iterates), no wall-time dependence
/// in any recorded field — the backtest-replay shape.
class StreamDriver {
 public:
  /// `base` and `profile` must outlive the driver. Prepares the base under
  /// options.preflight (robust::prepare): throws robust::PreflightError on
  /// a rejection, std::invalid_argument on a bad mode.
  StreamDriver(const dopf::network::Network& base,
               const StreamProfile& profile, StreamOptions options);

  /// Drive `base` as already prepared (robust::prepare); its mode and
  /// decompose options replace options.preflight and options.decompose.
  StreamDriver(const dopf::network::Network& base,
               dopf::robust::PreparedProblem prepared,
               const StreamProfile& profile, StreamOptions options);

  /// Drive the whole stream (or the tail after a checkpoint resume).
  StreamResult run();

 private:
  const dopf::network::Network* base_;
  const StreamProfile* profile_;
  StreamOptions options_;
  dopf::robust::PreparedProblem prepared_;
};

/// Serialize one step record as a single deterministic line (hex-float
/// doubles, hex fingerprints — byte-identical across replays of the same
/// profile).
std::string record_line(const StreamStepRecord& rec);

/// Write the full deterministic replay record: a header line, one line per
/// step, and a session-counter footer. Two runs of the same profile (and
/// an interrupted + resumed pair, over the shared steps) must produce
/// byte-identical output — the verify_stream_replay CI gate.
void write_records(const StreamResult& result, const StreamProfile& profile,
                   std::ostream& out);

}  // namespace dopf::stream

#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "network/network.hpp"
#include "opf/decompose.hpp"
#include "opf/model.hpp"
#include "robust/conditioning.hpp"
#include "robust/issues.hpp"

namespace dopf::robust {

/// What preflight is allowed to do about what it finds.
///
///   kWarn      analyze and report; reject only hard structural errors
///              (non-finite data, inverted bounds, disconnection, ...).
///              Numerically marginal/degenerate blocks proceed unchanged —
///              the run is byte-identical to one without preflight.
///   kRemediate like kWarn, plus automatic repair of the numerical issues:
///              rows are equilibrated before RREF, and a projector whose
///              Gram matrix fails Cholesky falls back to a reported
///              Tikhonov ridge instead of failing.
///   kStrict    refuse anything not perfectly healthy: structural errors,
///              degenerate component blocks, AND nearly-parallel constraint
///              rows in the raw model are rejections. No remediation is
///              applied.
enum class PreflightPolicy { kWarn, kRemediate, kStrict };

const char* to_string(PreflightPolicy policy);
/// Parse "warn" / "auto" / "remediate" / "strict". Throws
/// std::invalid_argument otherwise.
PreflightPolicy parse_policy(const std::string& text);

/// What an entry point runs before solving: a policy, or nullopt for "off".
using PreflightMode = std::optional<PreflightPolicy>;
/// Parse "off" or a policy name. Throws std::invalid_argument otherwise.
PreflightMode parse_mode(const std::string& text);

struct PreflightOptions {
  PreflightPolicy policy = PreflightPolicy::kWarn;
  /// Decomposition profile preflight analyzes (and, under kRemediate,
  /// amends with row equilibration). Must match what the solve will use so
  /// the verdict talks about the actual blocks.
  dopf::opf::DecomposeOptions decompose;
};

/// Everything preflight determined, in one consumable report.
struct PreflightReport {
  PreflightPolicy policy = PreflightPolicy::kWarn;
  std::vector<Issue> issues;
  std::vector<BlockConditioning> blocks;

  /// Remediation actually applied (kRemediate only).
  bool equilibrated = false;
  double max_ridge = 0.0;

  /// Scenario preflight only (run_scenario_preflight): components whose
  /// equality block is unchanged from the base, i.e. whose factorization —
  /// and whose sanitation/conditioning verdict — is reused, not re-derived.
  std::size_t scenario_components_reused = 0;

  bool accepted = true;
  /// Non-empty exactly when !accepted: the first rejection reason, with
  /// component/row provenance.
  std::string rejection;

  std::size_t num_errors() const {
    return count_severity(issues, Severity::kError);
  }
  std::size_t num_warnings() const {
    return count_severity(issues, Severity::kWarning);
  }
  std::size_t count_health(BlockHealth health) const;

  /// Multi-line human-readable report (one line per issue + a conditioning
  /// summary + the verdict).
  std::string summary() const;
  /// The projector policy a solve consuming this report must use so that
  /// the solver applies exactly the remediation the report describes.
  dopf::linalg::ProjectorOptions projector_options() const;
};

/// Thrown by entry points when a preflighted input is rejected; carries the
/// full report for diagnostics.
class PreflightError : public std::runtime_error {
 public:
  explicit PreflightError(PreflightReport report)
      : std::runtime_error(report.rejection), report_(std::move(report)) {}

  const PreflightReport& report() const noexcept { return report_; }

 private:
  PreflightReport report_;
};

/// Run the full preflight pipeline over a loaded network + built model:
/// structural sanitation, numerical model sanitation, decomposition (with
/// row equilibration under kRemediate), and per-component conditioning
/// analysis. On acceptance `problem_out` (if non-null) receives the
/// decomposition the solve should use — identical to a plain decompose()
/// under kWarn/kStrict, equilibrated under kRemediate.
///
/// Never throws on findings (the verdict is in the report); throws only on
/// infrastructure misuse (e.g. model/net mismatch propagating out of
/// decompose as ModelError).
PreflightReport run_preflight(const dopf::network::Network& net,
                              const dopf::opf::OpfModel& model,
                              dopf::opf::DistributedProblem* problem_out,
                              const PreflightOptions& options = {});

/// Validate a ScenarioBinding delta WITHOUT re-sanitizing the unchanged
/// topology: `scenario` is a re-decomposition of the same network under
/// edited loads/costs/bounds, about to be rebound against a model built
/// from `base`. Checks that the decomposition layout matches (a shape
/// change is rejected — that is a new model, not a scenario), that the
/// scenario surface (c, bounds, x0, changed b_s) is finite and ordered,
/// and runs conditioning analysis ONLY on components whose equality block
/// actually changed; untouched components are counted in
/// `scenario_components_reused` and skipped entirely.
PreflightReport run_scenario_preflight(
    const dopf::opf::DistributedProblem& base,
    const dopf::opf::DistributedProblem& scenario,
    const PreflightOptions& options = {});

/// A network made ready to bind: its model (7), the decomposition (9) a
/// SolveModel is built from, and the options every later re-decomposition
/// and projector build must use so scenarios diff against the same blocks.
struct PreparedProblem {
  PreflightMode mode;
  dopf::opf::OpfModel model;
  dopf::opf::DistributedProblem problem;
  dopf::opf::DecomposeOptions decompose;
  dopf::linalg::ProjectorOptions projector;
  /// The full preflight report; empty when mode is off.
  std::optional<PreflightReport> report;
};

/// The one network -> decomposition step of every entry point: build the
/// model, then run_preflight under `mode` (a plain decompose when off).
/// Under off, warn and strict the problem is bitwise a plain decompose and
/// the projector exact; under kRemediate rows are equilibrated and the
/// Tikhonov-ridge fallback armed. Throws PreflightError on rejection.
PreparedProblem prepare(const dopf::network::Network& net, PreflightMode mode,
                        const dopf::opf::DecomposeOptions& decompose = {});

/// One scenario's problem, checked against a bound base.
struct PreparedScenario {
  /// The scenario's decomposition; empty when it is the base network.
  std::optional<dopf::opf::DistributedProblem> built;
  const dopf::opf::DistributedProblem* base = nullptr;  ///< base.problem
  /// The delta preflight report; empty when the mode is off.
  std::optional<PreflightReport> report;

  /// The problem to rebind: `built`, else the base's.
  const dopf::opf::DistributedProblem& problem() const {
    return built ? *built : *base;
  }
};

/// The per-step / per-request counterpart of prepare: build and decompose
/// `scenario` under `decompose`, the options its base was prepared with,
/// then run_scenario_preflight under `mode` against `bound`, the problem
/// the SolveModel holds. Throws PreflightError on rejection.
PreparedScenario prepare_scenario(const dopf::network::Network& scenario,
                                  PreflightMode mode,
                                  const dopf::opf::DecomposeOptions& decompose,
                                  const dopf::opf::DistributedProblem& bound);

/// The same for a scenario that is the base network itself: nothing is
/// built, `base.problem` is checked against `bound` and rebound.
PreparedScenario prepare_scenario(const PreparedProblem& base,
                                  const dopf::opf::DistributedProblem& bound);

}  // namespace dopf::robust

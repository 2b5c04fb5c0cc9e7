#include "robust/preflight.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "robust/sanitize.hpp"

namespace dopf::robust {

const char* to_string(PreflightPolicy policy) {
  switch (policy) {
    case PreflightPolicy::kWarn: return "warn";
    case PreflightPolicy::kRemediate: return "remediate";
    case PreflightPolicy::kStrict: return "strict";
  }
  return "unknown";
}

PreflightPolicy parse_policy(const std::string& text) {
  if (text == "warn") return PreflightPolicy::kWarn;
  if (text == "auto" || text == "remediate") return PreflightPolicy::kRemediate;
  if (text == "strict") return PreflightPolicy::kStrict;
  throw std::invalid_argument("unknown preflight policy '" + text +
                              "' (expected warn, auto, or strict)");
}

PreflightMode parse_mode(const std::string& text) {
  if (text == "off") return std::nullopt;
  try {
    return parse_policy(text);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument("unknown preflight mode '" + text +
                                "' (expected off, warn, auto, or strict)");
  }
}

std::size_t PreflightReport::count_health(BlockHealth health) const {
  std::size_t n = 0;
  for (const BlockConditioning& b : blocks) {
    if (b.health == health) ++n;
  }
  return n;
}

dopf::linalg::ProjectorOptions PreflightReport::projector_options() const {
  dopf::linalg::ProjectorOptions opts;
  opts.auto_regularize = policy == PreflightPolicy::kRemediate;
  return opts;
}

std::string PreflightReport::summary() const {
  char line[256];
  std::string out;
  std::snprintf(line, sizeof(line),
                "preflight[policy=%s]: %zu components, %zu error(s), %zu "
                "warning(s), %zu note(s)\n",
                robust::to_string(policy), blocks.size(), num_errors(),
                num_warnings(), count_severity(issues, Severity::kInfo));
  out += line;
  for (const Issue& issue : issues) {
    out += "  " + issue.to_string() + "\n";
  }
  const BlockConditioning* worst = nullptr;
  for (const BlockConditioning& b : blocks) {
    if (worst == nullptr || b.cond > worst->cond) worst = &b;
  }
  std::snprintf(line, sizeof(line),
                "conditioning: %zu healthy, %zu marginal, %zu degenerate",
                count_health(BlockHealth::kHealthy),
                count_health(BlockHealth::kMarginal),
                count_health(BlockHealth::kDegenerate));
  out += line;
  if (worst != nullptr) {
    std::snprintf(line, sizeof(line), "; worst cond %.3e (%s)",
                  worst->cond, worst->component.c_str());
    out += line;
  }
  out += "\n";
  if (equilibrated || max_ridge > 0.0) {
    out += "remediation:";
    if (equilibrated) out += " rows equilibrated;";
    std::snprintf(line, sizeof(line), " max Tikhonov ridge %.3e\n", max_ridge);
    out += line;
  }
  out += accepted ? "verdict: accepted\n" : "verdict: REJECTED: " + rejection +
                                                "\n";
  return out;
}

namespace {

bool same_block(const dopf::linalg::Matrix& a, const dopf::linalg::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const std::span<const double> da = a.data();
  const std::span<const double> db = b.data();
  return std::equal(da.begin(), da.end(), db.begin());
}

/// Emit kNonFiniteData errors for every NaN/inf entry of `v` (objective,
/// initial point, and right-hand sides must be finite; bounds may be
/// infinite and are checked separately).
void check_finite(std::span<const double> v, const std::string& site,
                  std::vector<Issue>* issues) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(v[i])) {
      issues->push_back(Issue{IssueCode::kNonFiniteData, Severity::kError,
                              site + "[" + std::to_string(i) + "]",
                              "non-finite value in scenario data"});
    }
  }
}

/// File the findings of one analyzed block into `report`. `scenario` marks
/// a block a scenario edit changed (run_scenario_preflight).
void judge_block(const BlockConditioning& block,
                 const PreflightOptions& options, bool scenario,
                 PreflightReport* report) {
  const char* after = scenario ? " after the scenario edit" : "";
  char msg[192];
  if (std::isinf(block.cond)) {
    // The exact projector does not exist. Under remediation a probed
    // ridge (if any) rescues it; otherwise this is fatal in every
    // policy — proceeding would only defer to a ConditioningError.
    if (options.policy == PreflightPolicy::kRemediate && block.ridge > 0.0) {
      std::snprintf(msg, sizeof(msg),
                    "Gram matrix not SPD; remediated with Tikhonov "
                    "ridge %.3e (solution perturbed accordingly)",
                    block.ridge);
      report->issues.push_back(Issue{IssueCode::kRegularized,
                                     Severity::kWarning, block.component,
                                     msg});
      report->max_ridge = std::max(report->max_ridge, block.ridge);
    } else {
      if (scenario) {
        std::snprintf(msg, sizeof(msg),
                      "scenario edit makes the Gram matrix non-SPD: the "
                      "closed-form projector (15) does not exist");
      } else {
        std::snprintf(msg, sizeof(msg),
                      "Gram matrix not SPD within tolerance: the "
                      "closed-form projector (15) does not exist "
                      "(%zu rows kept of %zu)",
                      block.rows, block.rows_before_reduction);
      }
      report->issues.push_back(Issue{IssueCode::kRankDeficient,
                                     Severity::kError, block.component, msg});
    }
  } else if (block.health == BlockHealth::kDegenerate) {
    std::snprintf(msg, sizeof(msg),
                  "cond(A_s A_s') ~ %.3e exceeds the degenerate "
                  "threshold %.1e%s",
                  block.cond, kCondDegenerate, after);
    report->issues.push_back(Issue{IssueCode::kIllConditioned,
                                   options.policy == PreflightPolicy::kStrict
                                       ? Severity::kError
                                       : Severity::kWarning,
                                   block.component, msg});
  } else if (block.health == BlockHealth::kMarginal) {
    std::snprintf(msg, sizeof(msg), "cond(A_s A_s') ~ %.3e is marginal%s",
                  block.cond, after);
    report->issues.push_back(Issue{IssueCode::kIllConditioned,
                                   Severity::kInfo, block.component, msg});
  }
}

/// The verdict: errors reject under every policy, the first one names it.
void decide(PreflightReport* report) {
  for (const Issue& issue : report->issues) {
    if (issue.severity == Severity::kError) {
      report->accepted = false;
      report->rejection = issue.to_string();
      return;
    }
  }
}

/// The delta preflight of prepare_scenario; nullopt under off.
std::optional<PreflightReport> check_scenario(
    const dopf::opf::DistributedProblem& scenario, PreflightMode mode,
    const dopf::opf::DistributedProblem& bound) {
  if (!mode) return std::nullopt;
  PreflightOptions popt;
  popt.policy = *mode;
  PreflightReport report = run_scenario_preflight(bound, scenario, popt);
  if (!report.accepted) throw PreflightError(std::move(report));
  return report;
}

}  // namespace

PreflightReport run_preflight(const dopf::network::Network& net,
                              const dopf::opf::OpfModel& model,
                              dopf::opf::DistributedProblem* problem_out,
                              const PreflightOptions& options) {
  PreflightReport report;
  report.policy = options.policy;

  // 1. Structural sanitation of the feeder, then numerical sanitation of
  //    the assembled model. Collect everything before judging.
  report.issues = sanitize_network(net);
  {
    std::vector<Issue> model_issues = sanitize_model(model);
    report.issues.insert(report.issues.end(),
                         std::make_move_iterator(model_issues.begin()),
                         std::make_move_iterator(model_issues.end()));
  }
  if (options.policy == PreflightPolicy::kStrict) {
    // Strict refuses raw models whose constraint rows are nearly parallel
    // even when RREF would recover a well-conditioned block: the Gram
    // matrix of the *input* is on the edge of losing positive definiteness,
    // and strict mode exists to surface that instead of relying on the
    // elimination order to save it.
    for (Issue& issue : report.issues) {
      if (issue.code == IssueCode::kNearDuplicateRows &&
          issue.severity == Severity::kWarning) {
        issue.severity = Severity::kError;
      }
    }
  }

  // 2. Decompose. Under the remediation policy, equilibrate the raw rows
  //    first (exact: the feasible sets are unchanged). An inconsistent
  //    component surfaces here as ModelError and becomes a typed issue
  //    rather than an exception escaping preflight.
  dopf::opf::DecomposeOptions dec = options.decompose;
  if (options.policy == PreflightPolicy::kRemediate) {
    dec.equilibrate_rows = true;
  }
  dopf::opf::DistributedProblem problem;
  bool decomposed = false;
  const bool sanitation_clean =
      count_severity(report.issues, Severity::kError) == 0;
  if (sanitation_clean) {
    try {
      problem = dopf::opf::decompose(net, model, dec);
      decomposed = true;
      report.equilibrated = dec.equilibrate_rows;
    } catch (const dopf::opf::ModelError& e) {
      report.issues.push_back(Issue{IssueCode::kInconsistentRows,
                                    Severity::kError, "decompose", e.what()});
    }
  }

  // 3. Conditioning analysis of each component block.
  if (decomposed) {
    report.blocks = analyze_conditioning(problem);
    for (const BlockConditioning& block : report.blocks) {
      judge_block(block, options, /*scenario=*/false, &report);
    }
  }

  // 4. Verdict. Strict additionally refuses any block that is not
  //    healthy-or-marginal (judge_block upgrades degenerate conditioning
  //    to an error).
  decide(&report);

  if (report.accepted && problem_out != nullptr) {
    *problem_out = std::move(problem);
  }
  return report;
}

PreflightReport run_scenario_preflight(
    const dopf::opf::DistributedProblem& base,
    const dopf::opf::DistributedProblem& scenario,
    const PreflightOptions& options) {
  PreflightReport report;
  report.policy = options.policy;

  // 1. Layout gate: a scenario must decompose to exactly the bound model's
  //    shape. Anything else is a new model, not a rebind.
  if (scenario.num_vars != base.num_vars ||
      scenario.components.size() != base.components.size()) {
    report.accepted = false;
    report.rejection =
        "scenario decomposition shape differs from the bound model (" +
        std::to_string(scenario.num_vars) + "/" +
        std::to_string(base.num_vars) + " variables, " +
        std::to_string(scenario.components.size()) + "/" +
        std::to_string(base.components.size()) +
        " components) — rebuild the SolveModel instead of rebinding";
    return report;
  }
  for (std::size_t s = 0; s < base.components.size(); ++s) {
    if (scenario.components[s].global != base.components[s].global) {
      report.accepted = false;
      report.rejection = "scenario component '" +
                         scenario.components[s].name +
                         "' covers a different variable set than the bound "
                         "model — rebuild the SolveModel instead of rebinding";
      return report;
    }
  }

  // 2. Scenario-surface sanitation: only the data a rebind touches. The
  //    unchanged topology was sanitized when the model was built and is
  //    deliberately NOT re-checked — that is the point of this entry point.
  check_finite(scenario.c, "scenario:c", &report.issues);
  check_finite(scenario.x0, "scenario:x0", &report.issues);
  for (std::size_t i = 0; i < scenario.lb.size(); ++i) {
    if (std::isnan(scenario.lb[i]) || std::isnan(scenario.ub[i])) {
      report.issues.push_back(Issue{IssueCode::kNonFiniteData,
                                    Severity::kError,
                                    "scenario:bounds[" + std::to_string(i) +
                                        "]",
                                    "NaN bound in scenario data"});
    } else if (scenario.lb[i] > scenario.ub[i]) {
      report.issues.push_back(
          Issue{IssueCode::kInvertedBounds, Severity::kError,
                "scenario:bounds[" + std::to_string(i) + "]",
                "lower bound exceeds upper bound in scenario data"});
    }
  }

  // 3. Per-component dirty check: conditioning analysis only where the
  //    equality block actually changed; everything else reuses the base
  //    verdict (and its factorization).
  for (std::size_t s = 0; s < base.components.size(); ++s) {
    const auto& sc = scenario.components[s];
    const auto& bc = base.components[s];
    const bool a_changed = !same_block(sc.a, bc.a);
    if (!a_changed) {
      ++report.scenario_components_reused;
      if (sc.b != bc.b) {
        check_finite(sc.b, "scenario:" + sc.name + ":b", &report.issues);
      }
      continue;
    }
    check_finite(sc.b, "scenario:" + sc.name + ":b", &report.issues);
    const BlockConditioning block = analyze_component(sc);
    report.blocks.push_back(block);
    judge_block(block, options, /*scenario=*/true, &report);
  }

  // 4. Verdict: same rule as the full preflight.
  decide(&report);
  return report;
}

PreparedProblem prepare(const dopf::network::Network& net, PreflightMode mode,
                        const dopf::opf::DecomposeOptions& decompose) {
  PreparedProblem out{mode, dopf::opf::build_model(net), {}, decompose, {},
                      std::nullopt};
  if (!mode) {
    out.problem = dopf::opf::decompose(net, out.model, decompose);
    return out;
  }
  PreflightOptions popt;
  popt.policy = *mode;
  popt.decompose = decompose;
  PreflightReport report = run_preflight(net, out.model, &out.problem, popt);
  if (!report.accepted) throw PreflightError(std::move(report));
  out.decompose.equilibrate_rows = report.equilibrated;
  out.projector = report.projector_options();
  out.report = std::move(report);
  return out;
}

PreparedScenario prepare_scenario(const dopf::network::Network& scenario,
                                  PreflightMode mode,
                                  const dopf::opf::DecomposeOptions& decompose,
                                  const dopf::opf::DistributedProblem& bound) {
  PreparedScenario out;
  out.built = dopf::opf::decompose(scenario, dopf::opf::build_model(scenario),
                                   decompose);
  out.report = check_scenario(*out.built, mode, bound);
  return out;
}

PreparedScenario prepare_scenario(const PreparedProblem& base,
                                  const dopf::opf::DistributedProblem& bound) {
  PreparedScenario out;
  out.base = &base.problem;
  out.report = check_scenario(base.problem, base.mode, bound);
  return out;
}

}  // namespace dopf::robust

#include "robust/sanitize.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

namespace dopf::robust {

using dopf::network::Bus;
using dopf::network::Generator;
using dopf::network::kInfinity;
using dopf::network::Line;
using dopf::network::Load;
using dopf::network::Network;
using dopf::network::PerPhase;
using dopf::network::Phase;
using dopf::network::PhaseMatrix;
using dopf::network::PhaseSet;
using dopf::opf::Equation;
using dopf::opf::OpfModel;

namespace {

/// Per-row coefficient magnitude range (max|a_ij| / min nonzero |a_ij|)
/// beyond which an equation is flagged as mixed-unit data.
constexpr double kRowDisparityWarn = 1e8;
constexpr double kRowDisparityError = 1e12;
/// Two rows of one component are "near-duplicate" when the angle between
/// them is below this (1 - |cos| <= tol). Exact duplicates are dropped by
/// RREF and only noted; near-parallel survivors are warned about, since
/// they are what breaks the Gram Cholesky later.
constexpr double kNearParallelTol = 1e-8;

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3g", v);
  return buf;
}

/// The library's bounds use kInfinity = 1e30 as "unbounded"; raw IEEE
/// NaN/inf in any field is always corrupt data.
bool bad(double v) { return !std::isfinite(v); }

class Collector {
 public:
  explicit Collector(std::vector<Issue>* out) : out_(out) {}

  void add(IssueCode code, Severity severity, std::string site,
           std::string message) {
    out_->push_back(
        Issue{code, severity, std::move(site), std::move(message)});
  }

  /// Flag any non-finite entry of a per-phase triple.
  void check_finite(const PerPhase<double>& v, const std::string& site,
                    const char* field) {
    for (double x : v.values) {
      if (bad(x)) {
        add(IssueCode::kNonFiniteData, Severity::kError, site,
            std::string(field) + " contains a non-finite value");
        return;
      }
    }
  }

  void check_finite(const PhaseMatrix& m, const std::string& site,
                    const char* field) {
    for (const auto& row : m.m) {
      for (double x : row) {
        if (bad(x)) {
          add(IssueCode::kNonFiniteData, Severity::kError, site,
              std::string(field) + " contains a non-finite value");
          return;
        }
      }
    }
  }

  /// Per-phase box check: inverted (error) or pinned lb == ub (info).
  void check_box(const PerPhase<double>& lo, const PerPhase<double>& hi,
                 PhaseSet phases, const std::string& site,
                 const char* field) {
    for (Phase p : phases.phases()) {
      const double l = lo[p], h = hi[p];
      if (bad(l) || bad(h)) continue;  // already reported as non-finite
      if (l > h) {
        add(IssueCode::kInvertedBounds, Severity::kError, site,
            std::string(field) + " inverted on phase " +
                std::string(1, "abc"[dopf::network::index(p)]) + ": lb " +
                fmt(l) + " > ub " + fmt(h));
      } else if (l == h && std::abs(l) < kInfinity / 2) {
        add(IssueCode::kDegenerateBox, Severity::kInfo, site,
            std::string(field) + " pinned (lb == ub == " + fmt(l) +
                ") on phase " +
                std::string(1, "abc"[dopf::network::index(p)]));
      }
    }
  }

 private:
  std::vector<Issue>* out_;
};

}  // namespace

std::vector<Issue> sanitize_network(const Network& net) {
  std::vector<Issue> issues;
  Collector c(&issues);

  for (const Bus& b : net.buses()) {
    const std::string site = "bus:" + b.name;
    c.check_finite(b.w_min, site, "w_min");
    c.check_finite(b.w_max, site, "w_max");
    c.check_finite(b.g_shunt, site, "g_shunt");
    c.check_finite(b.b_shunt, site, "b_shunt");
    c.check_box(b.w_min, b.w_max, b.phases, site, "voltage bounds");
    for (Phase p : b.phases.phases()) {
      if (!bad(b.w_min[p]) && b.w_min[p] < 0.0) {
        c.add(IssueCode::kBadScalar, Severity::kError, site,
              "negative squared-voltage lower bound " + fmt(b.w_min[p]));
      }
    }
    // Orphan phases: a non-head bus phase no incident line delivers. The
    // model still creates w variables for it, but nothing couples them to
    // the feeder; a load there demands power that cannot arrive.
    if (b.id != 0) {
      PhaseSet served = PhaseSet::none();
      for (const auto& inc : net.lines_at(b.id)) {
        for (Phase p : net.line(inc.line).phases.phases()) {
          served = served.with(p);
        }
      }
      for (Phase p : b.phases.phases()) {
        if (!served.has(p)) {
          c.add(IssueCode::kOrphanPhase, Severity::kWarning, site,
                std::string("phase ") +
                    std::string(1, "abc"[dopf::network::index(p)]) +
                    " is carried by no incident line");
        }
      }
    }
  }

  for (const Generator& g : net.generators()) {
    const std::string site = "gen:" + g.name;
    c.check_finite(g.p_min, site, "p_min");
    c.check_finite(g.p_max, site, "p_max");
    c.check_finite(g.q_min, site, "q_min");
    c.check_finite(g.q_max, site, "q_max");
    if (bad(g.cost)) {
      c.add(IssueCode::kNonFiniteData, Severity::kError, site,
            "cost is non-finite");
    }
    c.check_box(g.p_min, g.p_max, g.phases, site, "active power bounds");
    c.check_box(g.q_min, g.q_max, g.phases, site, "reactive power bounds");
    if (!g.phases.subset_of(net.bus(g.bus).phases)) {
      c.add(IssueCode::kPhaseMismatch, Severity::kError, site,
            "phases " + g.phases.to_string() + " not a subset of bus " +
                net.bus(g.bus).name + " phases " +
                net.bus(g.bus).phases.to_string());
    }
  }

  for (const Load& l : net.loads()) {
    const std::string site = "load:" + l.name;
    c.check_finite(l.p_ref, site, "p_ref");
    c.check_finite(l.q_ref, site, "q_ref");
    c.check_finite(l.alpha, site, "alpha");
    c.check_finite(l.beta, site, "beta");
    if (!l.phases.subset_of(net.bus(l.bus).phases)) {
      c.add(IssueCode::kPhaseMismatch, Severity::kError, site,
            "phases " + l.phases.to_string() + " not a subset of bus " +
                net.bus(l.bus).name + " phases");
    }
    if (l.connection == dopf::network::Connection::kDelta &&
        l.phases != PhaseSet::abc()) {
      c.add(IssueCode::kPhaseMismatch, Severity::kError, site,
            "delta load must be three-phase (linearization (4f)-(4j))");
    }
    for (Phase p : l.phases.phases()) {
      if ((!bad(l.alpha[p]) && l.alpha[p] < 0.0) ||
          (!bad(l.beta[p]) && l.beta[p] < 0.0)) {
        c.add(IssueCode::kBadScalar, Severity::kError, site,
              "negative ZIP exponent");
      }
    }
  }

  for (const Line& l : net.lines()) {
    const std::string site = "line:" + l.name;
    c.check_finite(l.r, site, "r");
    c.check_finite(l.x, site, "x");
    c.check_finite(l.g_shunt_from, site, "g_shunt_from");
    c.check_finite(l.b_shunt_from, site, "b_shunt_from");
    c.check_finite(l.g_shunt_to, site, "g_shunt_to");
    c.check_finite(l.b_shunt_to, site, "b_shunt_to");
    c.check_finite(l.tap_ratio, site, "tap_ratio");
    c.check_finite(l.flow_limit, site, "flow_limit");
    if (l.phases.empty()) {
      c.add(IssueCode::kEmptyPhases, Severity::kError, site,
            "line carries no phase");
    }
    if (!l.phases.subset_of(net.bus(l.from_bus).phases) ||
        !l.phases.subset_of(net.bus(l.to_bus).phases)) {
      c.add(IssueCode::kPhaseMismatch, Severity::kError, site,
            "phases " + l.phases.to_string() +
                " not a subset of both endpoint buses");
    }
    for (Phase p : l.phases.phases()) {
      if (!bad(l.tap_ratio[p]) && l.tap_ratio[p] <= 0.0) {
        c.add(IssueCode::kBadScalar, Severity::kError, site,
              "non-positive tap ratio " + fmt(l.tap_ratio[p]));
      }
      if (!bad(l.flow_limit[p]) && l.flow_limit[p] <= 0.0) {
        c.add(IssueCode::kBadScalar, Severity::kError, site,
              "non-positive flow limit " + fmt(l.flow_limit[p]));
      }
    }
  }

  if (net.num_generators() == 0) {
    c.add(IssueCode::kNoGenerator, Severity::kError, "network",
          "no generator (no substation modeled)");
  }
  if (net.num_buses() > 0 && !net.is_connected()) {
    c.add(IssueCode::kDisconnected, Severity::kError, "network",
          "graph is not connected: some bus is unreachable from the feeder "
          "head");
  }
  return issues;
}

std::vector<Issue> sanitize_model(const OpfModel& model) {
  std::vector<Issue> issues;
  Collector c(&issues);

  // Per-equation checks: non-finite terms and in-row scale disparity
  // (mixed units — e.g. impedances entered in ohms against per-unit
  // voltages — make one coefficient dwarf the rest and poison the pivot
  // tolerance of the row reduction).
  for (const Equation& eq : model.equations) {
    const std::string site = "equation:" + eq.name;
    double min_abs = kInfinity, max_abs = 0.0;
    bool finite = true;
    for (const auto& [var, coeff] : eq.terms) {
      (void)var;
      if (bad(coeff)) {
        finite = false;
        break;
      }
      const double a = std::abs(coeff);
      if (a > 0.0) {
        min_abs = std::min(min_abs, a);
        max_abs = std::max(max_abs, a);
      }
    }
    if (!finite || bad(eq.rhs)) {
      c.add(IssueCode::kNonFiniteData, Severity::kError, site,
            "equation has a non-finite coefficient or right-hand side");
      continue;
    }
    if (max_abs > 0.0 && min_abs < kInfinity) {
      const double disparity = max_abs / min_abs;
      if (disparity > kRowDisparityError) {
        c.add(IssueCode::kRowScaleDisparity, Severity::kError, site,
              "coefficient magnitudes span " + fmt(disparity) +
                  "x (mixed-unit data?); row equilibration required");
      } else if (disparity > kRowDisparityWarn) {
        c.add(IssueCode::kRowScaleDisparity, Severity::kWarning, site,
              "coefficient magnitudes span " + fmt(disparity) + "x");
      }
    }
  }

  // Near-duplicate rows within one owning component: group equations by
  // (owner kind, owner id) — the grouping decompose() uses — and compare
  // normalized sparse rows pairwise. Components are tiny (Table IV), so
  // the O(m^2) pairs per component are negligible.
  std::map<std::pair<int, int>, std::vector<const Equation*>> groups;
  for (const Equation& eq : model.equations) {
    groups[{static_cast<int>(eq.owner), eq.owner_id}].push_back(&eq);
  }
  for (const auto& [key, eqs] : groups) {
    (void)key;
    // Dense-ify each row over the union of variables in the group.
    std::map<int, std::size_t> local;
    for (const Equation* eq : eqs) {
      for (const auto& [var, coeff] : eq->terms) {
        (void)coeff;
        local.emplace(var, local.size());
      }
    }
    std::vector<std::vector<double>> rows(eqs.size(),
                                          std::vector<double>(local.size()));
    std::vector<double> norms(eqs.size(), 0.0);
    for (std::size_t r = 0; r < eqs.size(); ++r) {
      for (const auto& [var, coeff] : eqs[r]->terms) {
        rows[r][local[var]] += coeff;
      }
      double nn = 0.0;
      for (double v : rows[r]) nn += v * v;
      norms[r] = std::sqrt(nn);
    }
    for (std::size_t i = 0; i < eqs.size(); ++i) {
      if (!(norms[i] > 0.0) || bad(norms[i])) continue;
      for (std::size_t j = i + 1; j < eqs.size(); ++j) {
        if (!(norms[j] > 0.0) || bad(norms[j])) continue;
        double dot = 0.0;
        for (std::size_t k = 0; k < rows[i].size(); ++k) {
          dot += rows[i][k] * rows[j][k];
        }
        const double cosine = std::abs(dot) / (norms[i] * norms[j]);
        // The |cos| = 1 boundary is fuzzy in floating point (an exact
        // duplicate can evaluate to 1 +/- 1ulp); anything parallel to
        // machine precision counts as an exact duplicate.
        if (1.0 - cosine <= 1e-15) {
          c.add(IssueCode::kNearDuplicateRows, Severity::kInfo,
                "equation:" + eqs[i]->name + " / " + eqs[j]->name,
                "rows are parallel (RREF will drop one)");
        } else if (1.0 - cosine <= kNearParallelTol) {
          c.add(IssueCode::kNearDuplicateRows, Severity::kWarning,
                "equation:" + eqs[i]->name + " / " + eqs[j]->name,
                "rows are nearly parallel (1 - |cos| = " + fmt(1.0 - cosine) +
                    "); the Gram matrix may lose positive definiteness");
        }
      }
    }
  }
  return issues;
}

}  // namespace dopf::robust

#include "verify/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace dopf::verify {

using dopf::opf::Component;
using dopf::opf::DistributedProblem;
using dopf::opf::OpfModel;
using dopf::solver::LpSolution;

namespace {

/// Bound violation of the global iterate: the global update clips, so any
/// violation beyond roundoff means the clip kernel broke.
constexpr double kBoxTol = 1e-9;

std::string format_line(const char* name, double value) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "  %-18s %.6e", name, value);
  return buf;
}

std::string format_failure(const char* what, double value, double tol) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s: %.6e exceeds tolerance %.1e", what,
                value, tol);
  return buf;
}

}  // namespace

std::vector<std::string> InvariantReport::failures(
    const InvariantOptions& options) const {
  std::vector<std::string> out;
  if (local_feasibility > options.local_feasibility_tol) {
    out.push_back(
        format_failure("local feasibility ||A_s z_s - b_s||_inf",
                       local_feasibility, options.local_feasibility_tol) +
        (worst_component.empty() ? "" : " (component " + worst_component + ")"));
  }
  if (box_violation > kBoxTol) {
    out.push_back(format_failure("box violation of the global iterate",
                                 box_violation, kBoxTol));
  }
  if (consensus_gap > options.consensus_tol) {
    out.push_back(format_failure("consensus gap ||Bx - z||_inf", consensus_gap,
                                 options.consensus_tol));
  }
  if (model_residual >= 0.0 && model_residual > options.model_residual_tol) {
    out.push_back(format_failure("centralized model residual max|Ax - b|",
                                 model_residual, options.model_residual_tol));
  }
  if (kkt_stationarity >= 0.0 && kkt_stationarity > options.kkt_tol) {
    out.push_back(format_failure("KKT stationarity vs reference multipliers",
                                 kkt_stationarity, options.kkt_tol));
  }
  if (objective_gap >= 0.0 && objective_gap > options.objective_tol) {
    out.push_back(format_failure("relative objective gap vs reference",
                                 objective_gap, options.objective_tol));
  }
  return out;
}

std::string InvariantReport::to_string() const {
  std::string s = "invariants:\n";
  s += format_line("local_feasibility", local_feasibility);
  if (!worst_component.empty()) s += "  (worst: " + worst_component + ")";
  s += '\n';
  s += format_line("box_violation", box_violation) + '\n';
  s += format_line("consensus_gap", consensus_gap) + '\n';
  s += format_line("primal_residual", primal_residual) + '\n';
  if (model_residual >= 0.0) {
    s += format_line("model_residual", model_residual) + '\n';
  }
  if (kkt_stationarity >= 0.0) {
    s += format_line("kkt_stationarity", kkt_stationarity) + '\n';
  }
  if (objective_gap >= 0.0) {
    s += format_line("objective_gap", objective_gap) + '\n';
  }
  return s;
}

InvariantReport check_invariants(const DistributedProblem& problem,
                                 std::span<const double> x,
                                 std::span<const double> z) {
  if (x.size() != problem.num_vars) {
    throw std::invalid_argument("check_invariants: x has size " +
                                std::to_string(x.size()) + ", expected " +
                                std::to_string(problem.num_vars));
  }
  if (z.size() != problem.total_local_vars()) {
    throw std::invalid_argument("check_invariants: z has size " +
                                std::to_string(z.size()) + ", expected " +
                                std::to_string(problem.total_local_vars()));
  }

  InvariantReport report;
  double pres2 = 0.0;
  std::size_t offset = 0;
  for (const Component& comp : problem.components) {
    const std::size_t ns = comp.num_vars();
    const std::span<const double> zs = z.subspan(offset, ns);

    // A_s z_s = b_s, straight from the component's equality block.
    for (std::size_t r = 0; r < comp.num_rows(); ++r) {
      double axb = -comp.b[r];
      for (std::size_t j = 0; j < ns; ++j) {
        axb += comp.a(r, j) * zs[j];
      }
      if (std::abs(axb) > report.local_feasibility) {
        report.local_feasibility = std::abs(axb);
        report.worst_component = comp.name;
      }
    }

    // Consensus between the global iterate and this component's copies.
    for (std::size_t j = 0; j < ns; ++j) {
      const double gap = x[static_cast<std::size_t>(comp.global[j])] - zs[j];
      report.consensus_gap = std::max(report.consensus_gap, std::abs(gap));
      pres2 += gap * gap;
    }
    offset += ns;
  }
  report.primal_residual = std::sqrt(pres2);

  for (std::size_t i = 0; i < x.size(); ++i) {
    report.box_violation = std::max(
        {report.box_violation, problem.lb[i] - x[i], x[i] - problem.ub[i]});
  }
  return report;
}

void add_model_check(const OpfModel& model, std::span<const double> x,
                     InvariantReport* report) {
  report->model_residual = model.equation_residual(x);
}

void add_reference_check(const OpfModel& model, std::span<const double> x,
                         const LpSolution& reference,
                         InvariantReport* report) {
  if (reference.y.size() != model.num_equations()) {
    throw std::invalid_argument(
        "add_reference_check: reference multipliers do not match the model "
        "(" +
        std::to_string(reference.y.size()) + " vs " +
        std::to_string(model.num_equations()) + " equations)");
  }
  // Reduced gradient g = c - A'y, accumulated equation by equation so the
  // check shares no code with the solvers' CSR kernels.
  std::vector<double> grad(model.c.begin(), model.c.end());
  for (std::size_t e = 0; e < model.equations.size(); ++e) {
    const double ye = reference.y[e];
    if (ye == 0.0) continue;
    for (const auto& [var, coeff] : model.equations[e].terms) {
      grad[static_cast<std::size_t>(var)] -= coeff * ye;
    }
  }
  // Projected-gradient stationarity: at a KKT point of (7), stepping along
  // -g and clipping back to the box returns the same point.
  double stat = 0.0;
  for (std::size_t i = 0; i < grad.size(); ++i) {
    const double stepped =
        std::clamp(x[i] - grad[i], model.lb[i], model.ub[i]);
    stat = std::max(stat, std::abs(x[i] - stepped));
  }
  report->kkt_stationarity = stat;
  report->objective_gap = std::abs(model.objective(x) - reference.objective) /
                          (1.0 + std::abs(reference.objective));
}

}  // namespace dopf::verify

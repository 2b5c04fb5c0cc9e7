#include "opf/decompose.hpp"

#include <algorithm>
#include <numeric>

#include "linalg/rref.hpp"

namespace dopf::opf {

using network::Network;

ConditioningError::ConditioningError(std::string component,
                                     std::size_t pivot_index,
                                     double pivot_value)
    : ModelError("component '" + component +
                 "' is numerically rank-deficient: Gram pivot " +
                 std::to_string(pivot_value) + " at row " +
                 std::to_string(pivot_index) +
                 " (near-duplicate constraint rows survived the RREF "
                 "tolerance; enable preflight remediation or fix the input)"),
      component_(std::move(component)),
      pivot_index_(pivot_index),
      pivot_value_(pivot_value) {}

std::size_t DistributedProblem::total_local_vars() const {
  return std::accumulate(components.begin(), components.end(), std::size_t{0},
                         [](std::size_t acc, const Component& comp) {
                           return acc + comp.num_vars();
                         });
}

namespace {

/// Pivot tolerance of the row reduction (relative to the largest entry).
constexpr double kRrefTol = 1e-9;

/// Assemble one component from its equation list: collect the local variable
/// set in order of first appearance, build the dense A_s / b_s, and
/// optionally row-reduce to full row rank.
Component assemble(std::string name,
                   const std::vector<const Equation*>& equations,
                   std::size_t num_global, const DecomposeOptions& options,
                   std::vector<int>& scratch_local_of_global) {
  Component comp;
  comp.name = std::move(name);

  for (const Equation* eq : equations) {
    for (const auto& [var, coeff] : eq->terms) {
      (void)coeff;
      if (scratch_local_of_global[var] < 0) {
        scratch_local_of_global[var] = static_cast<int>(comp.global.size());
        comp.global.push_back(var);
      }
    }
  }

  dopf::linalg::Matrix a(equations.size(), comp.global.size());
  std::vector<double> b(equations.size());
  for (std::size_t r = 0; r < equations.size(); ++r) {
    for (const auto& [var, coeff] : equations[r]->terms) {
      a(r, scratch_local_of_global[var]) += coeff;
    }
    b[r] = equations[r]->rhs;
  }
  comp.rows_before_reduction = equations.size();

  // Reset the scratch map for the next component.
  for (int g : comp.global) scratch_local_of_global[g] = -1;
  (void)num_global;

  if (options.equilibrate_rows) {
    dopf::linalg::equilibrate_rows(&a, &b);
  }

  if (options.row_reduce) {
    dopf::linalg::RrefResult red =
        dopf::linalg::row_reduce(a, std::move(b), kRrefTol);
    if (red.inconsistent) {
      throw ModelError("component '" + comp.name +
                       "' has inconsistent equality constraints");
    }
    comp.a = std::move(red.a);
    comp.b = std::move(red.b);
  } else {
    comp.a = std::move(a);
    comp.b = std::move(b);
  }
  return comp;
}

}  // namespace

DistributedProblem decompose(const Network& net, const OpfModel& model,
                             const DecomposeOptions& options) {
  DistributedProblem problem;
  problem.num_vars = model.num_vars();
  problem.c = model.c;
  problem.lb = model.lb;
  problem.ub = model.ub;
  problem.x0 = model.x0;

  // Group equation pointers by owning component. A leaf bus (degree 1,
  // excluding the feeder head bus 0) is merged into its incident line's
  // component, per Sec. V-A.
  std::vector<std::vector<const Equation*>> bus_eqs(net.num_buses());
  std::vector<std::vector<const Equation*>> line_eqs(net.num_lines());
  for (const Equation& eq : model.equations) {
    if (eq.owner == Owner::kBus) {
      bus_eqs[eq.owner_id].push_back(&eq);
    } else {
      line_eqs[eq.owner_id].push_back(&eq);
    }
  }

  std::vector<int> merged_into_line(net.num_buses(), -1);
  if (options.merge_leaves) {
    for (const auto& bus : net.buses()) {
      if (bus.id == 0) continue;  // keep the feeder head separate
      const auto incident = net.lines_at(bus.id);
      if (incident.size() != 1) continue;
      merged_into_line[bus.id] = incident[0].line;
    }
  }

  std::vector<int> scratch(model.num_vars(), -1);

  for (const auto& bus : net.buses()) {
    if (merged_into_line[bus.id] >= 0) continue;
    problem.components.push_back(assemble("bus:" + bus.name, bus_eqs[bus.id],
                                          model.num_vars(), options, scratch));
  }
  for (const auto& line : net.lines()) {
    std::vector<const Equation*> eqs = line_eqs[line.id];
    std::string name = "line:" + line.name;
    for (int bus : {line.from_bus, line.to_bus}) {
      if (merged_into_line[bus] == line.id) {
        eqs.insert(eqs.end(), bus_eqs[bus].begin(), bus_eqs[bus].end());
        name = "leaf:" + net.bus(bus).name + "+" + line.name;
      }
    }
    problem.components.push_back(
        assemble(std::move(name), eqs, model.num_vars(), options, scratch));
  }

  // Consensus copy counts (the |I_si| sums of (13)).
  problem.copy_count.assign(model.num_vars(), 0);
  for (const Component& comp : problem.components) {
    for (int g : comp.global) ++problem.copy_count[g];
  }
  for (std::size_t i = 0; i < problem.copy_count.size(); ++i) {
    if (problem.copy_count[i] == 0) {
      throw ModelError("variable " +
                       model.vars.name(net, static_cast<int>(i)) +
                       " is covered by no component");
    }
  }
  return problem;
}

DistributedProblem decompose(const Network& net,
                             const DecomposeOptions& options) {
  const OpfModel model = build_model(net);
  return decompose(net, model, options);
}

}  // namespace dopf::opf

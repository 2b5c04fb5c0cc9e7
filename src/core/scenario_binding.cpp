#include "core/scenario_binding.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace dopf::core {

using dopf::opf::Component;
using dopf::opf::DistributedProblem;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool same_matrix(const dopf::linalg::Matrix& a, const dopf::linalg::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  const std::span<const double> da = a.data();
  const std::span<const double> db = b.data();
  return std::equal(da.begin(), da.end(), db.begin());
}

void copy_span(std::span<const double> from, std::vector<double>& to,
               const char* what) {
  if (from.size() != to.size()) {
    throw std::invalid_argument(std::string("ScenarioBinding: ") + what +
                                " size mismatch");
  }
  std::copy(from.begin(), from.end(), to.begin());
}

}  // namespace

ScenarioBinding::ScenarioBinding(SolveModel& model) : model_(&model) {
  const auto start = std::chrono::steady_clock::now();
  pack_ = model.make_pack();
  bound_b_.reserve(model.num_components());
  for (const Component& comp : model.problem().components) {
    bound_b_.push_back(comp.b);
  }
  bind_seconds_ = seconds_since(start);
}

std::span<double> ScenarioBinding::bbar_slice(std::size_t s) {
  return std::span<double>(pack_.bbar)
      .subspan(static_cast<std::size_t>(pack_.comp_offset[s]),
               static_cast<std::size_t>(pack_.comp_nvars[s]));
}

void ScenarioBinding::set_rhs(std::size_t s, std::span<const double> b) {
  const std::vector<double> bbar = model_->rebind_rhs(s, b);
  std::span<double> slice = bbar_slice(s);
  std::copy(bbar.begin(), bbar.end(), slice.begin());
  bound_b_[s].assign(b.begin(), b.end());
  ++lifetime_.rhs_rebinds;
}

void ScenarioBinding::refresh_component(std::size_t s, const Component& comp) {
  model_->refresh_component(s, comp);
  const dopf::linalg::AffineProjector& proj = model_->projector(s);
  pack_.set_abar(s, proj.abar().data());
  std::span<double> bbar = bbar_slice(s);
  std::copy(proj.bbar().begin(), proj.bbar().end(), bbar.begin());
  bound_b_[s] = comp.b;
  ++lifetime_.refactorizations;
}

void ScenarioBinding::set_objective(std::span<const double> c) {
  copy_span(c, pack_.c, "objective");
  lifetime_.objective_changed = true;
}

void ScenarioBinding::set_bounds(std::span<const double> lb,
                                 std::span<const double> ub) {
  copy_span(lb, pack_.lb, "lower bound");
  copy_span(ub, pack_.ub, "upper bound");
  lifetime_.bounds_changed = true;
}

void ScenarioBinding::set_initial_point(std::span<const double> x0) {
  copy_span(x0, pack_.x0, "initial point");
  lifetime_.initial_point_changed = true;
}

RebindStats ScenarioBinding::rebind(const DistributedProblem& scenario) {
  const DistributedProblem& base = model_->problem();
  if (scenario.num_vars != base.num_vars ||
      scenario.components.size() != base.components.size()) {
    throw std::invalid_argument(
        "ScenarioBinding::rebind: scenario has a different decomposition "
        "shape; rebuild the SolveModel instead");
  }
  for (std::size_t s = 0; s < base.components.size(); ++s) {
    if (scenario.components[s].global != base.components[s].global) {
      throw std::invalid_argument(
          "ScenarioBinding::rebind: component '" +
          scenario.components[s].name +
          "' covers a different variable set; that is a different model");
    }
  }

  RebindStats st;
  for (std::size_t s = 0; s < base.components.size(); ++s) {
    const Component& sc = scenario.components[s];
    const Component& bc = base.components[s];
    if (!same_matrix(sc.a, bc.a)) {
      refresh_component(s, sc);
      ++st.refactorizations;
    } else if (sc.b != bound_b_[s]) {
      if (model_->can_rebind_rhs(s)) {
        set_rhs(s, sc.b);
        ++st.rhs_rebinds;
      } else {
        // Adopted legacy solvers without retained factors: fall back to a
        // full (counted) re-derivation.
        refresh_component(s, sc);
        ++st.refactorizations;
      }
    } else {
      ++st.unchanged;
    }
  }

  if (scenario.c != pack_.c) {
    set_objective(scenario.c);
    st.objective_changed = true;
  }
  if (scenario.lb != pack_.lb || scenario.ub != pack_.ub) {
    set_bounds(scenario.lb, scenario.ub);
    st.bounds_changed = true;
  }
  if (scenario.x0 != pack_.x0) {
    set_initial_point(scenario.x0);
    st.initial_point_changed = true;
  }
  return st;
}

}  // namespace dopf::core

#include "opf/validate.hpp"

#include <algorithm>
#include <cmath>

namespace dopf::opf {

using network::Connection;
using network::Line;
using network::Network;
using network::Phase;

namespace {

constexpr double kSqrt3 = 1.7320508075688772;

struct Tracker {
  double* slot;
  ValidationReport* report;
  double current_worst = 0.0;

  void update(double value, const std::string& site) {
    const double v = std::abs(value);
    if (v > report->worst()) report->worst_site = site;
    *slot = std::max(*slot, v);
  }
};

}  // namespace

double ValidationReport::worst() const {
  return std::max({max_p_balance, max_q_balance, max_flow_consistency,
                   max_voltage_equation, max_load_model,
                   max_bound_violation});
}

std::string ValidationReport::worst_check() const {
  const struct {
    double value;
    const char* name;
  } checks[] = {{max_p_balance, "P-balance"},
                {max_q_balance, "Q-balance"},
                {max_flow_consistency, "flow"},
                {max_voltage_equation, "voltage"},
                {max_load_model, "load-model"},
                {max_bound_violation, "bounds"}};
  const char* name = checks[0].name;
  double best = checks[0].value;
  for (const auto& c : checks) {
    if (c.value > best) {
      best = c.value;
      name = c.name;
    }
  }
  return name;
}

ValidationReport validate_solution(const Network& net, const OpfModel& model,
                                   std::span<const double> x) {
  const SolutionView view(net, model, x);
  ValidationReport report;

  // ---- Power balance (3): recomputed by walking the network adjacency.
  for (const auto& bus : net.buses()) {
    for (Phase p : bus.phases.phases()) {
      double sum_p = 0.0, sum_q = 0.0;
      for (const auto& inc : net.lines_at(bus.id)) {
        const Line& line = net.line(inc.line);
        if (!line.phases.has(p)) continue;
        sum_p += inc.from_side ? view.flow_p_from(line.id, p)
                               : view.flow_p_to(line.id, p);
        sum_q += inc.from_side ? view.flow_q_from(line.id, p)
                               : view.flow_q_to(line.id, p);
      }
      for (int l : net.loads_at(bus.id)) {
        if (!net.load(l).phases.has(p)) continue;
        sum_p += x[model.vars.load_pb(l, p)];
        sum_q += x[model.vars.load_qb(l, p)];
      }
      const double w = view.bus_w(bus.id, p);
      sum_p += bus.g_shunt[p] * w;
      sum_q -= bus.b_shunt[p] * w;
      for (int g : net.generators_at(bus.id)) {
        if (!net.generator(g).phases.has(p)) continue;
        sum_p -= view.gen_p(g, p);
        sum_q -= view.gen_q(g, p);
      }
      Tracker{&report.max_p_balance, &report}.update(sum_p, bus.name);
      Tracker{&report.max_q_balance, &report}.update(sum_q, bus.name);
    }
  }

  // ---- Flow consistency (5a)/(5b) and voltage equation (5c).
  for (const auto& line : net.lines()) {
    for (Phase p : line.phases.phases()) {
      const double wi = view.bus_w(line.from_bus, p);
      const double wj = view.bus_w(line.to_bus, p);
      const double r5a = view.flow_p_from(line.id, p) +
                         view.flow_p_to(line.id, p) -
                         line.g_shunt_from[p] * wi - line.g_shunt_to[p] * wj;
      const double r5b = view.flow_q_from(line.id, p) +
                         view.flow_q_to(line.id, p) +
                         line.b_shunt_from[p] * wi + line.b_shunt_to[p] * wj;
      Tracker{&report.max_flow_consistency, &report}.update(r5a, line.name);
      Tracker{&report.max_flow_consistency, &report}.update(r5b, line.name);

      // (5c): w_i = tau w_j - sum_psi Mp (p - g w) - sum_psi Mq (q + b w).
      double rhs = line.tap_ratio[p] * wj;
      const std::size_t i = network::index(p);
      for (Phase psi : line.phases.phases()) {
        const std::size_t j = network::index(psi);
        double mp, mq;
        if (i == j) {
          mp = -2.0 * line.r(i, j);
          mq = -2.0 * line.x(i, j);
        } else {
          const double sign = (j == (i + 1) % 3) ? -1.0 : 1.0;
          mp = line.r(i, j) + sign * kSqrt3 * line.x(i, j);
          mq = line.x(i, j) - sign * kSqrt3 * line.r(i, j);
        }
        const double wpsi = view.bus_w(line.from_bus, psi);
        rhs -= mp * (view.flow_p_from(line.id, psi) -
                     line.g_shunt_from[psi] * wpsi);
        rhs -= mq * (view.flow_q_from(line.id, psi) +
                     line.b_shunt_from[psi] * wpsi);
      }
      Tracker{&report.max_voltage_equation, &report}.update(wi - rhs,
                                                            line.name);
    }
  }

  // ---- Voltage-dependent load model (4a)/(4b) and connection equations.
  for (const auto& load : net.loads()) {
    const double kappa = load.connection == Connection::kDelta ? 3.0 : 1.0;
    for (Phase p : load.phases.phases()) {
      const double w_hat = kappa * view.bus_w(load.bus, p);
      const double pd_expected =
          0.5 * load.p_ref[p] * load.alpha[p] * (w_hat - 1.0) + load.p_ref[p];
      const double qd_expected =
          0.5 * load.q_ref[p] * load.beta[p] * (w_hat - 1.0) + load.q_ref[p];
      Tracker{&report.max_load_model, &report}.update(
          view.load_p(load.id, p) - pd_expected, load.name);
      Tracker{&report.max_load_model, &report}.update(
          view.load_q(load.id, p) - qd_expected, load.name);
      if (load.connection == Connection::kWye) {
        Tracker{&report.max_load_model, &report}.update(
            x[model.vars.load_pb(load.id, p)] - view.load_p(load.id, p),
            load.name);
      }
    }
    if (load.connection == Connection::kDelta) {
      // Aggregate delta balance (4f); the per-phase coupling rows are
      // linear combinations checked implicitly via the builder tests.
      double dp = 0.0, dq = 0.0;
      for (Phase p : load.phases.phases()) {
        dp += x[model.vars.load_pb(load.id, p)] - view.load_p(load.id, p);
        dq += x[model.vars.load_qb(load.id, p)] - view.load_q(load.id, p);
      }
      Tracker{&report.max_load_model, &report}.update(dp, load.name);
      Tracker{&report.max_load_model, &report}.update(dq, load.name);
    }
  }

  // ---- Bounds straight from the component data.
  for (const auto& g : net.generators()) {
    for (Phase p : g.phases.phases()) {
      const double pg = view.gen_p(g.id, p);
      const double qg = view.gen_q(g.id, p);
      Tracker{&report.max_bound_violation, &report}.update(
          std::max({g.p_min[p] - pg, pg - g.p_max[p], 0.0}), g.name);
      Tracker{&report.max_bound_violation, &report}.update(
          std::max({g.q_min[p] - qg, qg - g.q_max[p], 0.0}), g.name);
    }
  }
  for (const auto& bus : net.buses()) {
    for (Phase p : bus.phases.phases()) {
      const double w = view.bus_w(bus.id, p);
      Tracker{&report.max_bound_violation, &report}.update(
          std::max({bus.w_min[p] - w, w - bus.w_max[p], 0.0}), bus.name);
    }
  }
  return report;
}

}  // namespace dopf::opf

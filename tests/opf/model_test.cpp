#include "opf/model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "../sparse/csr_entry.hpp"

namespace dopf::opf {
namespace {

using network::Bus;
using network::Connection;
using network::Generator;
using network::Line;
using network::Load;
using network::Network;
using network::PerPhase;
using network::Phase;
using network::PhaseSet;

constexpr double kSqrt3 = 1.7320508075688772;

/// Two-bus single-phase test system with every feature on.
Network tiny() {
  Network net;
  Bus b;
  b.name = "src";
  b.phases = PhaseSet::a();
  b.w_min = PerPhase<double>::uniform(1.0);
  b.w_max = PerPhase<double>::uniform(1.0);
  net.add_bus(b);
  Bus b2;
  b2.name = "ld";
  b2.phases = PhaseSet::a();
  b2.g_shunt = PerPhase<double>::uniform(0.01);
  b2.b_shunt = PerPhase<double>::uniform(0.02);
  net.add_bus(b2);
  Line l;
  l.name = "line";
  l.from_bus = 0;
  l.to_bus = 1;
  l.phases = PhaseSet::a();
  l.r = network::PhaseMatrix::diagonal(0.05);
  l.x = network::PhaseMatrix::diagonal(0.1);
  l.g_shunt_from = PerPhase<double>::uniform(0.003);
  l.b_shunt_from = PerPhase<double>::uniform(0.004);
  l.g_shunt_to = PerPhase<double>::uniform(0.005);
  l.b_shunt_to = PerPhase<double>::uniform(0.006);
  l.tap_ratio = PerPhase<double>::uniform(1.02);
  l.flow_limit = PerPhase<double>::uniform(2.0);
  net.add_line(l);
  Generator g;
  g.name = "sub";
  g.bus = 0;
  g.phases = PhaseSet::a();
  g.p_min = PerPhase<double>::uniform(0.0);
  g.p_max = PerPhase<double>::uniform(5.0);
  g.q_min = PerPhase<double>::uniform(-1.0);
  g.q_max = PerPhase<double>::uniform(1.0);
  g.cost = 2.5;
  net.add_generator(g);
  Load ld;
  ld.name = "wye";
  ld.bus = 1;
  ld.phases = PhaseSet::a();
  ld.connection = Connection::kWye;
  ld.p_ref = PerPhase<double>::uniform(0.4);
  ld.q_ref = PerPhase<double>::uniform(0.2);
  ld.alpha = PerPhase<double>::uniform(1.0);  // constant current
  ld.beta = PerPhase<double>::uniform(2.0);   // constant impedance
  net.add_load(ld);
  return net;
}

const Equation& find_equation(const OpfModel& model, const std::string& name) {
  for (const Equation& eq : model.equations) {
    if (eq.name == name) return eq;
  }
  throw std::runtime_error("no equation named " + name);
}

std::map<int, double> terms_of(const Equation& eq) {
  std::map<int, double> out;
  for (const auto& [var, coeff] : eq.terms) out[var] += coeff;
  return out;
}

TEST(ModelTest, EquationCountTiny) {
  const OpfModel m = build_model(tiny());
  // per bus-phase: 2 balance (x2 buses) = 4; load: 2 load-model + 2 wye = 4;
  // line: 3. Total 11.
  EXPECT_EQ(m.num_equations(), 11u);
  // vars: gen 2 + w 2 + load 4 + flows 4 = 12.
  EXPECT_EQ(m.num_vars(), 12u);
}

TEST(ModelTest, BalanceEquationCoefficients) {
  const Network net = tiny();
  const OpfModel m = build_model(net);
  const auto& v = m.vars;
  // Bus 1 (load bus, to-side of the line), phase a, real balance (3a):
  // p_t + p^b + g_sh * w - (no gen) = 0.
  const auto terms = terms_of(find_equation(m, "balP[ld,a]"));
  EXPECT_EQ(terms.at(v.flow_pt(0, Phase::kA)), 1.0);
  EXPECT_EQ(terms.at(v.load_pb(0, Phase::kA)), 1.0);
  EXPECT_EQ(terms.at(v.bus_w(1, Phase::kA)), 0.01);
  EXPECT_EQ(terms.size(), 3u);

  // Bus 0 (source, from-side), reactive balance (3b):
  // q_f - b_sh w - q^g = 0 with b_sh = 0 at the source.
  const auto terms0 = terms_of(find_equation(m, "balQ[src,a]"));
  EXPECT_EQ(terms0.at(v.flow_qf(0, Phase::kA)), 1.0);
  EXPECT_EQ(terms0.at(v.gen_q(0, Phase::kA)), -1.0);
}

TEST(ModelTest, ReactiveBalanceShuntSign) {
  const Network net = tiny();
  const OpfModel m = build_model(net);
  const auto& v = m.vars;
  // (3b): ... - b_sh w = q^g, so the w coefficient is -b_sh.
  const auto terms = terms_of(find_equation(m, "balQ[ld,a]"));
  EXPECT_EQ(terms.at(v.bus_w(1, Phase::kA)), -0.02);
}

TEST(ModelTest, VoltageDependentLoadRows) {
  const Network net = tiny();
  const OpfModel m = build_model(net);
  const auto& v = m.vars;
  // (4a) with alpha=1, a=0.4, wye (kappa=1):
  // pd - (0.4*1/2) w = 0.4 * (1 - 1/2) = 0.2.
  const Equation& ep = find_equation(m, "loadP[wye,a]");
  const auto terms = terms_of(ep);
  EXPECT_DOUBLE_EQ(terms.at(v.load_pd(0, Phase::kA)), 1.0);
  EXPECT_DOUBLE_EQ(terms.at(v.bus_w(1, Phase::kA)), -0.2);
  EXPECT_DOUBLE_EQ(ep.rhs, 0.2);
  // (4b) with beta=2, b=0.2: qd - 0.2 w = 0.2 * (1 - 1) = 0.
  const Equation& eq = find_equation(m, "loadQ[wye,a]");
  const auto qterms = terms_of(eq);
  EXPECT_DOUBLE_EQ(qterms.at(v.load_qd(0, Phase::kA)), 1.0);
  EXPECT_DOUBLE_EQ(qterms.at(v.bus_w(1, Phase::kA)), -0.2);
  EXPECT_DOUBLE_EQ(eq.rhs, 0.0);
}

TEST(ModelTest, ConstantPowerLoadHasNoVoltageTerm) {
  Network net = tiny();
  net.load_mutable(0).alpha = PerPhase<double>::uniform(0.0);
  const OpfModel m = build_model(net);
  const Equation& ep = find_equation(m, "loadP[wye,a]");
  const auto terms = terms_of(ep);
  EXPECT_EQ(terms.count(m.vars.bus_w(1, Phase::kA)), 0u);
  EXPECT_DOUBLE_EQ(ep.rhs, 0.4);
}

TEST(ModelTest, WyeConnectionTiesPbToPd) {
  const OpfModel m = build_model(tiny());
  const auto& v = m.vars;
  const auto terms = terms_of(find_equation(m, "wyeP[wye]"));
  EXPECT_EQ(terms.at(v.load_pb(0, Phase::kA)), 1.0);
  EXPECT_EQ(terms.at(v.load_pd(0, Phase::kA)), -1.0);
}

TEST(ModelTest, FlowEquation5aWithShunts) {
  const OpfModel m = build_model(tiny());
  const auto& v = m.vars;
  // (5a): p_f + p_t - g_f w_i - g_t w_j = 0.
  const auto terms = terms_of(find_equation(m, "flowP[line,a]"));
  EXPECT_EQ(terms.at(v.flow_pf(0, Phase::kA)), 1.0);
  EXPECT_EQ(terms.at(v.flow_pt(0, Phase::kA)), 1.0);
  EXPECT_EQ(terms.at(v.bus_w(0, Phase::kA)), -0.003);
  EXPECT_EQ(terms.at(v.bus_w(1, Phase::kA)), -0.005);
  // (5b): q_f + q_t + b_f w_i + b_t w_j = 0.
  const auto qterms = terms_of(find_equation(m, "flowQ[line,a]"));
  EXPECT_EQ(qterms.at(v.bus_w(0, Phase::kA)), 0.004);
  EXPECT_EQ(qterms.at(v.bus_w(1, Phase::kA)), 0.006);
}

TEST(ModelTest, VoltageEquation5cSinglePhase) {
  const OpfModel m = build_model(tiny());
  const auto& v = m.vars;
  // Single phase: M^p = -2r = -0.1, M^q = -2x = -0.2.
  // (5c): w_i - tau w_j + M^p (p_f - g_f w_i) + M^q (q_f + b_f w_i) = 0
  //  => w_i coeff: 1 - M^p g_f + M^q b_f = 1 + 0.1*0.003 - 0.2*0.004
  const auto terms = terms_of(find_equation(m, "volt[line,a]"));
  EXPECT_NEAR(terms.at(v.bus_w(0, Phase::kA)),
              1.0 + 0.1 * 0.003 - 0.2 * 0.004, 1e-15);
  EXPECT_DOUBLE_EQ(terms.at(v.bus_w(1, Phase::kA)), -1.02);
  EXPECT_DOUBLE_EQ(terms.at(v.flow_pf(0, Phase::kA)), -0.1);
  EXPECT_DOUBLE_EQ(terms.at(v.flow_qf(0, Phase::kA)), -0.2);
}

TEST(ModelTest, MpMqSignPatternThreePhase) {
  // Three-phase line with distinct off-diagonal impedances; verify the
  // paper's M^p / M^q sign pattern.
  Network net;
  Bus b;
  b.phases = PhaseSet::abc();
  net.add_bus(b);
  net.add_bus(b);
  Line l;
  l.name = "L";
  l.from_bus = 0;
  l.to_bus = 1;
  l.phases = PhaseSet::abc();
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      l.r(i, j) = 0.01 * (1 + i) * (1 + j);
      l.x(i, j) = 0.02 * (1 + i) + 0.005 * j;
    }
  }
  net.add_line(l);
  Generator g;
  g.bus = 0;
  net.add_generator(g);
  const Network& cnet = net;
  const OpfModel m = build_model(cnet);
  const auto& v = m.vars;
  const Line& line = cnet.line(0);

  // Row phi=a of (5c): coefficient of p_f psi=b is M^p[1][2] (paper
  // indexing) = r_12 - sqrt(3) x_12.
  const auto terms_a = terms_of(find_equation(m, "volt[L,a]"));
  EXPECT_NEAR(terms_a.at(v.flow_pf(0, Phase::kB)),
              line.r(0, 1) - kSqrt3 * line.x(0, 1), 1e-15);
  EXPECT_NEAR(terms_a.at(v.flow_pf(0, Phase::kC)),
              line.r(0, 2) + kSqrt3 * line.x(0, 2), 1e-15);
  EXPECT_NEAR(terms_a.at(v.flow_qf(0, Phase::kB)),
              line.x(0, 1) + kSqrt3 * line.r(0, 1), 1e-15);
  EXPECT_NEAR(terms_a.at(v.flow_qf(0, Phase::kC)),
              line.x(0, 2) - kSqrt3 * line.r(0, 2), 1e-15);
  // Diagonals: -2r, -2x.
  EXPECT_NEAR(terms_a.at(v.flow_pf(0, Phase::kA)), -2.0 * line.r(0, 0),
              1e-15);
  EXPECT_NEAR(terms_a.at(v.flow_qf(0, Phase::kA)), -2.0 * line.x(0, 0),
              1e-15);
  // Row phi=b: M^p[2][1] = r_21 + sqrt(3) x_21, M^p[2][3] = r_23 - sqrt3 x.
  const auto terms_b = terms_of(find_equation(m, "volt[L,b]"));
  EXPECT_NEAR(terms_b.at(v.flow_pf(0, Phase::kA)),
              line.r(1, 0) + kSqrt3 * line.x(1, 0), 1e-15);
  EXPECT_NEAR(terms_b.at(v.flow_pf(0, Phase::kC)),
              line.r(1, 2) - kSqrt3 * line.x(1, 2), 1e-15);
}

TEST(ModelTest, DeltaLoadEquations) {
  Network net;
  Bus b;
  b.phases = PhaseSet::abc();
  net.add_bus(b);
  net.add_bus(b);
  Line l;
  l.from_bus = 0;
  l.to_bus = 1;
  net.add_line(l);
  Generator g;
  g.bus = 0;
  net.add_generator(g);
  Load ld;
  ld.name = "D";
  ld.bus = 1;
  ld.connection = Connection::kDelta;
  ld.p_ref = PerPhase<double>::uniform(0.3);
  ld.q_ref = PerPhase<double>::uniform(0.1);
  ld.alpha = PerPhase<double>::uniform(2.0);
  ld.beta = PerPhase<double>::uniform(0.0);
  net.add_load(ld);
  const OpfModel m = build_model(net);
  const auto& v = m.vars;

  // Delta voltage-dependent load (4a)+(4d): pd - (a alpha/2)*3 w = a(1-a/2).
  const Equation& ep = find_equation(m, "loadP[D,a]");
  const auto terms = terms_of(ep);
  EXPECT_NEAR(terms.at(v.bus_w(1, Phase::kA)), -0.5 * 0.3 * 2.0 * 3.0, 1e-15);
  EXPECT_NEAR(ep.rhs, 0.3 * (1.0 - 1.0), 1e-15);

  // (4g): 1.5 pb2 - (sqrt3/2) qb2 - pd2 - 0.5 pd1 + (sqrt3/2) qd1 = 0.
  const auto g4 = terms_of(find_equation(m, "delta4g[D]"));
  EXPECT_DOUBLE_EQ(g4.at(v.load_pb(0, Phase::kB)), 1.5);
  EXPECT_NEAR(g4.at(v.load_qb(0, Phase::kB)), -0.5 * kSqrt3, 1e-15);
  EXPECT_DOUBLE_EQ(g4.at(v.load_pd(0, Phase::kB)), -1.0);
  EXPECT_DOUBLE_EQ(g4.at(v.load_pd(0, Phase::kA)), -0.5);
  EXPECT_NEAR(g4.at(v.load_qd(0, Phase::kA)), 0.5 * kSqrt3, 1e-15);

  // (4f): both aggregate rows present with +-1 coefficients.
  const auto sum_p = terms_of(find_equation(m, "deltaSumP[D]"));
  for (auto ph : {Phase::kA, Phase::kB, Phase::kC}) {
    EXPECT_DOUBLE_EQ(sum_p.at(v.load_pb(0, ph)), 1.0);
    EXPECT_DOUBLE_EQ(sum_p.at(v.load_pd(0, ph)), -1.0);
  }
}

TEST(ModelTest, BoundsAndObjective) {
  const Network net = tiny();
  const OpfModel m = build_model(net);
  const auto& v = m.vars;
  EXPECT_EQ(m.c[v.gen_p(0, Phase::kA)], 2.5);
  EXPECT_EQ(m.c[v.gen_q(0, Phase::kA)], 0.0);
  EXPECT_EQ(m.lb[v.gen_p(0, Phase::kA)], 0.0);
  EXPECT_EQ(m.ub[v.gen_p(0, Phase::kA)], 5.0);
  EXPECT_EQ(m.lb[v.bus_w(0, Phase::kA)], 1.0);
  EXPECT_EQ(m.ub[v.bus_w(0, Phase::kA)], 1.0);
  // Flow limits symmetric.
  EXPECT_EQ(m.lb[v.flow_pf(0, Phase::kA)], -2.0);
  EXPECT_EQ(m.ub[v.flow_qt(0, Phase::kA)], 2.0);
  // Load variables unbounded.
  EXPECT_TRUE(dopf::linalg::is_unbounded(m.lb[v.load_pb(0, Phase::kA)]));
}

TEST(ModelTest, InitialPointRules) {
  const Network net = tiny();
  const OpfModel m = build_model(net);
  const auto& v = m.vars;
  EXPECT_EQ(m.x0[v.bus_w(1, Phase::kA)], 1.0);          // voltage -> 1
  EXPECT_EQ(m.x0[v.gen_p(0, Phase::kA)], 2.5);          // midpoint of [0,5]
  EXPECT_EQ(m.x0[v.gen_q(0, Phase::kA)], 0.0);          // midpoint of [-1,1]
  EXPECT_EQ(m.x0[v.load_pb(0, Phase::kA)], 0.0);        // unbounded -> 0
  EXPECT_EQ(m.x0[v.flow_pf(0, Phase::kA)], 0.0);        // midpoint of [-2,2]
}

TEST(ModelTest, ConstraintMatrixMatchesEquations) {
  const OpfModel m = build_model(tiny());
  const auto a = m.constraint_matrix();
  EXPECT_EQ(a.rows(), m.num_equations());
  EXPECT_EQ(a.cols(), m.num_vars());
  for (std::size_t r = 0; r < m.num_equations(); ++r) {
    for (const auto& [var, coeff] : m.equations[r].terms) {
      (void)coeff;
      EXPECT_NE(dopf::testing::entry(a, r, var), 0.0);
    }
  }
}

TEST(ModelTest, ResidualHelpersDetectViolations) {
  const OpfModel m = build_model(tiny());
  std::vector<double> x(m.num_vars(), 0.0);
  EXPECT_GT(m.equation_residual(x), 0.0);  // loads make rhs nonzero
  EXPECT_GT(m.bound_violation(x), 0.0);    // w = 0 < w_min
  std::vector<double> x0 = m.x0;
  EXPECT_EQ(m.bound_violation(x0), 0.0);   // x0 is always inside the box
}

TEST(ModelTest, OwnershipTagsAreConsistent) {
  const OpfModel m = build_model(tiny());
  for (const Equation& eq : m.equations) {
    if (eq.name.rfind("bal", 0) == 0 || eq.name.rfind("load", 0) == 0 ||
        eq.name.rfind("wye", 0) == 0 || eq.name.rfind("delta", 0) == 0) {
      EXPECT_EQ(eq.owner, Owner::kBus) << eq.name;
    } else {
      EXPECT_EQ(eq.owner, Owner::kLine) << eq.name;
    }
  }
}

}  // namespace
}  // namespace dopf::opf

#include "opf/validate.hpp"

#include <gtest/gtest.h>

#include "core/admm.hpp"
#include "feeders/ieee13.hpp"
#include "feeders/synthetic.hpp"
#include "opf/decompose.hpp"
#include "solver/reference.hpp"

namespace dopf::opf {
namespace {

TEST(ValidateTest, ReferenceSolutionPassesPhysicsChecks) {
  const auto net = dopf::feeders::ieee13();
  const OpfModel model = build_model(net);
  const auto ref = dopf::solver::reference_solve(model);
  ASSERT_EQ(ref.status, dopf::solver::LpStatus::kOptimal);
  const ValidationReport report = validate_solution(net, model, ref.x);
  EXPECT_TRUE(report.ok(1e-5)) << report.worst_check() << " " << report.worst();
}

TEST(ValidateTest, AdmmSolutionPassesAtItsTolerance) {
  const auto net = dopf::feeders::ieee13();
  const OpfModel model = build_model(net);
  const auto problem = decompose(net, model);
  dopf::core::AdmmOptions opt;
  opt.eps_rel = 1e-5;
  opt.max_iterations = 100000;
  dopf::core::SolverFreeAdmm admm(problem, opt);
  const auto res = admm.solve();
  ASSERT_TRUE(res.converged);
  const ValidationReport report = validate_solution(net, model, res.x);
  EXPECT_TRUE(report.ok(1e-3)) << report.worst_check() << " " << report.worst();
  EXPECT_EQ(report.max_bound_violation, 0.0);  // clipped global update
}

TEST(ValidateTest, SyntheticFeederSolutionValidates) {
  const auto net =
      dopf::feeders::synthetic_feeder(dopf::feeders::ieee123_spec());
  const OpfModel model = build_model(net);
  const auto ref = dopf::solver::reference_solve(model);
  ASSERT_EQ(ref.status, dopf::solver::LpStatus::kOptimal);
  const ValidationReport report = validate_solution(net, model, ref.x);
  EXPECT_TRUE(report.ok(1e-4)) << report.worst_check() << " " << report.worst();
}

TEST(ValidateTest, DetectsCorruptedDispatch) {
  const auto net = dopf::feeders::ieee13();
  const OpfModel model = build_model(net);
  auto ref = dopf::solver::reference_solve(model);
  ASSERT_EQ(ref.status, dopf::solver::LpStatus::kOptimal);
  // Steal 0.1 pu of substation phase-a generation: the bus balance must
  // light up by exactly that amount.
  ref.x[model.vars.gen_p(0, dopf::network::Phase::kA)] -= 0.1;
  const ValidationReport report = validate_solution(net, model, ref.x);
  EXPECT_NEAR(report.max_p_balance, 0.1, 1e-5);
  EXPECT_FALSE(report.ok(1e-3));
}

TEST(ValidateTest, DetectsVoltageTampering) {
  const auto net = dopf::feeders::ieee13();
  const OpfModel model = build_model(net);
  auto ref = dopf::solver::reference_solve(model);
  ref.x[model.vars.bus_w(4, dopf::network::Phase::kB)] += 0.05;  // bus 671
  const ValidationReport report = validate_solution(net, model, ref.x);
  // Voltage equation (5c) of the incident lines must fire.
  EXPECT_GT(report.max_voltage_equation, 1e-3);
}

TEST(ValidateTest, DetectsBoundViolation) {
  const auto net = dopf::feeders::ieee13();
  const OpfModel model = build_model(net);
  auto ref = dopf::solver::reference_solve(model);
  // PV generator (id 1) has p_max = 0.02 per phase; violate it.
  ref.x[model.vars.gen_p(1, dopf::network::Phase::kA)] = 1.0;
  const ValidationReport report = validate_solution(net, model, ref.x);
  EXPECT_GT(report.max_bound_violation, 0.9);
  // The tampered injection shows up both as a bound violation at the PV and
  // as a balance violation at its bus; either may be the worst site.
  EXPECT_TRUE(report.worst_site == "pv680" || report.worst_site == "s680b")
      << report.worst_site;
}

TEST(ValidateTest, WorstCheckNamesDominantCategory) {
  ValidationReport report;
  report.max_flow_consistency = 0.5;
  report.max_p_balance = 0.1;
  EXPECT_EQ(report.worst_check(), "flow");
  report.max_bound_violation = 0.9;
  EXPECT_EQ(report.worst_check(), "bounds");
  // All-zero report: still a well-defined (first) category.
  EXPECT_EQ(ValidationReport{}.worst_check(), "P-balance");
}

TEST(ValidateTest, BuilderAndValidatorAgreeOnResiduals) {
  // The independent physics recomputation and the model's own Ax-b residual
  // must agree on a *random* (infeasible) point up to the delta-coupling
  // rows the validator checks only in aggregate.
  const auto net = dopf::feeders::ieee13();
  const OpfModel model = build_model(net);
  std::vector<double> x(model.num_vars(), 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.01 * static_cast<double>((i * 2654435761u) % 100) - 0.5;
  }
  const ValidationReport report = validate_solution(net, model, x);
  const double builder_residual = model.equation_residual(x);
  // Both should flag gross infeasibility of the same order.
  EXPECT_GT(report.worst(), 0.1);
  EXPECT_GT(builder_residual, 0.1);
  EXPECT_LT(report.worst(), builder_residual * 10 + 1.0);
}

}  // namespace
}  // namespace dopf::opf

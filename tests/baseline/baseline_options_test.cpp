/// The benchmark ADMM reproduces the paper's comparison configuration: the
/// solver-free extensions (relaxation, adaptive rho) must not change its
/// behaviour.

#include <gtest/gtest.h>

#include "baseline/benchmark_admm.hpp"
#include "feeders/ieee13.hpp"
#include "opf/decompose.hpp"

namespace dopf::baseline {
namespace {

TEST(BaselineOptionsTest, ExtensionsAreIgnored) {
  const auto net = dopf::feeders::ieee13();
  const auto problem = dopf::opf::decompose(net);

  dopf::core::AdmmOptions plain;
  plain.max_iterations = 40;
  plain.check_every = 100;

  dopf::core::AdmmOptions exotic = plain;
  exotic.relaxation = 1.7;
  exotic.adaptive_rho = true;

  BenchmarkAdmm a(problem, plain);
  BenchmarkAdmm b(problem, exotic);
  const auto ra = a.solve();
  const auto rb = b.solve();
  ASSERT_EQ(ra.x.size(), rb.x.size());
  for (std::size_t i = 0; i < ra.x.size(); ++i) {
    EXPECT_EQ(ra.x[i], rb.x[i]);
  }
}

TEST(BaselineOptionsTest, RhoChangesTrajectory) {
  const auto net = dopf::feeders::ieee13();
  const auto problem = dopf::opf::decompose(net);
  dopf::core::AdmmOptions opt;
  opt.max_iterations = 40;
  opt.check_every = 100;
  BenchmarkAdmm a(problem, opt);
  opt.rho = 10.0;
  BenchmarkAdmm b(problem, opt);
  const auto ra = a.solve();
  const auto rb = b.solve();
  bool differs = false;
  for (std::size_t i = 0; i < ra.x.size() && !differs; ++i) {
    differs = ra.x[i] != rb.x[i];
  }
  EXPECT_TRUE(differs);
}

TEST(BaselineOptionsTest, TighterQpToleranceCostsTime) {
  const auto net = dopf::feeders::ieee13();
  const auto problem = dopf::opf::decompose(net);
  dopf::core::AdmmOptions opt;
  opt.max_iterations = 20;
  opt.check_every = 100;

  dopf::solver::BoxQpOptions loose;
  loose.tol = 1e-6;
  dopf::solver::BoxQpOptions tight;
  tight.tol = 1e-12;
  BenchmarkAdmm a(problem, opt, loose);
  BenchmarkAdmm b(problem, opt, tight);
  a.solve();
  b.solve();
  EXPECT_LE(a.total_newton_iterations(), b.total_newton_iterations());
}

}  // namespace
}  // namespace dopf::baseline

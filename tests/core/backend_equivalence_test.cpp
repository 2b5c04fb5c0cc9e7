// Cross-backend bit-identity: the serial, threaded (any thread count), SIMT
// and multi-device execution backends run the same core::kernels
// expressions over the same packed pool with the same deterministic
// residual reduction, so the residual history and final iterate must be
// byte-identical — not merely close — on every instance.

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/admm.hpp"
#include "core/backend.hpp"
#include "core/solve_session.hpp"
#include "feeders/ieee13.hpp"
#include "feeders/synthetic.hpp"
#include "opf/decompose.hpp"
#include "runtime/threaded_backend.hpp"
#include "simt/multi_device.hpp"
#include "simt/simt_backend.hpp"

namespace dopf::core {
namespace {

using dopf::opf::DistributedProblem;

AdmmOptions test_options(int iterations) {
  AdmmOptions opt;
  opt.max_iterations = iterations;
  opt.check_every = 1;   // residuals every iteration
  opt.record_every = 1;  // and all of them in the history
  opt.eps_rel = 0.0;     // never terminate: fixed-length trajectories
  return opt;
}

AdmmResult run_with_backend(const DistributedProblem& problem,
                            const AdmmOptions& opt,
                            std::unique_ptr<ExecutionBackend> backend) {
  SolverFreeAdmm admm(problem, opt);
  if (backend) admm.set_backend(std::move(backend));
  return admm.solve();
}

void expect_bit_identical(const AdmmResult& a, const AdmmResult& b,
                          const char* label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t t = 0; t < a.history.size(); ++t) {
    const IterationRecord& ra = a.history[t];
    const IterationRecord& rb = b.history[t];
    ASSERT_EQ(ra.primal_residual, rb.primal_residual) << "iteration " << t;
    ASSERT_EQ(ra.dual_residual, rb.dual_residual) << "iteration " << t;
    ASSERT_EQ(ra.eps_primal, rb.eps_primal) << "iteration " << t;
    ASSERT_EQ(ra.eps_dual, rb.eps_dual) << "iteration " << t;
  }
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    ASSERT_EQ(a.x[i], b.x[i]) << "x[" << i << "]";
  }
}

void check_all_backends(const DistributedProblem& problem, int iterations) {
  const AdmmOptions opt = test_options(iterations);
  const AdmmResult serial = run_with_backend(problem, opt, nullptr);
  ASSERT_EQ(serial.history.size(), static_cast<std::size_t>(iterations));

  for (int threads : {1, 4, 16}) {
    const AdmmResult threaded = run_with_backend(
        problem, opt, dopf::runtime::make_threaded_backend(threads));
    expect_bit_identical(serial, threaded,
                         threads == 1   ? "threaded(1)"
                         : threads == 4 ? "threaded(4)"
                                        : "threaded(16)");
  }

  const AdmmResult simt = run_with_backend(
      problem, opt, std::make_unique<dopf::simt::SimtBackend>());
  expect_bit_identical(serial, simt, "simt");

  SolverFreeAdmm multi(problem, opt);
  multi.set_backend(std::make_unique<dopf::simt::MultiDeviceBackend>(
      multi.packed(), dopf::simt::MultiGpuOptions{}));
  expect_bit_identical(serial, multi.solve(), "multigpu(2)");
}

TEST(BackendEquivalenceTest, Ieee13ResidualHistoriesByteIdentical) {
  const dopf::network::Network net = dopf::feeders::ieee13();
  const DistributedProblem problem = dopf::opf::decompose(net);
  check_all_backends(problem, 60);
}

TEST(BackendEquivalenceTest, Ieee123ResidualHistoriesByteIdentical) {
  const dopf::network::Network net =
      dopf::feeders::synthetic_feeder(dopf::feeders::ieee123_spec());
  const DistributedProblem problem = dopf::opf::decompose(net);
  check_all_backends(problem, 40);
}

TEST(BackendEquivalenceTest, ThreadsExceedingComponentCountStayIdentical) {
  // More workers than components: most threads get an empty slice of the
  // packed pool and must contribute exactly nothing to the reduction.
  const dopf::network::Network net = dopf::feeders::ieee13();
  const DistributedProblem problem = dopf::opf::decompose(net);
  const AdmmOptions opt = test_options(25);
  const AdmmResult serial = run_with_backend(problem, opt, nullptr);
  const int oversubscribed = static_cast<int>(problem.num_components()) * 4 + 3;
  const AdmmResult threaded = run_with_backend(
      problem, opt, dopf::runtime::make_threaded_backend(oversubscribed));
  expect_bit_identical(serial, threaded, "threaded(4*components+3)");
}

TEST(BackendEquivalenceTest, SingleComponentProblemByteIdentical) {
  // Degenerate decomposition: one component owning every global variable.
  // min x0 + 0.5*x1  s.t.  x0 + x1 = 1,  x in [0,1]^2.
  DistributedProblem problem;
  problem.num_vars = 2;
  problem.c = {1.0, 0.5};
  problem.lb = {0.0, 0.0};
  problem.ub = {1.0, 1.0};
  problem.x0 = {0.0, 0.0};
  problem.copy_count = {1, 1};
  dopf::opf::Component comp;
  comp.name = "only";
  comp.a = dopf::linalg::Matrix{{1.0, 1.0}};
  comp.b = {1.0};
  comp.global = {0, 1};
  problem.components.push_back(std::move(comp));
  check_all_backends(problem, 40);
}

TEST(BackendEquivalenceTest, ZeroIterationSolveIsIdenticalAndInert) {
  // max_iterations = 0: no update may run; every backend must return the
  // initial iterate untouched, byte for byte.
  const dopf::network::Network net = dopf::feeders::ieee13();
  const DistributedProblem problem = dopf::opf::decompose(net);
  const AdmmOptions opt = test_options(0);

  const AdmmResult serial = run_with_backend(problem, opt, nullptr);
  EXPECT_EQ(serial.iterations, 0);
  EXPECT_TRUE(serial.history.empty());
  ASSERT_EQ(serial.x.size(), problem.num_vars);
  for (std::size_t i = 0; i < serial.x.size(); ++i) {
    ASSERT_EQ(serial.x[i], problem.x0[i]) << "x[" << i << "]";
  }

  const AdmmResult threaded = run_with_backend(
      problem, opt, dopf::runtime::make_threaded_backend(8));
  expect_bit_identical(serial, threaded, "threaded(8), zero iterations");

  expect_bit_identical(
      serial,
      run_with_backend(problem, opt,
                       std::make_unique<dopf::simt::SimtBackend>()),
      "simt, zero iterations");
}

TEST(BackendEquivalenceTest, BackendsReportTheirNames) {
  const dopf::network::Network net = dopf::feeders::ieee13();
  const DistributedProblem problem = dopf::opf::decompose(net);
  SolverFreeAdmm admm(problem, AdmmOptions{});
  EXPECT_STREQ(admm.backend().name(), "serial");
  admm.set_backend(dopf::runtime::make_threaded_backend(2));
  EXPECT_STREQ(admm.backend().name(), "threaded");
  admm.set_backend(nullptr);  // restores the built-in serial backend
  EXPECT_STREQ(admm.backend().name(), "serial");
}

TEST(BackendEquivalenceTest, ExtensionOptionsRejectNonSerialBackends) {
  // relaxation and quantize_bits run a serial-only path that would bypass
  // any other backend, so attaching one is an error, not a silent no-op.
  const dopf::network::Network net = dopf::feeders::ieee13();
  const DistributedProblem problem = dopf::opf::decompose(net);
  AdmmOptions relaxed;
  relaxed.relaxation = 1.6;
  AdmmOptions quantized;
  quantized.quantize_bits = 8;
  for (const AdmmOptions& opt : {relaxed, quantized}) {
    SolverFreeAdmm admm(problem, opt);
    EXPECT_THROW(admm.set_backend(dopf::runtime::make_threaded_backend(2)),
                 std::invalid_argument);
    EXPECT_THROW(admm.set_backend(std::make_unique<dopf::simt::SimtBackend>()),
                 std::invalid_argument);
    EXPECT_THROW(admm.set_backend(
                     std::make_unique<dopf::simt::MultiDeviceBackend>(
                         admm.packed(), dopf::simt::MultiGpuOptions{})),
                 std::invalid_argument);
    EXPECT_NO_THROW(admm.set_backend(make_serial_backend()));
    EXPECT_NO_THROW(admm.set_backend(nullptr));

    SolveModel model(problem, opt.projector);
    ScenarioBinding binding(model);
    SolveSession session(binding, opt);
    EXPECT_THROW(session.set_backend(dopf::runtime::make_threaded_backend(2)),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace dopf::core

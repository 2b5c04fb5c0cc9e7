// Mutation smoke tests: the verification harness must DETECT a deliberately
// perturbed kernel — otherwise a green golden comparison proves nothing.

#include <gtest/gtest.h>

#include <memory>

#include "core/admm.hpp"
#include "core/backend.hpp"
#include "feeders/ieee13.hpp"
#include "opf/decompose.hpp"
#include "runtime/fault.hpp"
#include "runtime/threaded_backend.hpp"
#include "simt/multi_device.hpp"
#include "verify/invariants.hpp"
#include "verify/mutation.hpp"
#include "verify/trace.hpp"

namespace dopf::verify {
namespace {

using dopf::core::AdmmOptions;
using dopf::core::SolverFreeAdmm;

AdmmOptions fixed_trajectory(int iterations) {
  AdmmOptions opt;
  opt.max_iterations = iterations;
  opt.eps_rel = 0.0;
  opt.check_every = 1;
  return opt;
}

TEST(MutationTest, PerturbedKernelDivergesFromCleanTrace) {
  const auto net = dopf::feeders::ieee13();
  const auto problem = dopf::opf::decompose(net);
  const AdmmOptions opt = fixed_trajectory(30);

  SolverFreeAdmm clean(problem, opt);
  const Trace golden = Trace::from_result(clean.solve(), opt, "ieee13",
                                          "serial");

  SolverFreeAdmm mutated(problem, opt);
  MutationSpec spec;
  spec.local_update_call = 5;
  spec.delta = 1e-9;  // even a 1e-9 nudge must be caught bit-for-bit
  mutated.set_backend(
      make_mutant_backend(dopf::core::make_serial_backend(), spec));
  const Trace trace =
      Trace::from_result(mutated.solve(), opt, "ieee13", "serial");

  const TraceDiff diff = compare_traces(golden, trace, 0.0);
  ASSERT_FALSE(diff.identical)
      << "mutation was NOT detected - the harness has no teeth";
  // Pointed diagnostic: the first divergence is at (or right after) the
  // mutated iteration, never before it.
  EXPECT_NE(diff.message.find("iteration 5"), std::string::npos)
      << diff.message;
}

TEST(MutationTest, CleanRunsStayIdenticalAcrossWrappedBackends) {
  // Wrapping alone (strike scheduled far past the horizon) must not change
  // a single bit — the wrapper itself is pass-through.
  const auto net = dopf::feeders::ieee13();
  const auto problem = dopf::opf::decompose(net);
  const AdmmOptions opt = fixed_trajectory(20);

  SolverFreeAdmm clean(problem, opt);
  const Trace golden =
      Trace::from_result(clean.solve(), opt, "ieee13", "serial");

  MutationSpec never;
  never.local_update_call = 1000000;
  SolverFreeAdmm wrapped(problem, opt);
  wrapped.set_backend(
      make_mutant_backend(dopf::core::make_serial_backend(), never));
  const Trace trace =
      Trace::from_result(wrapped.solve(), opt, "ieee13", "serial");
  const TraceDiff diff = compare_traces(golden, trace, 0.0);
  EXPECT_TRUE(diff.identical) << diff.message;
}

TEST(MutationTest, MutantWrapsAnyBackendAndReportsItsName) {
  MutationSpec spec;
  const auto serial =
      make_mutant_backend(dopf::core::make_serial_backend(), spec);
  EXPECT_STREQ(serial->name(), "mutant(serial)");
  const auto threaded =
      make_mutant_backend(dopf::runtime::make_threaded_backend(2), spec);
  EXPECT_STREQ(threaded->name(), "mutant(threaded)");
}

TEST(MutationTest, WrappedMultiDeviceBackendKeepsFaultsRewindsAndTiming) {
  // The wrapper forwards begin_iteration, can_rewind and the simulated
  // timing: a wrapped multigpu run that never strikes fails over at the
  // kill, rewinds, and reports the same simulated seconds as the bare one.
  const auto net = dopf::feeders::ieee13();
  const auto problem = dopf::opf::decompose(net);
  const AdmmOptions opt = fixed_trajectory(200);
  dopf::simt::MultiGpuOptions mo;
  mo.num_devices = 3;
  mo.faults = dopf::runtime::FaultPlan::parse("kill:device=1,iter=137");

  auto run = [&](bool wrap) {
    SolverFreeAdmm admm(problem, opt);
    std::unique_ptr<dopf::core::ExecutionBackend> backend =
        std::make_unique<dopf::simt::MultiDeviceBackend>(admm.packed(), mo);
    if (wrap) {
      MutationSpec never;
      never.local_update_call = 1000000;
      backend = make_mutant_backend(std::move(backend), never);
    }
    EXPECT_TRUE(backend->can_rewind());
    admm.set_backend(std::move(backend));
    admm.set_checkpoint_hook(50, {});
    return admm.solve();
  };
  const dopf::core::AdmmResult bare = run(false);
  const dopf::core::AdmmResult wrapped = run(true);
  EXPECT_GT(bare.timing.recovery, 0.0);
  EXPECT_EQ(wrapped.timing.recovery, bare.timing.recovery);
  EXPECT_EQ(wrapped.timing.local_update, bare.timing.local_update);
  EXPECT_EQ(wrapped.timing.iterations, bare.timing.iterations);
  const TraceDiff diff =
      compare_traces(Trace::from_result(bare, opt, "ieee13", "multigpu"),
                     Trace::from_result(wrapped, opt, "ieee13", "multigpu"),
                     0.0);
  EXPECT_TRUE(diff.identical) << diff.message;
}

TEST(MutationTest, FinalStateMutationCaughtByInvariantChecker) {
  // A perturbation on the LAST local update leaves no later iterations for
  // the residual history to diverge much — the invariant checker must catch
  // it through local feasibility instead.
  const auto net = dopf::feeders::ieee13();
  const auto problem = dopf::opf::decompose(net);
  const AdmmOptions opt = fixed_trajectory(30);

  SolverFreeAdmm mutated(problem, opt);
  MutationSpec spec;
  spec.local_update_call = 30;  // the final iteration
  spec.delta = 1e-3;
  mutated.set_backend(
      make_mutant_backend(dopf::core::make_serial_backend(), spec));
  (void)mutated.solve();

  const InvariantReport report =
      check_invariants(problem, mutated.x(), mutated.z());
  InvariantOptions options;
  EXPECT_GT(report.local_feasibility, options.local_feasibility_tol);
  EXPECT_FALSE(report.ok(options));
}

}  // namespace
}  // namespace dopf::verify

/// Pins the simulated cost model bit for bit: the TimingBreakdown the
/// solver-free driver reports for SIMT and multi-device solves of the
/// golden profile (rho 100, eps_rel 1e-3, check every 10) on the builtin
/// feeders. A change here is a cost-model change and must be deliberate.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/admm.hpp"
#include "runtime/fault.hpp"
#include "runtime/instances.hpp"
#include "multi_device_solve.hpp"
#include "simt/simt_backend.hpp"

namespace dopf::simt {
namespace {

using dopf::core::AdmmOptions;
using dopf::core::AdmmResult;
using dopf::core::AdmmStatus;
using dopf::core::TimingBreakdown;

struct Expected {
  double global_update, local_update, dual_update, residuals, recovery,
      degrade;
  int iterations;
};

AdmmOptions profile() {
  AdmmOptions opt;
  opt.rho = 100.0;
  opt.eps_rel = 1e-3;
  opt.max_iterations = 50000;
  opt.check_every = 10;
  return opt;
}

const dopf::opf::DistributedProblem& problem(const std::string& name) {
  static const auto ieee13 = dopf::runtime::make_instance("ieee13").problem;
  static const auto ieee123 = dopf::runtime::make_instance("ieee123").problem;
  return name == "ieee13" ? ieee13 : ieee123;
}

void expect_timing(const TimingBreakdown& got, const Expected& want) {
  EXPECT_EQ(got.global_update, want.global_update);
  EXPECT_EQ(got.local_update, want.local_update);
  EXPECT_EQ(got.dual_update, want.dual_update);
  EXPECT_EQ(got.residuals, want.residuals);
  EXPECT_EQ(got.recovery, want.recovery);
  EXPECT_EQ(got.degrade, want.degrade);
  EXPECT_EQ(got.iterations, want.iterations);
}

AdmmResult simt_solve(const std::string& name) {
  dopf::core::SolverFreeAdmm admm(problem(name), profile());
  admm.set_backend(std::make_unique<SimtBackend>());
  return admm.solve();
}

AdmmResult multi_solve(const std::string& name, const std::string& faults,
                       int checkpoint_every) {
  MultiGpuOptions mo;
  mo.num_devices = 3;
  mo.faults = dopf::runtime::FaultPlan::parse(faults);
  MultiDeviceSolve solve(problem(name), profile(), mo, checkpoint_every);
  return solve.solve();
}

TEST(SimulatedTimingTest, SimtIeee13) {
  const AdmmResult res = simt_solve("ieee13");
  EXPECT_EQ(res.status, AdmmStatus::kConverged);
  expect_timing(res.timing,
                {0x1.4a115a7b2d5b2p-7, 0x1.b3cc05e8bddbfp-7,
                 0x1.386cd8a26971fp-7, 0x1.f5621e646089dp-11, 0.0, 0.0,
                 2320});
}

TEST(SimulatedTimingTest, SimtIeee123) {
  const AdmmResult res = simt_solve("ieee123");
  EXPECT_EQ(res.status, AdmmStatus::kConverged);
  expect_timing(res.timing,
                {0x1.cb23ee871b166p-5, 0x1.20997a86896c5p-4,
                 0x1.a6d9f03ceb019p-5, 0x1.534c54912b4d7p-8, 0.0, 0.0,
                 12560});
}

TEST(SimulatedTimingTest, MultiDeviceIeee13) {
  const AdmmResult res = multi_solve("ieee13", "", 0);
  EXPECT_EQ(res.status, AdmmStatus::kConverged);
  expect_timing(res.timing,
                {0x1.4a115a7b2d19p-7, 0x1.519d263c4b57fp-4,
                 0x1.386cd8a26996ap-7, 0.0, 0.0, 0.0, 2320});
}

TEST(SimulatedTimingTest, MultiDeviceIeee123) {
  const AdmmResult res = multi_solve("ieee123", "", 0);
  EXPECT_EQ(res.status, AdmmStatus::kConverged);
  expect_timing(res.timing,
                {0x1.cb23ee871b1f9p-5, 0x1.eb6050f1f211bp-2,
                 0x1.a6d9f03cea8ecp-5, 0.0, 0.0, 0.0, 12560});
}

TEST(SimulatedTimingTest, MultiDeviceIeee13KillFailover) {
  // The failover at iteration 137 rewinds to the iteration-100 restart
  // point: 36 replayed iterations and one priced recovery.
  const AdmmResult res = multi_solve("ieee13", "kill:device=1,iter=137", 50);
  EXPECT_EQ(res.status, AdmmStatus::kConverged);
  EXPECT_EQ(res.iterations, 2320);
  expect_timing(res.timing,
                {0x1.4f3084eef69fp-7, 0x1.1f68fe3aee7b7p-4,
                 0x1.3d45eda6b2baap-7, 0.0, 0x1.24aca177f924bp-15, 0.0,
                 2356});
}

}  // namespace
}  // namespace dopf::simt

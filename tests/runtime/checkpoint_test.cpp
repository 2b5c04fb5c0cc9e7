/// Checkpoint serialization: bit-exact round-trips, CRC tamper detection,
/// and capture/restore resume equivalence on the core solver.

#include "runtime/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <bit>
#include <limits>
#include <sstream>

#include "core/admm.hpp"
#include "feeders/ieee13.hpp"
#include "feeders/synthetic.hpp"
#include "opf/decompose.hpp"

namespace dopf::runtime {
namespace {

const dopf::opf::DistributedProblem& problem() {
  static const auto net = dopf::feeders::ieee13();
  static const auto p = dopf::opf::decompose(net);
  return p;
}

AdmmCheckpoint awkward_checkpoint() {
  // Values chosen to break any decimal round-trip: denormals, negative
  // zero, third-of-one, and the extremes of the double range.
  AdmmCheckpoint ck;
  ck.label = "awkward";
  ck.iteration = 123;
  ck.rho = 1.0 / 3.0;
  ck.x = {0.0, -0.0, 1.0 / 3.0, std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::max()};
  ck.z = {-1e-300, 2.5, std::numeric_limits<double>::min()};
  ck.z_prev = {3.0, -4.0, 5e17};
  ck.lambda = {0.1, -0.2};
  return ck;
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << what << "[" << i << "]";
  }
}

TEST(CheckpointTest, RoundTripPreservesEveryBit) {
  const AdmmCheckpoint ck = awkward_checkpoint();
  std::stringstream buf;
  write_checkpoint(ck, buf);
  const AdmmCheckpoint back = read_checkpoint(buf);
  EXPECT_EQ(back.label, ck.label);
  EXPECT_EQ(back.iteration, ck.iteration);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(back.rho),
            std::bit_cast<std::uint64_t>(ck.rho));
  expect_bitwise_equal(back.x, ck.x, "x");
  expect_bitwise_equal(back.z, ck.z, "z");
  expect_bitwise_equal(back.z_prev, ck.z_prev, "z_prev");
  expect_bitwise_equal(back.lambda, ck.lambda, "lambda");
}

TEST(CheckpointTest, FileSaveLoadRoundTrips) {
  const AdmmCheckpoint ck = awkward_checkpoint();
  const std::string path = ::testing::TempDir() + "/dopf_ckpt_test.ckpt";
  save_checkpoint(ck, path);
  const AdmmCheckpoint back = load_checkpoint(path);
  EXPECT_EQ(back.iteration, ck.iteration);
  expect_bitwise_equal(back.x, ck.x, "x");
}

TEST(CheckpointTest, CrcDetectsTamperedPayload) {
  std::stringstream buf;
  write_checkpoint(awkward_checkpoint(), buf);
  std::string text = buf.str();
  // Flip one hex digit inside the body (not the header, not the crc line).
  const auto pos = text.find("0x1");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 2] = text[pos + 2] == '1' ? '2' : '1';
  std::stringstream tampered(text);
  EXPECT_THROW(read_checkpoint(tampered), CheckpointError);
}

TEST(CheckpointTest, TruncationDetected) {
  std::stringstream buf;
  write_checkpoint(awkward_checkpoint(), buf);
  const std::string text = buf.str();
  for (const std::size_t keep :
       {text.size() / 4, text.size() / 2, text.size() - 5}) {
    std::stringstream cut(text.substr(0, keep));
    EXPECT_THROW(read_checkpoint(cut), CheckpointError) << keep << " bytes";
  }
}

TEST(CheckpointTest, GarbageRejected) {
  std::stringstream not_a_checkpoint("hello world\n1 2 3\n");
  EXPECT_THROW(read_checkpoint(not_a_checkpoint), CheckpointError);
}

TEST(CheckpointTest, RestoreSizeMismatchThrows) {
  dopf::core::SolverFreeAdmm admm(problem(), {});
  AdmmCheckpoint ck = awkward_checkpoint();  // wrong layout for ieee13
  EXPECT_THROW(ck.restore(&admm), CheckpointError);
}

TEST(CheckpointTest, WrongFeederCheckpointRefusedBeforeStateTouched) {
  // A CRC-valid checkpoint from a different feeder must be rejected with a
  // message naming the mismatch — and the solver state must be untouched.
  static const auto net123 =
      dopf::feeders::synthetic_feeder(dopf::feeders::ieee123_spec());
  static const auto p123 = dopf::opf::decompose(net123);
  dopf::core::SolverFreeAdmm other(p123, {});
  const AdmmCheckpoint foreign =
      AdmmCheckpoint::capture(other, 50, "ieee123");

  dopf::core::SolverFreeAdmm admm(problem(), {});
  const std::vector<double> x_before(admm.x().begin(), admm.x().end());
  try {
    foreign.restore(&admm);
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("does not fit"), std::string::npos) << what;
    EXPECT_NE(what.find("ieee123"), std::string::npos) << what;
  }
  expect_bitwise_equal(std::vector<double>(admm.x().begin(), admm.x().end()),
                       x_before, "x untouched");
  EXPECT_EQ(admm.start_iteration(), 0);

  // Label mismatch alone (same feeder, different declared instance) is also
  // refused when the caller states what it expects.
  const AdmmCheckpoint same_shape = AdmmCheckpoint::capture(admm, 0, "ieee13");
  EXPECT_NO_THROW(same_shape.validate_for(admm, "ieee13"));
  EXPECT_THROW(same_shape.validate_for(admm, "ieee13_mod"), CheckpointError);
}

TEST(CheckpointTest, CaptureRestoreResumesBitExactly) {
  dopf::core::AdmmOptions opt;
  opt.check_every = 10;

  // Uninterrupted reference run.
  dopf::core::SolverFreeAdmm full(problem(), opt);
  const auto ref = full.solve();
  ASSERT_TRUE(ref.converged);

  // Interrupted run: capture at iteration 40 through the hook, push the
  // checkpoint through the serializer, restore into a FRESH solver, and
  // let it finish. The two final states must agree in every bit.
  dopf::core::SolverFreeAdmm first(problem(), opt);
  AdmmCheckpoint ck;
  first.set_checkpoint_hook(
      40, [&](const dopf::core::SolverFreeAdmm& solver, int iteration) {
        if (iteration == 40) {
          ck = AdmmCheckpoint::capture(solver, iteration, "ieee13");
        }
      });
  first.solve();
  ASSERT_EQ(ck.iteration, 40);

  std::stringstream buf;
  write_checkpoint(ck, buf);
  const AdmmCheckpoint loaded = read_checkpoint(buf);

  dopf::core::SolverFreeAdmm resumed(problem(), opt);
  loaded.restore(&resumed);
  EXPECT_EQ(resumed.start_iteration(), 40);
  const auto res = resumed.solve();

  EXPECT_EQ(res.iterations, ref.iterations);
  EXPECT_EQ(res.status, ref.status);
  expect_bitwise_equal(res.x, ref.x, "x");
  // The resumed history holds exactly the post-restart records.
  ASSERT_FALSE(res.history.empty());
  EXPECT_GT(res.history.front().iteration, 40);
  EXPECT_EQ(res.history.back().iteration, ref.history.back().iteration);
}

TEST(CheckpointTest, FingerprintsRoundTripThroughSerializer) {
  dopf::core::SolverFreeAdmm admm(problem(), {});
  const AdmmCheckpoint ck = AdmmCheckpoint::capture(admm, 7, "ieee13");
  EXPECT_NE(ck.model_fingerprint, 0u);
  EXPECT_NE(ck.scenario_fingerprint, 0u);

  std::stringstream buf;
  write_checkpoint(ck, buf);
  const AdmmCheckpoint back = read_checkpoint(buf);
  EXPECT_EQ(back.model_fingerprint, ck.model_fingerprint);
  EXPECT_EQ(back.scenario_fingerprint, ck.scenario_fingerprint);
}

TEST(CheckpointTest, LegacyCheckpointWithoutFingerprintsStillLoads) {
  // A checkpoint written before fingerprints existed has no model_fp /
  // scenario_fp lines; it must load with both fingerprints 0 (= unknown)
  // and validate against any solver of the right shape.
  const AdmmCheckpoint legacy = awkward_checkpoint();  // fps default to 0
  std::stringstream buf;
  write_checkpoint(legacy, buf);
  EXPECT_EQ(buf.str().find("model_fp"), std::string::npos);
  EXPECT_EQ(buf.str().find("scenario_fp"), std::string::npos);
  const AdmmCheckpoint back = read_checkpoint(buf);
  EXPECT_EQ(back.model_fingerprint, 0u);
  EXPECT_EQ(back.scenario_fingerprint, 0u);
}

TEST(CheckpointTest, ScenarioFingerprintMismatchRejected) {
  // Capture against the base scenario, then rebind the loads: the resumed
  // state would be meaningless against the edited data, so validate_for
  // must refuse with a scenario-mismatch diagnostic.
  dopf::core::SolverFreeAdmm admm(problem(), {});
  AdmmCheckpoint ck = AdmmCheckpoint::capture(admm, 10, "ieee13");
  EXPECT_NO_THROW(ck.validate_for(admm, "ieee13"));

  ck.scenario_fingerprint ^= 0x1;  // any rebind changes the fingerprint
  try {
    ck.validate_for(admm, "ieee13");
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("scenario"), std::string::npos) << what;
  }

  // A model-fingerprint mismatch (different topology) is also refused.
  AdmmCheckpoint ck2 = AdmmCheckpoint::capture(admm, 10, "ieee13");
  ck2.model_fingerprint ^= 0x1;
  EXPECT_THROW(ck2.validate_for(admm, "ieee13"), CheckpointError);
}

}  // namespace
}  // namespace dopf::runtime

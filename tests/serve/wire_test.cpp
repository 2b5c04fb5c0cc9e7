/// Wire codec roundtrips: every message type must encode/decode to an
/// equal value, the frame layer must reject malformed input with typed
/// WireError, and content_hash must name the same drain checkpoint for a
/// resubmission (id/resume/deadline excluded) while distinguishing any
/// solve-defining change.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "core/admm.hpp"
#include "serve/wire.hpp"

namespace dopf::serve {
namespace {

SolveRequest sample_request() {
  SolveRequest req;
  req.request_id = 42;
  req.deadline_ms = 1500;
  req.preflight = "strict";
  req.resume = true;
  req.rho = 250.0;
  req.eps_rel = 1e-5;
  req.max_iterations = 123456;
  req.check_every = 25;
  req.feeder = "builtin:ieee123";
  req.scenario = "load * scale 1.1\ngen * cost-scale 0.9\n";
  return req;
}

TEST(WireTest, SolveRequestRoundTrip) {
  const SolveRequest req = sample_request();
  const SolveRequest back = SolveRequest::decode(req.encode());
  EXPECT_EQ(back.request_id, req.request_id);
  EXPECT_EQ(back.deadline_ms, req.deadline_ms);
  EXPECT_EQ(back.preflight, req.preflight);
  EXPECT_EQ(back.resume, req.resume);
  EXPECT_EQ(back.rho, req.rho);
  EXPECT_EQ(back.eps_rel, req.eps_rel);
  EXPECT_EQ(back.max_iterations, req.max_iterations);
  EXPECT_EQ(back.check_every, req.check_every);
  EXPECT_EQ(back.feeder, req.feeder);
  EXPECT_EQ(back.scenario, req.scenario);
}

TEST(WireTest, SolveResponseRoundTripPreservesExactBits) {
  SolveResponse resp;
  resp.request_id = 7;
  resp.status = 2;
  resp.converged = true;
  resp.iterations = 1140;
  resp.objective = 0x1.a240710565216p-1;
  resp.primal_residual = 0x1.481d0af918fc3p-9;
  resp.dual_residual = -0.0;
  resp.model_fp = 0x4fa556f60c2d954aull;
  resp.scenario_fp = 0xe7f6b5c9ef4cadaeull;
  const SolveResponse back = SolveResponse::decode(resp.encode());
  EXPECT_EQ(back.request_id, resp.request_id);
  EXPECT_EQ(back.status, resp.status);
  EXPECT_EQ(back.converged, resp.converged);
  EXPECT_EQ(back.iterations, resp.iterations);
  // Bit-exact doubles, including the negative-zero sign.
  EXPECT_EQ(back.objective, resp.objective);
  EXPECT_EQ(back.primal_residual, resp.primal_residual);
  EXPECT_TRUE(std::signbit(back.dual_residual));
  EXPECT_EQ(back.model_fp, resp.model_fp);
  EXPECT_EQ(back.scenario_fp, resp.scenario_fp);
  // Identical responses encode to identical bytes — the byte-compare
  // property the fault harness relies on.
  EXPECT_EQ(resp.encode(), resp.encode());
}

// SolveResponse carries core::AdmmStatus as one byte, right after the
// 8-byte request id: every status keeps the byte it has always had (2, a
// deleted wall-clock time limit, stays unused) and round-trips to itself.
TEST(WireTest, SolveResponseStatusBytesArePinned) {
  using dopf::core::AdmmStatus;
  const std::pair<AdmmStatus, unsigned char> pinned[] = {
      {AdmmStatus::kConverged, 0},
      {AdmmStatus::kIterationLimit, 1},
      {AdmmStatus::kDiverged, 3},
      {AdmmStatus::kStalled, 4},
      {AdmmStatus::kCancelled, 5},
  };
  for (const auto& [status, byte] : pinned) {
    SolveResponse resp;
    resp.request_id = 9;
    resp.status = static_cast<std::uint8_t>(status);
    const std::string bytes = resp.encode();
    ASSERT_GT(bytes.size(), 8u);
    EXPECT_EQ(static_cast<unsigned char>(bytes[8]), byte)
        << dopf::core::to_string(status);
    EXPECT_EQ(static_cast<AdmmStatus>(SolveResponse::decode(bytes).status),
              status)
        << dopf::core::to_string(status);
  }
}

TEST(WireTest, RejectAndPingRoundTrip) {
  Reject rej;
  rej.request_id = 9;
  rej.code = RejectCode::kOverloaded;
  rej.retry_after_ms = 125;
  rej.message = "queue full";
  const Reject back = Reject::decode(rej.encode());
  EXPECT_EQ(back.request_id, rej.request_id);
  EXPECT_EQ(back.code, rej.code);
  EXPECT_EQ(back.retry_after_ms, rej.retry_after_ms);
  EXPECT_EQ(back.message, rej.message);

  Ping ping;
  ping.id = 0xdeadbeefull;
  EXPECT_EQ(Ping::decode(ping.encode()).id, ping.id);
}

TEST(WireTest, FrameRoundTripAndConsumed) {
  const std::string payload = sample_request().encode();
  const std::string frame = encode_frame(Op::kSolveRequest, payload);
  std::size_t consumed = 0;
  const Frame decoded = decode_frame(frame, &consumed);
  EXPECT_EQ(decoded.op, Op::kSolveRequest);
  EXPECT_EQ(decoded.payload, payload);
  EXPECT_EQ(consumed, frame.size());

  // Back-to-back frames in one buffer decode one at a time.
  const std::string two = frame + encode_frame(Op::kPing, Ping{1}.encode());
  const Frame first = decode_frame(two, &consumed);
  EXPECT_EQ(first.op, Op::kSolveRequest);
  const Frame second =
      decode_frame(std::string_view(two).substr(consumed), &consumed);
  EXPECT_EQ(second.op, Op::kPing);
}

TEST(WireTest, FrameRejectsBadMagicUnknownOpAndOversize) {
  const std::string frame = encode_frame(Op::kPing, Ping{1}.encode());
  std::string bad_magic = frame;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(decode_frame(bad_magic), WireError);

  // Unknown op: rebuild the frame by hand with op=99 and a valid CRC is
  // not possible through the public API, so flip the op byte — the CRC
  // check fires first, which is the stronger guarantee anyway.
  std::string bad_op = frame;
  bad_op[4] = 99;
  EXPECT_THROW(decode_frame(bad_op), WireError);

  // An oversize length field must be rejected before any allocation.
  std::string oversize = frame;
  oversize[5] = static_cast<char>(0xff);
  oversize[6] = static_cast<char>(0xff);
  oversize[7] = static_cast<char>(0xff);
  oversize[8] = static_cast<char>(0x7f);
  EXPECT_THROW(decode_frame(oversize), WireError);
}

TEST(WireTest, PayloadDecodersRejectTruncationAndTrailingGarbage) {
  const std::string payload = sample_request().encode();
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_THROW(SolveRequest::decode(payload.substr(0, len)), WireError)
        << "prefix of " << len << " bytes decoded";
  }
  EXPECT_THROW(SolveRequest::decode(payload + "x"), WireError);
  EXPECT_THROW(SolveResponse::decode(std::string()), WireError);
  EXPECT_THROW(Reject::decode(std::string("\x01")), WireError);
  EXPECT_THROW(Ping::decode(std::string("1234567")), WireError);
}

TEST(WireTest, ContentHashIgnoresIdentityFieldsOnly) {
  const SolveRequest base = sample_request();
  const std::uint64_t h = base.content_hash();

  // A resubmission of the same solve hashes identically, so it finds the
  // drain checkpoint the first attempt wrote.
  SolveRequest resubmit = base;
  resubmit.request_id = 999;
  resubmit.resume = true;
  resubmit.deadline_ms = 0;
  EXPECT_EQ(resubmit.content_hash(), h);

  // Every solve-defining field changes the hash.
  auto differs = [&](auto mutate) {
    SolveRequest m = base;
    mutate(m);
    return m.content_hash() != h;
  };
  EXPECT_TRUE(differs([](SolveRequest& m) { m.feeder = "builtin:ieee13"; }));
  EXPECT_TRUE(differs([](SolveRequest& m) { m.scenario += "load * scale 2\n"; }));
  EXPECT_TRUE(differs([](SolveRequest& m) { m.rho = 99.0; }));
  EXPECT_TRUE(differs([](SolveRequest& m) { m.eps_rel = 1e-4; }));
  EXPECT_TRUE(differs([](SolveRequest& m) { m.max_iterations = 7; }));
  EXPECT_TRUE(differs([](SolveRequest& m) { m.check_every = 1; }));
  EXPECT_TRUE(differs([](SolveRequest& m) { m.preflight = "warn"; }));
}

TEST(WireTest, RejectCodeNamesAreStable) {
  EXPECT_STREQ(to_string(RejectCode::kOverloaded), "overloaded");
  EXPECT_STREQ(to_string(RejectCode::kDeadline), "deadline");
  EXPECT_STREQ(to_string(RejectCode::kPreflight), "preflight");
  EXPECT_STREQ(to_string(RejectCode::kWire), "wire");
  EXPECT_STREQ(to_string(RejectCode::kShuttingDown), "shutting-down");
  EXPECT_STREQ(to_string(RejectCode::kBadRequest), "bad-request");
  EXPECT_STREQ(to_string(RejectCode::kDrained), "drained");
  EXPECT_STREQ(to_string(RejectCode::kInternal), "internal");
}

}  // namespace
}  // namespace dopf::serve

/// ServeFaultPlan grammar and injector determinism: the transport fault
/// plane mirrors FsFaultPlan — failpoints keyed by the 1-based ordinal of
/// matching SENT frames, duplicate entries rejected at parse time, and a
/// deterministic injector that fires the same failpoints for the same
/// frame schedule every run.

#include <gtest/gtest.h>

#include <string>

#include "serve/fault.hpp"
#include "serve/wire.hpp"

namespace dopf::serve {
namespace {

using dopf::runtime::FaultError;

TEST(FaultPlanTest, ParsesEveryKindWithOptions) {
  const ServeFaultPlan plan = ServeFaultPlan::parse(
      "drop:op=1;corrupt:op=2,times=3,frame=response;"
      "truncate:op=4,bytes=7,frame=reject;delay:op=5,ms=80,frame=pong");
  ASSERT_EQ(plan.events.size(), 4u);

  EXPECT_EQ(plan.events[0].kind, ServeFailpoint::Kind::kDrop);
  EXPECT_EQ(plan.events[0].op, 1);
  EXPECT_EQ(plan.events[0].times, 1);
  EXPECT_EQ(plan.events[0].frame_op, 0);

  EXPECT_EQ(plan.events[1].kind, ServeFailpoint::Kind::kCorrupt);
  EXPECT_EQ(plan.events[1].times, 3);
  EXPECT_EQ(plan.events[1].frame_op,
            static_cast<std::uint8_t>(Op::kSolveResponse));

  EXPECT_EQ(plan.events[2].kind, ServeFailpoint::Kind::kTruncate);
  EXPECT_EQ(plan.events[2].bytes, 7u);
  EXPECT_EQ(plan.events[2].frame_op, static_cast<std::uint8_t>(Op::kReject));

  EXPECT_EQ(plan.events[3].kind, ServeFailpoint::Kind::kDelay);
  EXPECT_EQ(plan.events[3].delay_ms, 80);
  EXPECT_EQ(plan.events[3].frame_op, static_cast<std::uint8_t>(Op::kPong));
}

TEST(FaultPlanTest, ToStringRoundTrips) {
  const std::string spec =
      "drop:op=1;corrupt:op=2,times=3,frame=response;"
      "truncate:op=4,bytes=7,frame=reject;delay:op=5,ms=80,frame=pong";
  const ServeFaultPlan plan = ServeFaultPlan::parse(spec);
  const std::string printed = dopf::runtime::spec_string(plan.events);
  const ServeFaultPlan again = ServeFaultPlan::parse(printed);
  EXPECT_EQ(dopf::runtime::spec_string(again.events), printed);
  EXPECT_EQ(again.events.size(), plan.events.size());
}

TEST(FaultPlanTest, EmptySpecIsEmptyPlan) {
  EXPECT_TRUE(ServeFaultPlan::parse("").empty());
  EXPECT_TRUE(ServeFaultPlan::parse(";;").empty());
}

TEST(FaultPlanTest, MalformedSpecsRaiseTypedErrors) {
  EXPECT_THROW(ServeFaultPlan::parse("explode:op=1"), FaultError);
  EXPECT_THROW(ServeFaultPlan::parse("drop"), FaultError);          // no ':'
  EXPECT_THROW(ServeFaultPlan::parse("drop:times=2"), FaultError);  // no op
  EXPECT_THROW(ServeFaultPlan::parse("drop:op=0"), FaultError);
  EXPECT_THROW(ServeFaultPlan::parse("drop:op=x"), FaultError);
  EXPECT_THROW(ServeFaultPlan::parse("drop:op=1,times=0"), FaultError);
  EXPECT_THROW(ServeFaultPlan::parse("drop:op=1,bogus=2"), FaultError);
  EXPECT_THROW(ServeFaultPlan::parse("drop:op=1,frame=request"), FaultError);
  EXPECT_THROW(ServeFaultPlan::parse("truncate:op=1,bytes=-1"), FaultError);
  EXPECT_THROW(ServeFaultPlan::parse("delay:op=1,ms=99999"), FaultError);
  EXPECT_THROW(ServeFaultPlan::parse("drop:op=2.7"), FaultError);
  EXPECT_THROW(ServeFaultPlan::parse("drop:op=4294967297"), FaultError);
}

TEST(FaultPlanTest, DuplicateKindOpFrameIsRejected) {
  EXPECT_THROW(ServeFaultPlan::parse("drop:op=2;drop:op=2"), FaultError);
  EXPECT_THROW(
      ServeFaultPlan::parse("drop:op=2,frame=response;drop:op=2,frame=response"),
      FaultError);
  // Different frame filter or different kind at the same ordinal is fine.
  EXPECT_EQ(
      ServeFaultPlan::parse("drop:op=2;drop:op=2,frame=response").events.size(),
      2u);
  EXPECT_EQ(ServeFaultPlan::parse("drop:op=2;corrupt:op=2").events.size(), 2u);
}

TEST(FaultPlanTest, InjectorFiresOnMatchingOrdinalsOnly) {
  ServeFaultInjector inj(ServeFaultPlan::parse("drop:op=2,frame=response"));
  // Pongs do not advance the response counter.
  EXPECT_EQ(inj.on_send(Op::kPong), nullptr);
  EXPECT_EQ(inj.on_send(Op::kSolveResponse), nullptr);  // response #1
  const ServeFailpoint* hit = inj.on_send(Op::kSolveResponse);  // response #2
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->kind, ServeFailpoint::Kind::kDrop);
  EXPECT_EQ(inj.on_send(Op::kSolveResponse), nullptr);  // armed window passed
  EXPECT_EQ(inj.counts().dropped, 1);
}

TEST(FaultPlanTest, TimesWidensTheArmedWindow) {
  ServeFaultInjector inj(ServeFaultPlan::parse("corrupt:op=2,times=2"));
  EXPECT_EQ(inj.on_send(Op::kSolveResponse), nullptr);  // frame 1
  EXPECT_NE(inj.on_send(Op::kReject), nullptr);         // frame 2 (any kind)
  EXPECT_NE(inj.on_send(Op::kPong), nullptr);           // frame 3
  EXPECT_EQ(inj.on_send(Op::kSolveResponse), nullptr);  // frame 4
  EXPECT_EQ(inj.counts().corrupted, 2);
}

TEST(FaultPlanTest, MaxTimesFiresOnEveryOrdinalFromOpOnward) {
  // op + times exceeds INT_MAX: the window must stay open, without overflow.
  ServeFaultInjector inj(ServeFaultPlan::parse("drop:op=2,times=2147483647"));
  EXPECT_EQ(inj.on_send(Op::kPong), nullptr);  // frame 1
  for (int frame = 2; frame <= 5000; ++frame) {
    ASSERT_NE(inj.on_send(Op::kSolveResponse), nullptr) << "frame " << frame;
  }
  EXPECT_EQ(inj.counts().dropped, 4999);
}

TEST(FaultPlanTest, InjectorIsDeterministicAcrossRuns) {
  const std::string spec = "drop:op=1,frame=response;delay:op=3";
  std::string first, second;
  for (std::string* trace : {&first, &second}) {
    ServeFaultInjector inj(ServeFaultPlan::parse(spec));
    for (const Op op : {Op::kPong, Op::kSolveResponse, Op::kSolveResponse,
                        Op::kReject, Op::kSolveResponse}) {
      const ServeFailpoint* hit = inj.on_send(op);
      *trace += hit == nullptr ? '.' : 'X';
    }
  }
  EXPECT_EQ(first, second);
  // Response #1 (the 2nd frame sent) is dropped; the unfiltered delay
  // counter counts every frame, so frame #3 overall is delayed.
  EXPECT_EQ(first, ".XX..");
}

TEST(FaultPlanTest, ApplyFailpointShapes) {
  const std::string frame = encode_frame(Op::kSolveResponse, "payload-bytes");

  ServeFailpoint drop;
  drop.kind = ServeFailpoint::Kind::kDrop;
  std::string copy = frame;
  bool close_after = false;
  EXPECT_FALSE(apply_failpoint(drop, &copy, &close_after));
  EXPECT_EQ(copy, frame);  // drop leaves the frame alone; it is just not sent

  ServeFailpoint corrupt;
  corrupt.kind = ServeFailpoint::Kind::kCorrupt;
  copy = frame;
  EXPECT_TRUE(apply_failpoint(corrupt, &copy, &close_after));
  EXPECT_EQ(copy.size(), frame.size());
  EXPECT_NE(copy, frame);
  EXPECT_FALSE(close_after);

  ServeFailpoint truncate;
  truncate.kind = ServeFailpoint::Kind::kTruncate;
  truncate.bytes = 6;
  copy = frame;
  EXPECT_TRUE(apply_failpoint(truncate, &copy, &close_after));
  EXPECT_EQ(copy.size(), 6u);
  EXPECT_TRUE(close_after);

  // bytes >= frame size still truncates by at least one byte — a
  // "truncation" that sends the whole frame would be a silent no-op.
  ServeFailpoint truncate_all;
  truncate_all.kind = ServeFailpoint::Kind::kTruncate;
  truncate_all.bytes = frame.size() + 100;
  copy = frame;
  EXPECT_TRUE(apply_failpoint(truncate_all, &copy, &close_after));
  EXPECT_EQ(copy.size(), frame.size() - 1);
}

}  // namespace
}  // namespace dopf::serve

/// Fault-plan parsing, injector semantics and retry pricing.

#include "runtime/fault.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace dopf::runtime {
namespace {

TEST(FaultPlanTest, ParsesEveryKind) {
  const FaultPlan plan = FaultPlan::parse(
      "kill:device=1,iter=137; drop:device=2,iter=10,count=2;"
      "corrupt:device=0,iter=5,scale=32;"
      "straggle:device=3,iter=7,until=20,factor=8");
  ASSERT_EQ(plan.events.size(), 4u);
  EXPECT_EQ(plan.events[0].kind, FaultEvent::Kind::kKillDevice);
  EXPECT_EQ(plan.events[0].device, 1u);
  EXPECT_EQ(plan.events[0].iteration, 137);
  EXPECT_EQ(plan.events[1].kind, FaultEvent::Kind::kDropMessage);
  EXPECT_EQ(plan.events[1].count, 2);
  EXPECT_EQ(plan.events[2].kind, FaultEvent::Kind::kCorruptMessage);
  EXPECT_EQ(plan.events[2].factor, 32.0);
  EXPECT_EQ(plan.events[3].kind, FaultEvent::Kind::kStraggle);
  EXPECT_EQ(plan.events[3].until, 20);
  EXPECT_EQ(plan.events[3].factor, 8.0);
}

TEST(FaultPlanTest, DefaultsApplied) {
  const FaultPlan plan =
      FaultPlan::parse("corrupt:device=1,iter=3;straggle:device=0,iter=9");
  EXPECT_EQ(plan.events[0].factor, 16.0);  // default corruption scale
  EXPECT_EQ(plan.events[1].factor, 4.0);   // default slowdown
  EXPECT_EQ(plan.events[1].until, 9);      // until defaults to iter
}

TEST(FaultPlanTest, EmptySpecYieldsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("  ; ;  ").empty());
}

TEST(FaultPlanTest, RoundTripsThroughToString) {
  const std::string spec =
      "kill:device=1,iter=137;drop:device=2,iter=10,count=2;"
      "corrupt:device=0,iter=5,scale=32;"
      "straggle:device=3,iter=7,until=20,factor=8";
  const FaultPlan plan = FaultPlan::parse(spec);
  const FaultPlan replayed = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(plan.to_string(), replayed.to_string());
  ASSERT_EQ(plan.events.size(), replayed.events.size());
}

TEST(FaultPlanTest, MalformedSpecsThrowWithContext) {
  EXPECT_THROW(FaultPlan::parse("explode:device=0,iter=1"), FaultError);
  EXPECT_THROW(FaultPlan::parse("kill device=0"), FaultError);
  EXPECT_THROW(FaultPlan::parse("kill:device=0"), FaultError);  // no iter
  EXPECT_THROW(FaultPlan::parse("kill:iter=5"), FaultError);    // no device
  EXPECT_THROW(FaultPlan::parse("kill:device=0,iter=abc"), FaultError);
  EXPECT_THROW(FaultPlan::parse("kill:device=0,iter=0"), FaultError);
  EXPECT_THROW(FaultPlan::parse("kill:device=-1,iter=5"), FaultError);
  EXPECT_THROW(FaultPlan::parse("kill:device=0,iter=5,bogus=1"), FaultError);
  EXPECT_THROW(FaultPlan::parse("drop:device=0,iter=5,count=0"), FaultError);
  const std::pair<const char*, const char*> quoted[] = {
      {"kill:device=0,iter=1x", "1x"},
      {"kill:device=1.5,iter=3", "1.5"},
      {"kill:device=0,iter=1.9", "1.9"},
      {"kill:device=0,iter=4294967297", "4294967297"},
  };
  for (const auto& [spec, token] : quoted) {
    try {
      FaultPlan::parse(spec);
      FAIL() << "expected FaultError for " << spec;
    } catch (const FaultError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + token + "'"),
                std::string::npos)
          << "diagnostic should quote the offending token: " << e.what();
    }
  }
}

TEST(FaultInjectorTest, KillIsConsumedOnce) {
  FaultInjector inj(FaultPlan::parse("kill:device=1,iter=7"));
  EXPECT_FALSE(inj.kill_scheduled(1, 6));
  EXPECT_FALSE(inj.kill_scheduled(0, 7));
  EXPECT_TRUE(inj.kill_scheduled(1, 7));
  inj.consume_kill(1, 7);
  // A post-failover replay of the same iteration sees a clean device.
  EXPECT_FALSE(inj.kill_scheduled(1, 7));
}

TEST(FaultInjectorTest, DropsAccumulateAndConsume) {
  // Two drop events covering the same iteration (one as a persistent
  // window) accumulate; consuming clears the one-shot but never the
  // persistent one.
  FaultInjector inj(FaultPlan::parse(
      "drop:device=2,iter=4,count=2;drop:device=2,from=3,until=4"));
  EXPECT_EQ(inj.message_drops(2, 4), 3);
  EXPECT_EQ(inj.message_drops(2, 5), 0);
  inj.consume_drops(2, 4);
  EXPECT_EQ(inj.message_drops(2, 4), 1);  // persistent event survives
}

TEST(FaultPlanTest, DuplicateEntriesRejectedWithEntryNumbers) {
  try {
    FaultPlan::parse(
        "drop:device=2,iter=4,count=2;kill:device=0,iter=9;"
        "drop:device=2,iter=4");
    FAIL() << "expected FaultError";
  } catch (const FaultError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("entry 3"), std::string::npos) << what;
    EXPECT_NE(what.find("entry 1"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicates"), std::string::npos) << what;
  }
  // Same (kind, iteration) on a different device is NOT a duplicate.
  EXPECT_NO_THROW(
      FaultPlan::parse("drop:device=1,iter=4;drop:device=2,iter=4"));
  // Same (device, iteration) with a different kind is NOT a duplicate.
  EXPECT_NO_THROW(
      FaultPlan::parse("drop:device=2,iter=4;corrupt:device=2,iter=4"));
}

TEST(FaultPlanTest, PersistentSpecsParse) {
  const FaultPlan plan = FaultPlan::parse(
      "straggle:device=1,from=30,factor=8;drop:device=2,from=200,until=250");
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_TRUE(plan.events[0].persistent);
  EXPECT_EQ(plan.events[0].iteration, 30);
  EXPECT_TRUE(plan.events[0].active_at(30));
  EXPECT_TRUE(plan.events[0].active_at(100000));  // open-ended
  EXPECT_FALSE(plan.events[0].active_at(29));
  EXPECT_TRUE(plan.events[1].persistent);
  EXPECT_TRUE(plan.events[1].active_at(250));
  EXPECT_FALSE(plan.events[1].active_at(251));
  EXPECT_FALSE(FaultPlan::parse("drop:device=2,iter=4").events[0].persistent);

  // Persistent specs survive a to_string round trip.
  const FaultPlan replayed = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(plan.to_string(), replayed.to_string());
  EXPECT_TRUE(replayed.events[0].persistent);

  // iter= and from= are mutually exclusive; kills cannot recur.
  EXPECT_THROW(FaultPlan::parse("drop:device=2,iter=4,from=4"), FaultError);
  EXPECT_THROW(FaultPlan::parse("kill:device=2,from=4"), FaultError);
}

TEST(FaultInjectorTest, PersistentEventsAreNeverConsumed) {
  FaultInjector inj(FaultPlan::parse(
      "drop:device=1,from=10;corrupt:device=0,from=5,scale=4"));
  for (int t : {10, 11, 500}) {
    EXPECT_EQ(inj.message_drops(1, t), 1) << "iteration " << t;
    inj.consume_drops(1, t);
    EXPECT_EQ(inj.message_drops(1, t), 1) << "consume must not clear";
  }
  ASSERT_NE(inj.corruption(0, 7), nullptr);
  inj.consume_corruption(0, 7);
  EXPECT_NE(inj.corruption(0, 7), nullptr);
  EXPECT_EQ(inj.corruption(0, 4), nullptr);  // before the window
}

TEST(FaultInjectorTest, CorruptionConsumed) {
  FaultInjector inj(FaultPlan::parse("corrupt:device=0,iter=9,scale=64"));
  ASSERT_NE(inj.corruption(0, 9), nullptr);
  EXPECT_EQ(inj.corruption(0, 9)->factor, 64.0);
  EXPECT_EQ(inj.corruption(0, 8), nullptr);
  inj.consume_corruption(0, 9);
  EXPECT_EQ(inj.corruption(0, 9), nullptr);
}

TEST(FaultInjectorTest, StraggleWindowMultiplies) {
  FaultInjector inj(FaultPlan::parse(
      "straggle:device=1,iter=5,until=10,factor=3;"
      "straggle:device=1,iter=8,until=12,factor=2"));
  EXPECT_EQ(inj.straggle_factor(1, 4), 1.0);
  EXPECT_EQ(inj.straggle_factor(1, 5), 3.0);
  EXPECT_EQ(inj.straggle_factor(1, 8), 6.0);  // overlapping windows compound
  EXPECT_EQ(inj.straggle_factor(1, 11), 2.0);
  EXPECT_EQ(inj.straggle_factor(1, 13), 1.0);
  EXPECT_EQ(inj.straggle_factor(0, 8), 1.0);  // other devices unaffected
}

TEST(RetryCostTest, BackoffSeriesPlusResends) {
  RecoveryPolicy policy;
  policy.retry_timeout_s = 1e-4;
  policy.backoff_factor = 2.0;
  CommModel comm;
  const std::size_t bytes = 4096;
  // 3 failures: timeouts 1e-4 + 2e-4 + 4e-4, plus three re-sends.
  const double expect =
      7e-4 + 3.0 * comm.message_seconds(bytes);
  EXPECT_NEAR(retry_cost_seconds(policy, comm, bytes, 3), expect, 1e-12);
  EXPECT_EQ(retry_cost_seconds(policy, comm, bytes, 0), 0.0);
}

}  // namespace
}  // namespace dopf::runtime

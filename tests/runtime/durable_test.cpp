/// Durable-write layer: atomic replace semantics, deterministic filesystem
/// failpoints, bounded retry/backoff pricing, and the generation-numbered
/// A/B checkpoint store with torn-write fallback.

#include "runtime/durable.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "runtime/checkpoint.hpp"

namespace dopf::runtime {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// TempDir() is shared across test runs; a CheckpointStore adopts any slot
/// files it finds there (by design), so store tests must start from a
/// clean base.
std::string fresh_base(const std::string& name) {
  const std::string base = temp_path(name);
  for (const char* suffix : {"", ".a", ".b", ".tmp", ".a.tmp", ".b.tmp"}) {
    std::remove((base + suffix).c_str());
  }
  return base;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

bool exists(const std::string& path) {
  return std::ifstream(path).good();
}

TEST(DurableWriteTest, WritesAndReplacesAtomically) {
  const std::string path = temp_path("durable_basic.txt");
  const IoStats first = durable_write_file(path, "generation one\n");
  EXPECT_EQ(first.writes, 1);
  EXPECT_EQ(first.retries, 0);
  EXPECT_EQ(slurp(path), "generation one\n");
  durable_write_file(path, "generation two\n");
  EXPECT_EQ(slurp(path), "generation two\n");
  EXPECT_FALSE(exists(path + ".tmp")) << "temp file must not survive success";
}

TEST(DurableWriteTest, MissingDirectoryRaisesIoErrorWithPathAndErrno) {
  const std::string path = temp_path("no_such_dir") + "/x.txt";
  try {
    durable_write_file(path, "content");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.path(), path);
    EXPECT_NE(e.error_code(), 0);
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

TEST(DurableWriteTest, TransientEnospcIsRetriedAndPriced) {
  FsFaultInjector faults(FsFaultPlan::parse("enospc:op=1,times=2"));
  DurableOptions opts;
  opts.faults = &faults;
  opts.retry_timeout_s = 1e-3;
  opts.backoff_factor = 2.0;
  const std::string path = temp_path("durable_transient.txt");
  const IoStats stats = durable_write_file(path, "survived\n", opts);
  EXPECT_EQ(stats.writes, 1);
  EXPECT_EQ(stats.retries, 2);
  // Two failed attempts: 1ms + 2ms of simulated backoff.
  EXPECT_DOUBLE_EQ(stats.retry_seconds, 3e-3);
  EXPECT_EQ(slurp(path), "survived\n");
}

TEST(DurableWriteTest, ExhaustedRetriesRaiseIoError) {
  FsFaultInjector faults(FsFaultPlan::parse("enospc:op=1,times=99"));
  DurableOptions opts;
  opts.faults = &faults;
  opts.max_retries = 2;
  const std::string path = temp_path("durable_exhausted.txt");
  durable_write_file(path, "old contents\n");
  try {
    durable_write_file(path, "new contents\n", opts);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.error_code(), ENOSPC);
  }
  EXPECT_EQ(slurp(path), "old contents\n") << "target must stay untouched";
}

TEST(DurableWriteTest, ShortWriteNeverLeavesTornTarget) {
  FsFaultInjector faults(FsFaultPlan::parse("short:op=1,times=99,bytes=4"));
  DurableOptions opts;
  opts.faults = &faults;
  opts.max_retries = 1;
  const std::string path = temp_path("durable_short.txt");
  durable_write_file(path, "intact old file\n");
  EXPECT_THROW(durable_write_file(path, "a much longer new payload\n", opts),
               IoError);
  EXPECT_EQ(slurp(path), "intact old file\n");
  EXPECT_FALSE(exists(path + ".tmp"));
}

TEST(DurableWriteTest, RenameFailureKeepsOldFile) {
  FsFaultInjector faults(FsFaultPlan::parse("rename:op=1,times=99"));
  DurableOptions opts;
  opts.faults = &faults;
  opts.max_retries = 1;
  const std::string path = temp_path("durable_rename.txt");
  durable_write_file(path, "old\n");
  EXPECT_THROW(durable_write_file(path, "new\n", opts), IoError);
  EXPECT_EQ(slurp(path), "old\n");
}

TEST(DurableWriteTest, CrashAfterTempLeavesTempAndOldTarget) {
  FsFaultInjector faults(FsFaultPlan::parse("crash:op=2"));
  DurableOptions opts;
  opts.faults = &faults;
  const std::string path = temp_path("durable_crash.txt");
  durable_write_file(path, "gen1\n", opts);  // op 1: clean
  EXPECT_THROW(durable_write_file(path, "gen2\n", opts), SimulatedCrash);
  EXPECT_EQ(slurp(path), "gen1\n") << "rename never happened";
  EXPECT_EQ(slurp(path + ".tmp"), "gen2\n")
      << "a crashed process cleans nothing up";
}

TEST(DurableReadTest, CorruptReadFlipsOneByte) {
  const std::string path = temp_path("durable_corrupt_read.txt");
  durable_write_file(path, "payload payload payload\n");
  FsFaultInjector faults(FsFaultPlan::parse("corrupt-read:op=1"));
  DurableOptions opts;
  opts.faults = &faults;
  const std::string clean = durable_read_file(path);
  const std::string dirty = durable_read_file(path, opts);
  EXPECT_NE(clean, dirty);
  EXPECT_EQ(clean.size(), dirty.size());
  const std::string again = durable_read_file(path, opts);
  EXPECT_EQ(clean, again) << "op=1 fires on the first read only";
}

TEST(DurableReadTest, MissingFileRaisesIoError) {
  EXPECT_THROW(durable_read_file(temp_path("nonexistent.bin")), IoError);
}

TEST(FsFaultPlanTest, ParsesRoundTrippableSpecs) {
  const auto plan = FsFaultPlan::parse(
      "enospc:op=3,times=2,path=day.ckpt; short:op=5,bytes=64; crash:op=7");
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].kind, FsFailpoint::Kind::kNoSpace);
  EXPECT_EQ(plan.events[0].op, 3);
  EXPECT_EQ(plan.events[0].times, 2);
  EXPECT_EQ(plan.events[0].path_contains, "day.ckpt");
  EXPECT_EQ(plan.events[1].bytes, 64u);
  EXPECT_EQ(dopf::runtime::spec_string(plan.events),
            "enospc:op=3,times=2,path=day.ckpt;short:op=5,bytes=64;crash:op=7");
}

TEST(FsFaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_THROW(FsFaultPlan::parse("bogus:op=1"), FaultError);
  EXPECT_THROW(FsFaultPlan::parse("enospc:times=2"), FaultError);  // no op
  EXPECT_THROW(FsFaultPlan::parse("enospc:op=0"), FaultError);
  EXPECT_THROW(FsFaultPlan::parse("enospc:op=x"), FaultError);
  EXPECT_THROW(FsFaultPlan::parse("crash:op=1,times=3"), FaultError);
  EXPECT_THROW(FsFaultPlan::parse("enospc:op=1;enospc:op=1"), FaultError);
  EXPECT_THROW(FsFaultPlan::parse("enospc:op=2.7"), FaultError);
  EXPECT_THROW(FsFaultPlan::parse("enospc:op=4294967297"), FaultError);
}

TEST(FsFaultInjectorTest, PathFilterCountsMatchingOpsOnly) {
  FsFaultInjector inj(FsFaultPlan::parse("enospc:op=2,path=target"));
  EXPECT_EQ(inj.on_write_attempt("other/file"), nullptr);
  EXPECT_EQ(inj.on_write_attempt("dir/target.ckpt"), nullptr);  // op 1
  EXPECT_EQ(inj.on_write_attempt("other/file"), nullptr);
  EXPECT_NE(inj.on_write_attempt("dir/target.ckpt"), nullptr);  // op 2 fires
  EXPECT_EQ(inj.on_write_attempt("dir/target.ckpt"), nullptr);  // op 3 clean
}

TEST(FsFaultInjectorTest, MaxTimesFiresOnEveryOrdinalFromOpOnward) {
  // op + times exceeds INT_MAX: the window must stay open, without overflow.
  FsFaultInjector inj(FsFaultPlan::parse("enospc:op=2,times=2147483647"));
  EXPECT_EQ(inj.on_write_attempt("a.ckpt"), nullptr);  // op 1
  for (int op = 2; op <= 5000; ++op) {
    ASSERT_NE(inj.on_write_attempt("a.ckpt"), nullptr) << "op " << op;
  }
  EXPECT_EQ(inj.on_read("a.ckpt"), nullptr);  // reads have their own count
}

AdmmCheckpoint small_checkpoint(int iteration) {
  AdmmCheckpoint ck;
  ck.label = "store-test";
  ck.iteration = iteration;
  ck.rho = 50.0;
  ck.x = {1.0, 2.0};
  ck.z = {3.0};
  ck.z_prev = {4.0};
  ck.lambda = {5.0};
  return ck;
}

TEST(CheckpointStoreTest, AlternatesSlotsWithIncreasingGenerations) {
  const std::string base = fresh_base("store_alt.ckpt");
  CheckpointStore store(base);
  store.save(small_checkpoint(10));
  store.save(small_checkpoint(20));
  store.save(small_checkpoint(30));
  const auto loaded = store.load();
  EXPECT_EQ(loaded.checkpoint.iteration, 30);
  EXPECT_EQ(loaded.checkpoint.generation, 3u);
  EXPECT_FALSE(loaded.fell_back);
  // Three saves: a(1), b(2), a(3) — slot b still holds generation 2.
  EXPECT_EQ(load_checkpoint(store.slot_b()).generation, 2u);
}

TEST(CheckpointStoreTest, TornNewestFallsBackWithDiagnostic) {
  const std::string base = fresh_base("store_torn.ckpt");
  CheckpointStore store(base);
  store.save(small_checkpoint(10));  // .a, generation 1
  store.save(small_checkpoint(20));  // .b, generation 2
  // Tear the newest slot the way a crashed write would.
  std::ofstream(store.slot_b(), std::ios::binary | std::ios::trunc)
      << "dopf-checkpoint v1\nlabel torn\n";
  const auto loaded = store.load();
  EXPECT_TRUE(loaded.fell_back);
  EXPECT_EQ(loaded.checkpoint.iteration, 10);
  EXPECT_EQ(loaded.path, store.slot_a());
  EXPECT_NE(loaded.diagnostic.find(store.slot_b()), std::string::npos)
      << "diagnostic must name the rejected slot: " << loaded.diagnostic;
}

TEST(CheckpointStoreTest, AdoptsOnDiskGenerationsAcrossRestart) {
  const std::string base = fresh_base("store_restart.ckpt");
  {
    CheckpointStore store(base);
    store.save(small_checkpoint(10));
    store.save(small_checkpoint(20));
  }
  // A fresh process (new store object) must continue, not restart, the
  // generation counter — and overwrite the OLDER slot first.
  CheckpointStore store(base);
  store.save(small_checkpoint(30));
  const auto loaded = store.load();
  EXPECT_EQ(loaded.checkpoint.generation, 3u);
  EXPECT_EQ(loaded.path, store.slot_a());
  EXPECT_EQ(load_checkpoint(store.slot_b()).generation, 2u);
}

TEST(CheckpointStoreTest, BothSlotsBadRaisesCheckpointError) {
  const std::string base = fresh_base("store_dead.ckpt");
  CheckpointStore store(base);
  std::ofstream(store.slot_a()) << "garbage";
  std::ofstream(store.slot_b()) << "dopf-checkpoint v1\ntruncated";
  EXPECT_THROW(store.load(), CheckpointError);
}

TEST(ResolveCheckpointTest, PrefersStoreSlotsOverPlainFile) {
  const std::string base = fresh_base("resolve.ckpt");
  save_checkpoint(small_checkpoint(5), base);
  EXPECT_EQ(resolve_checkpoint(base).checkpoint.iteration, 5);
  CheckpointStore store(base);
  store.save(small_checkpoint(40));
  EXPECT_EQ(resolve_checkpoint(base).checkpoint.iteration, 40);
}

}  // namespace
}  // namespace dopf::runtime

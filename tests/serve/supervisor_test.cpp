/// Unit tests for the worker-supervision layer: crash fault plan parsing
/// and ordinal matching, waitpid exit classification (against real forked
/// children dying each documented way), the poison-request quarantine
/// lifecycle, the supervisor-link payload codecs, and the WorkerSupervisor
/// spawn / exchange / crash-classify / restart / budget-degrade loop driven
/// through the in-process worker_entry test seam (plain fork, no exec).

#include "serve/supervisor.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <cstdlib>
#include <string>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

namespace dopf::serve {
namespace {

// ---------------------------------------------------------------------------
// Crash fault plan

TEST(CrashFaultPlanTest, ParsesSingleAndComposedSpecs) {
  const CrashFaultPlan one = CrashFaultPlan::parse("signal:request=2");
  ASSERT_EQ(one.events.size(), 1u);
  EXPECT_EQ(one.events[0].kind, CrashFailpoint::Kind::kSignal);
  EXPECT_EQ(one.events[0].request, 2);
  EXPECT_EQ(one.events[0].times, 1);

  const CrashFaultPlan plan =
      CrashFaultPlan::parse("exit:request=5,times=3;hang:request=7");
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0].kind, CrashFailpoint::Kind::kExit);
  EXPECT_EQ(plan.events[0].request, 5);
  EXPECT_EQ(plan.events[0].times, 3);
  EXPECT_EQ(plan.events[1].kind, CrashFailpoint::Kind::kHang);
  EXPECT_EQ(plan.events[1].request, 7);
  EXPECT_EQ(plan.events[1].times, 1);
}

TEST(CrashFaultPlanTest, ToStringRoundTrips) {
  const std::string spec = "signal:request=2;exit:request=5,times=3";
  const CrashFaultPlan plan = CrashFaultPlan::parse(spec);
  const CrashFaultPlan again =
      CrashFaultPlan::parse(dopf::runtime::spec_string(plan.events));
  ASSERT_EQ(again.events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(again.events[i].kind, plan.events[i].kind);
    EXPECT_EQ(again.events[i].request, plan.events[i].request);
    EXPECT_EQ(again.events[i].times, plan.events[i].times);
  }
}

TEST(CrashFaultPlanTest, RejectsMalformedSpecsTyped) {
  const char* bad[] = {
      "explode:request=1",           // unknown kind
      "signal",                      // no parameters
      "signal:request=0",            // ordinals are 1-based
      "signal:request=-3",           // negative ordinal
      "signal:request=1,times=0",    // zero repeat
      "signal:request=x",            // malformed integer
      "signal:bogus=1",              // unknown key
      "signal:request=1;signal:request=1",  // duplicate (kind, ordinal)
      "signal:request=1.5",          // fractional ordinal
      "signal:request=4294967297",   // ordinal beyond int
  };
  for (const char* spec : bad) {
    EXPECT_THROW(CrashFaultPlan::parse(spec), dopf::runtime::FaultError)
        << spec;
  }
}

TEST(CrashFaultInjectorTest, MatchesDispatchOrdinalsAndCounts) {
  CrashFaultInjector inj(
      CrashFaultPlan::parse("signal:request=2,times=2;exit:request=5"));
  EXPECT_EQ(inj.on_dispatch(), nullptr);  // ordinal 1
  const CrashFailpoint* fp2 = inj.on_dispatch();
  ASSERT_NE(fp2, nullptr);  // ordinal 2
  EXPECT_EQ(fp2->kind, CrashFailpoint::Kind::kSignal);
  ASSERT_NE(inj.on_dispatch(), nullptr);  // ordinal 3 (times=2)
  EXPECT_EQ(inj.on_dispatch(), nullptr);  // ordinal 4
  const CrashFailpoint* fp5 = inj.on_dispatch();
  ASSERT_NE(fp5, nullptr);  // ordinal 5
  EXPECT_EQ(fp5->kind, CrashFailpoint::Kind::kExit);
  EXPECT_EQ(inj.on_dispatch(), nullptr);  // ordinal 6

  const CrashFaultInjector::Counts c = inj.counts();
  EXPECT_EQ(c.signaled, 2);
  EXPECT_EQ(c.exited, 1);
  EXPECT_EQ(c.hung, 0);
}

TEST(CrashFaultInjectorTest, MaxTimesFiresOnEveryOrdinalFromRequestOnward) {
  // request + times exceeds INT_MAX: the window must stay open, without
  // overflow.
  CrashFaultInjector inj(
      CrashFaultPlan::parse("hang:request=2,times=2147483647"));
  EXPECT_EQ(inj.on_dispatch(), nullptr);  // ordinal 1
  for (int ordinal = 2; ordinal <= 5000; ++ordinal) {
    ASSERT_NE(inj.on_dispatch(), nullptr) << "ordinal " << ordinal;
  }
  EXPECT_EQ(inj.counts().hung, 4999);
}

// ---------------------------------------------------------------------------
// Exit classification, against children that really die each way

WorkerExit exit_of_child(void (*die)()) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    die();
    ::_exit(0);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return classify_worker_exit(status);
}

TEST(ClassifyWorkerExitTest, SignalDeathsClassifyWithTheSignalNumber) {
  struct Case {
    int sig;
    void (*die)();
  };
  const Case cases[] = {
      {SIGSEGV, +[] { std::signal(SIGSEGV, SIG_DFL); ::raise(SIGSEGV); }},
      {SIGABRT, +[] { std::signal(SIGABRT, SIG_DFL); std::abort(); }},
      {SIGFPE, +[] { std::signal(SIGFPE, SIG_DFL); ::raise(SIGFPE); }},
      {SIGKILL, +[] { ::raise(SIGKILL); }},
  };
  for (const Case& c : cases) {
    const WorkerExit e = exit_of_child(c.die);
    EXPECT_EQ(e.kind, WorkerExit::Kind::kSignal) << "signal " << c.sig;
    EXPECT_EQ(e.signal, c.sig);
    EXPECT_NE(e.to_string().find("killed by signal"), std::string::npos);
  }
}

TEST(ClassifyWorkerExitTest, ExitCodesClassifyCleanVersusNonZero) {
  const WorkerExit clean = exit_of_child(+[] { ::_exit(0); });
  EXPECT_EQ(clean.kind, WorkerExit::Kind::kClean);
  EXPECT_EQ(clean.to_string(), "clean exit");

  const WorkerExit three = exit_of_child(+[] { ::_exit(3); });
  EXPECT_EQ(three.kind, WorkerExit::Kind::kNonZero);
  EXPECT_EQ(three.code, 3);

  const WorkerExit exec_fail = exit_of_child(+[] { ::_exit(127); });
  EXPECT_EQ(exec_fail.kind, WorkerExit::Kind::kNonZero);
  EXPECT_EQ(exec_fail.code, 127);
}

// ---------------------------------------------------------------------------
// Quarantine

TEST(QuarantineTest, ArmsOnTheSecondCrashOnly) {
  Quarantine q(60000);
  EXPECT_EQ(q.record_crash(0xabc), 1);
  EXPECT_EQ(q.active_ms(0xabc), 0u);  // one crash: still admissible
  EXPECT_EQ(q.record_crash(0xabc), 2);
  EXPECT_GE(q.active_ms(0xabc), 1u);  // two crashes: quarantined
  EXPECT_EQ(q.total_quarantined(), 1u);
  // Unrelated content is unaffected.
  EXPECT_EQ(q.active_ms(0xdef), 0u);
}

TEST(QuarantineTest, TtlExpiryReadmitsWithACleanSlate) {
  Quarantine q(50);
  q.record_crash(7);
  q.record_crash(7);
  ASSERT_GE(q.active_ms(7), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  // Expired: admissible again...
  EXPECT_EQ(q.active_ms(7), 0u);
  // ...and the slate is clean — it takes two FRESH crashes to re-arm.
  EXPECT_EQ(q.record_crash(7), 1);
  EXPECT_EQ(q.active_ms(7), 0u);
  // total_quarantined counts arming events, not live entries.
  EXPECT_EQ(q.total_quarantined(), 1u);
}

// ---------------------------------------------------------------------------
// Supervisor-link payload codecs

TEST(SupervisorWireTest, CrashArmRoundTripsAndRejectsGarbage) {
  for (const auto kind : {CrashFailpoint::Kind::kSignal,
                          CrashFailpoint::Kind::kExit,
                          CrashFailpoint::Kind::kHang}) {
    CrashArm arm;
    arm.kind = kind;
    const CrashArm back = CrashArm::decode(arm.encode());
    EXPECT_EQ(back.kind, kind);
  }
  EXPECT_THROW(CrashArm::decode(""), WireError);
  EXPECT_THROW(CrashArm::decode(std::string(1, '\x00')), WireError);
  EXPECT_THROW(CrashArm::decode(std::string(1, '\x09')), WireError);
}

TEST(SupervisorWireTest, WorkerStatsRoundTripsEveryField) {
  WorkerStatsMsg msg;
  msg.session.solves = 3;
  msg.session.cold_solves = 1;
  msg.session.warm_solves = 2;
  msg.session.precompute_reuses = 2;
  msg.session.refactorizations = 1;
  msg.session.rhs_rebinds = 3;
  msg.io.writes = 5;
  msg.io.reads = 2;
  msg.io.retries = 1;
  msg.io.retry_seconds = 3e-3;
  msg.cache_hits = 10;
  msg.cache_misses = 4;
  msg.cache_evictions = 1;
  msg.cache_resident_bytes = 123456;
  msg.cache_entries = 3;
  msg.solved = 9;
  msg.io_failure = true;

  const WorkerStatsMsg back = WorkerStatsMsg::decode(msg.encode());
  EXPECT_EQ(back.session.solves, 3);
  EXPECT_EQ(back.session.cold_solves, 1);
  EXPECT_EQ(back.session.warm_solves, 2);
  EXPECT_EQ(back.session.precompute_reuses, 2);
  EXPECT_EQ(back.session.refactorizations, 1);
  EXPECT_EQ(back.session.rhs_rebinds, 3);
  EXPECT_EQ(back.io.writes, 5);
  EXPECT_EQ(back.io.reads, 2);
  EXPECT_EQ(back.io.retries, 1);
  EXPECT_DOUBLE_EQ(back.io.retry_seconds, 3e-3);
  EXPECT_EQ(back.cache_hits, 10u);
  EXPECT_EQ(back.cache_misses, 4u);
  EXPECT_EQ(back.cache_evictions, 1u);
  EXPECT_EQ(back.cache_resident_bytes, 123456u);
  EXPECT_EQ(back.cache_entries, 3u);
  EXPECT_EQ(back.solved, 9u);
  EXPECT_TRUE(back.io_failure);

  // Truncated farewell frames must reject typed, like every other payload.
  const std::string bytes = msg.encode();
  EXPECT_THROW(WorkerStatsMsg::decode(bytes.substr(0, bytes.size() / 2)),
               WireError);
}

// ---------------------------------------------------------------------------
// WorkerSupervisor, driven through the worker_entry fork seam

/// Scripted in-process worker: replies to pings, echoes solve requests as
/// kBadRequest rejects, dies on demand (feeder "die!" exits 41, feeder
/// "segv" raises SIGSEGV, an armed crash directive exits 41 on the next
/// request), and sends the farewell stats frame on EOF like the real
/// worker_main.
int scripted_worker(int fd) {
  bool armed = false;
  std::uint64_t served = 0;
  for (;;) {
    ReadOutcome out;
    try {
      out = read_frame_fd(fd, /*idle_timeout_ms=*/50);
    } catch (const WireError&) {
      return 3;
    }
    if (out.status == ReadOutcome::kEof) break;
    if (out.status == ReadOutcome::kIdle) continue;
    if (out.frame.op == Op::kCrashArm) {
      armed = true;
      continue;
    }
    if (out.frame.op == Op::kPing) {
      if (!write_all_fd(fd, encode_frame(Op::kPong, out.frame.payload))) {
        return 4;
      }
      continue;
    }
    if (out.frame.op == Op::kSolveRequest) {
      const SolveRequest req = SolveRequest::decode(out.frame.payload);
      if (armed || req.feeder == "die!") ::_exit(41);
      if (req.feeder == "segv") {
        std::signal(SIGSEGV, SIG_DFL);
        ::raise(SIGSEGV);
      }
      Reject rej;
      rej.request_id = req.request_id;
      rej.code = RejectCode::kBadRequest;
      rej.message = "echo:" + req.feeder;
      if (!write_all_fd(fd, encode_frame(Op::kReject, rej.encode()))) {
        return 4;
      }
      ++served;
      continue;
    }
    return 5;  // unexpected op
  }
  WorkerStatsMsg stats;
  stats.solved = served;
  write_all_fd(fd, encode_frame(Op::kWorkerStats, stats.encode()));
  return 0;
}

SupervisorOptions scripted_options() {
  SupervisorOptions opts;
  opts.worker_entry = scripted_worker;
  opts.restart_budget = 4;
  opts.backoff_base_ms = 1;  // unit tests should not sleep for real
  opts.backoff_max_ms = 4;
  opts.grace_ms = 2000;
  return opts;
}

std::string request_frame(const std::string& feeder, std::uint64_t id = 1) {
  SolveRequest req;
  req.request_id = id;
  req.feeder = feeder;
  return encode_frame(Op::kSolveRequest, req.encode());
}

TEST(WorkerSupervisorTest, ExchangesFramesAndCollectsFarewellStats) {
  WorkerSupervisor sup(0, scripted_options(), nullptr);

  const auto ex1 = sup.exchange(request_frame("builtin:ieee13", 7), nullptr);
  ASSERT_EQ(ex1.kind, WorkerSupervisor::Exchange::Kind::kFrame);
  ASSERT_EQ(ex1.frame.op, Op::kReject);
  const Reject rej = Reject::decode(ex1.frame.payload);
  EXPECT_EQ(rej.request_id, 7u);
  EXPECT_EQ(rej.message, "echo:builtin:ieee13");

  const auto ex2 =
      sup.exchange(encode_frame(Op::kPing, Ping{99}.encode()), nullptr);
  ASSERT_EQ(ex2.kind, WorkerSupervisor::Exchange::Kind::kFrame);
  EXPECT_EQ(ex2.frame.op, Op::kPong);

  const auto report = sup.shutdown();
  ASSERT_TRUE(report.have_stats);
  EXPECT_EQ(report.stats.solved, 1u);  // one echo; the ping doesn't count
  EXPECT_EQ(report.exit.kind, WorkerExit::Kind::kClean);
  EXPECT_EQ(sup.restarts(), 0);
}

TEST(WorkerSupervisorTest, ClassifiesNonZeroExitAndRestarts) {
  WorkerSupervisor sup(0, scripted_options(), nullptr);

  const auto crash = sup.exchange(request_frame("die!"), nullptr);
  ASSERT_EQ(crash.kind, WorkerSupervisor::Exchange::Kind::kWorkerExit);
  EXPECT_EQ(crash.exit.kind, WorkerExit::Kind::kNonZero);
  EXPECT_EQ(crash.exit.code, 41);

  // The next exchange transparently respawns a fresh worker.
  const auto ok = sup.exchange(request_frame("builtin:ieee13"), nullptr);
  ASSERT_EQ(ok.kind, WorkerSupervisor::Exchange::Kind::kFrame);
  EXPECT_EQ(sup.restarts(), 1);
  EXPECT_FALSE(sup.degraded());
  sup.shutdown();
}

TEST(WorkerSupervisorTest, ClassifiesSignalDeath) {
  WorkerSupervisor sup(0, scripted_options(), nullptr);
  const auto crash = sup.exchange(request_frame("segv"), nullptr);
  ASSERT_EQ(crash.kind, WorkerSupervisor::Exchange::Kind::kWorkerExit);
  EXPECT_EQ(crash.exit.kind, WorkerExit::Kind::kSignal);
  EXPECT_EQ(crash.exit.signal, SIGSEGV);
  sup.shutdown();
}

TEST(WorkerSupervisorTest, CrashArmDirectiveReachesTheWorker) {
  WorkerSupervisor sup(0, scripted_options(), nullptr);
  CrashFailpoint fp;
  fp.kind = CrashFailpoint::Kind::kExit;
  const auto crash = sup.exchange(request_frame("builtin:ieee13"), &fp);
  ASSERT_EQ(crash.kind, WorkerSupervisor::Exchange::Kind::kWorkerExit);
  EXPECT_EQ(crash.exit.kind, WorkerExit::Kind::kNonZero);
  EXPECT_EQ(crash.exit.code, 41);
  sup.shutdown();
}

TEST(WorkerSupervisorTest, RestartBudgetExhaustionDegrades) {
  SupervisorOptions opts = scripted_options();
  opts.restart_budget = 0;
  WorkerSupervisor sup(0, opts, nullptr);

  const auto crash = sup.exchange(request_frame("die!"), nullptr);
  ASSERT_EQ(crash.kind, WorkerSupervisor::Exchange::Kind::kWorkerExit);

  // Budget 0: the slot may not respawn; it reports degraded forever after.
  const auto after = sup.exchange(request_frame("builtin:ieee13"), nullptr);
  EXPECT_EQ(after.kind, WorkerSupervisor::Exchange::Kind::kDegraded);
  EXPECT_TRUE(sup.degraded());
  EXPECT_EQ(sup.restarts(), 0);
  sup.shutdown();
}

TEST(WorkerSupervisorTest, DrainTokenSuppressesRespawn) {
  dopf::core::CancelToken drain;
  WorkerSupervisor sup(0, scripted_options(), &drain);
  const auto ok = sup.exchange(request_frame("builtin:ieee13"), nullptr);
  ASSERT_EQ(ok.kind, WorkerSupervisor::Exchange::Kind::kFrame);

  drain.request("drain");
  const auto crash = sup.exchange(request_frame("die!"), nullptr);
  ASSERT_EQ(crash.kind, WorkerSupervisor::Exchange::Kind::kWorkerExit);
  // While draining, a dead worker is not worth restarting.
  const auto after = sup.exchange(request_frame("builtin:ieee13"), nullptr);
  EXPECT_EQ(after.kind, WorkerSupervisor::Exchange::Kind::kDegraded);
  sup.shutdown();
}

}  // namespace
}  // namespace dopf::serve

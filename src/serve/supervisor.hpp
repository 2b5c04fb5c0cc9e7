#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include <sys/types.h>

#include <chrono>
#include <mutex>

#include "core/cancel.hpp"
#include "core/solve_session.hpp"
#include "runtime/backoff.hpp"
#include "runtime/durable.hpp"
#include "runtime/fault.hpp"
#include "serve/cache.hpp"
#include "serve/socket_io.hpp"
#include "serve/wire.hpp"

namespace dopf::serve {

/// Process-isolated solve workers (DESIGN.md §10).
///
/// The server's dispatcher threads no longer solve in-process: each owns a
/// WorkerSupervisor that forks a worker subprocess and shuttles
/// SolveRequest/SolveResponse frames over a socketpair using the existing
/// wire codec. A worker that segfaults, aborts, or is OOM-killed takes down
/// one request's execution, never the server: the supervisor classifies the
/// exit, restarts the worker under a seeded jittered backoff with a bounded
/// restart budget, re-dispatches the victim request once, and quarantines
/// any request content that crashes workers twice (poison-pill circuit
/// breaker, typed kQuarantined reject with a TTL readmission hint).

// ---------------------------------------------------------------------------
// Worker exit classification

/// What waitpid() said about a worker that is gone.
struct WorkerExit {
  enum class Kind {
    kClean,    ///< exit(0)
    kNonZero,  ///< exit(N), N != 0 (includes a failed exec)
    kSignal,   ///< killed by a signal (SIGSEGV, SIGABRT, SIGKILL, ...)
  };
  Kind kind = Kind::kClean;
  int code = 0;    ///< exit status for kNonZero
  int signal = 0;  ///< terminating signal for kSignal

  /// "clean exit" / "exit code 3" / "killed by signal 11 (SIGSEGV)".
  std::string to_string() const;
};

/// Map a raw waitpid() status word onto a WorkerExit.
WorkerExit classify_worker_exit(int waitpid_status);

// ---------------------------------------------------------------------------
// Crash fault plane (the fourth plane, next to --faults / --serve-faults /
// --io-faults)

/// One scheduled worker crash, keyed by the 1-based global DISPATCH ordinal:
/// every hand-off of a request to a worker — including the re-dispatch of a
/// crash victim — consumes one ordinal, so a plan is deterministic for a
/// fixed request sequence regardless of timing.
struct CrashFailpoint {
  enum class Kind {
    kSignal,  ///< worker raises SIGSEGV at the start of the solve
    kExit,    ///< worker calls _exit(3) at the start of the solve
    kHang,    ///< worker blocks forever (caught by --hang-timeout-ms)
  };
  Kind kind = Kind::kSignal;
  int request = 1;  ///< first dispatch ordinal to crash on (1-based)
  int times = 1;    ///< crash on `times` consecutive ordinals

  std::string to_string() const;
};

/// A deterministic worker-crash schedule: a `--crash-faults` spec in the
/// grammar all fault flags share (crash row of the DESIGN.md §7 table).
/// Example — the second dispatch segfaults its worker and the fifth exits
/// uncleanly: "signal:request=2;exit:request=5". Malformed specs throw
/// runtime::FaultError.
struct CrashFaultPlan {
  std::vector<CrashFailpoint> events;

  bool empty() const { return events.empty(); }
  static CrashFaultPlan parse(const std::string& spec);
};

/// Query-side view of a CrashFaultPlan shared by all dispatcher threads:
/// an OrdinalSchedule whose windows count every dispatch, under one mutex,
/// so concurrent dispatchers observe a single deterministic ordinal
/// sequence per dispatch order.
class CrashFaultInjector {
 public:
  explicit CrashFaultInjector(CrashFaultPlan plan);

  struct Counts {
    int signaled = 0;
    int exited = 0;
    int hung = 0;
  };

  /// Register one dispatch; returns the failpoint to arm on the worker (the
  /// first match on this ordinal), or nullptr for a clean dispatch.
  const CrashFailpoint* on_dispatch();

  Counts counts() const;

 private:
  CrashFaultPlan plan_;
  dopf::runtime::OrdinalSchedule schedule_;
};

// ---------------------------------------------------------------------------
// Poison-request quarantine

/// Content-keyed crash circuit breaker. A request whose content_hash
/// crashes a worker twice is quarantined: further submissions of the same
/// content are rejected typed (kQuarantined) instead of being allowed to
/// take down worker after worker. After `ttl_ms` the entry is dropped and
/// the content is readmitted (it takes two fresh crashes to re-quarantine —
/// the crash may have been environmental, not the request's fault).
class Quarantine {
 public:
  explicit Quarantine(int ttl_ms) : ttl_ms_(ttl_ms) {}

  /// Record one worker crash attributed to `content_hash`; returns the
  /// accumulated crash count. The second crash arms the quarantine.
  int record_crash(std::uint64_t content_hash);

  /// Remaining quarantine TTL in milliseconds (>= 1) when `content_hash` is
  /// quarantined, 0 when admissible. An expired entry is erased here — the
  /// readmission path.
  std::uint32_t active_ms(std::uint64_t content_hash);

  /// How many distinct content hashes were ever quarantined (stats).
  std::uint64_t total_quarantined() const;

 private:
  struct Entry {
    int crashes = 0;
    bool armed = false;
    std::chrono::steady_clock::time_point until{};
  };
  int ttl_ms_;
  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::uint64_t total_ = 0;
};

// ---------------------------------------------------------------------------
// Supervisor-link payloads (Op::kCrashArm, Op::kWorkerStats)

/// parent -> worker: crash (drill) at the start of the next solve.
struct CrashArm {
  CrashFailpoint::Kind kind = CrashFailpoint::Kind::kSignal;

  std::string encode() const;
  static CrashArm decode(std::string_view payload);
};

/// worker -> parent: final stats report, sent once when the worker drains
/// (EOF on the supervisor link, or drain signal while idle) just before it
/// exits 0. The parent folds these into the ServerStats aggregate a crash
/// would otherwise lose silently.
struct WorkerStatsMsg {
  dopf::core::SessionStats session;
  dopf::runtime::IoStats io;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_resident_bytes = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t solved = 0;
  /// A durable checkpoint write/read failed in this worker (maps to the
  /// server's exit-code-7 contract).
  bool io_failure = false;

  std::string encode() const;
  static WorkerStatsMsg decode(std::string_view payload);
};

// ---------------------------------------------------------------------------
// Worker side

/// Everything a worker subprocess needs besides the socketpair fd. Built
/// from argv in --worker mode (tools/dopf_serve.cpp) or captured by the
/// in-process `worker_entry` closure in tests.
struct WorkerConfig {
  std::size_t cache_budget_bytes = 256u << 20;
  std::string checkpoint_dir;
  dopf::runtime::DurableOptions durable;  ///< `faults` pointer ignored
  dopf::runtime::FsFaultPlan fs_faults;   ///< injector built per worker
};

/// Worker subprocess main loop: read SolveRequest frames from `fd`, solve,
/// write SolveResponse/Reject frames back; honor Op::kCrashArm drills. On
/// EOF (parent closed its end) or a drain signal while idle, send one
/// Op::kWorkerStats frame and return. Returns 0, or 7 when a durable-I/O
/// failure occurred (belt to the stats frame's suspenders).
int worker_main(int fd, const WorkerConfig& config);

// ---------------------------------------------------------------------------
// Parent side

struct SupervisorOptions {
  /// argv prefix used to exec a worker subprocess; the supervisor appends
  /// "--worker-fd N". Typically {"/proc/self/exe", "--worker", ...config}.
  std::vector<std::string> worker_command;
  /// Test seam: run this in the forked child instead of exec'ing
  /// worker_command (plain fork, no exec — unit tests only).
  std::function<int(int fd)> worker_entry;
  /// Restarts allowed per worker slot before it degrades permanently.
  int restart_budget = 8;
  /// Seeded jittered exponential backoff between restarts (runtime::Backoff
  /// policy — the same engine the client and durable retries use), with a
  /// fixed jitter seed per slot.
  int backoff_base_ms = 50;
  int backoff_max_ms = 2000;
  /// SIGKILL a worker that takes longer than this to answer one dispatch;
  /// 0 disables (a legitimate solve can take arbitrarily long).
  int hang_timeout_ms = 0;
  /// How long shutdown() waits for the farewell stats frame / exit before
  /// escalating to SIGKILL.
  int grace_ms = 10000;
};

/// One worker slot: spawn, exchange, classify, restart. Owned and driven by
/// exactly one dispatcher thread; `signal_drain()` is the only cross-thread
/// entry point (it touches nothing but an atomic pid).
class WorkerSupervisor {
 public:
  /// `drain` (may be null) suppresses respawns once cancelled — a worker
  /// that dies during drain is not worth restarting.
  WorkerSupervisor(int slot, SupervisorOptions options,
                   const dopf::core::CancelToken* drain);
  ~WorkerSupervisor();
  WorkerSupervisor(const WorkerSupervisor&) = delete;
  WorkerSupervisor& operator=(const WorkerSupervisor&) = delete;

  /// Outcome of one request round-trip.
  struct Exchange {
    enum class Kind {
      kFrame,       ///< worker answered; `frame` is the reply to relay
      kWorkerExit,  ///< worker died before answering; `exit` says how
      kDegraded,    ///< no live worker and the restart budget is spent
    };
    Kind kind = Kind::kFrame;
    Frame frame;
    WorkerExit exit;
    bool hang_killed = false;  ///< kWorkerExit caused by the hang reaper
  };

  /// Send one encoded request frame (optionally preceded by a crash-arm
  /// directive) and wait for the worker's reply. Spawns or restarts the
  /// worker first if needed.
  Exchange exchange(const std::string& request_frame,
                    const CrashFailpoint* directive);

  /// Forward the drain signal (SIGTERM) to the live worker so its in-flight
  /// solve observes cancellation. Async-thread-safe; called from run()'s
  /// drain path while the dispatcher may be mid-exchange.
  void signal_drain();

  /// Final report collected by shutdown().
  struct ShutdownReport {
    bool have_stats = false;
    WorkerStatsMsg stats;
    WorkerExit exit;
  };

  /// Close the request direction, collect the worker's farewell stats
  /// frame, reap it (SIGKILL after `grace_ms`). Idempotent.
  ShutdownReport shutdown();

  bool degraded() const { return degraded_; }
  int restarts() const { return restarts_; }

 private:
  bool ensure_worker();
  bool try_spawn();
  /// Reap the worker after its fd went dead (blocking waitpid; optionally
  /// SIGKILL first). Records last_exit_.
  void reap(bool kill_first);
  bool draining() const;

  int slot_;
  SupervisorOptions opts_;
  const dopf::core::CancelToken* drain_;
  dopf::runtime::Backoff backoff_;
  Fd fd_;
  std::atomic<pid_t> pid_{-1};
  int spawns_ = 0;
  int spawn_failures_ = 0;
  int restarts_ = 0;
  bool degraded_ = false;
  bool shut_down_ = false;
  WorkerExit last_exit_;
  bool have_stats_ = false;
  WorkerStatsMsg stats_;
};

// ---------------------------------------------------------------------------
// Shared request plumbing (used by both the parent's dispatcher pre-checks
// and the worker's solve path)

/// Tagged wrapper so catch ladders can map a validation failure to
/// kBadRequest without stringly-typed matching.
class BadRequestError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Reject a structurally-decodable request with invalid content (empty
/// feeder, non-finite rho, bad preflight policy, ...). Throws
/// BadRequestError. Runs in the PARENT before dispatch — garbage never
/// reaches a worker — and again in the worker as defense in depth.
void validate_request(const SolveRequest& req);

}  // namespace dopf::serve

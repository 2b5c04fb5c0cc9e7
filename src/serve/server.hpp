#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "core/solve_session.hpp"
#include "runtime/durable.hpp"
#include "serve/cache.hpp"
#include "serve/fault.hpp"
#include "serve/supervisor.hpp"

namespace dopf::serve {

struct ServeOptions {
  std::string socket_path;
  /// Worker subprocess slots: each is one supervised solve subprocess
  /// driven by one dispatcher thread (DESIGN.md §10).
  int workers = 2;
  /// Bounded request-ring depth: admitted-but-unstarted requests. A full
  /// ring sheds with kOverloaded (never blocks the connection readers).
  std::size_t queue_depth = 16;
  /// Concurrent client connections cap: the accept loop sheds connection
  /// number N+1 with a typed kOverloaded reject instead of spawning
  /// unbounded reader threads.
  int max_connections = 64;
  /// Resident-memory budget for each worker's model cache (estimated
  /// bytes). Per subprocess — workers do not share cached models.
  std::size_t cache_budget_bytes = 256u << 20;
  /// Directory for drain checkpoints of in-flight solves; empty disables
  /// checkpointing (drained work is shed with kShuttingDown instead).
  std::string checkpoint_dir;
  /// Deterministic transport fault schedule (tests). Applied in the PARENT
  /// on every outgoing client frame — worker replies are relayed through
  /// it, so the schedule sees the same frame stream as the in-process
  /// server did.
  ServeFaultPlan faults;
  /// Deterministic worker-crash schedule (tests), keyed by dispatch
  /// ordinal. The directive travels to the worker as an Op::kCrashArm
  /// frame; the crash itself happens in the worker subprocess.
  CrashFaultPlan crash_faults;
  /// Durability options for drain checkpoints (forwarded to workers via
  /// worker_command in --worker mode, or via worker_entry's closure).
  dopf::runtime::DurableOptions durable;
  /// argv prefix used to exec one worker subprocess; the supervisor
  /// appends "--worker-fd N". Typically {"/proc/self/exe", "--worker",
  /// <config flags>}. Required unless worker_entry is set.
  std::vector<std::string> worker_command;
  /// Test seam: run this in the forked child instead of exec'ing
  /// worker_command.
  std::function<int(int fd)> worker_entry;
  /// Worker restarts allowed per slot before the slot degrades permanently
  /// (the server keeps serving on the remaining slots; with zero slots
  /// left it sheds everything typed, it never exits on a worker crash).
  int restart_budget = 8;
  /// SIGKILL a worker that takes longer than this to answer one dispatch;
  /// 0 disables (a legitimate solve can take arbitrarily long).
  int hang_timeout_ms = 0;
  /// How long a quarantined content_hash stays rejected before readmission.
  int quarantine_ttl_ms = 60000;
  /// External drain token; flipped by SIGTERM/SIGINT (see
  /// runtime/signals.hpp). Required.
  dopf::core::CancelToken* drain = nullptr;
};

struct ServerStats {
  std::uint64_t admitted = 0;
  std::uint64_t solved = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t rejected_preflight = 0;
  std::uint64_t rejected_bad_request = 0;
  std::uint64_t rejected_wire = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t rejected_quarantined = 0;
  /// Requests shed typed because every worker slot degraded.
  std::uint64_t rejected_degraded = 0;
  std::uint64_t drain_checkpointed = 0;
  std::uint64_t pings = 0;
  /// Worker supervision counters.
  std::uint64_t worker_crashes = 0;   ///< exchanges ended by a worker death
  std::uint64_t worker_restarts = 0;  ///< respawns after the initial spawn
  std::uint64_t workers_degraded = 0; ///< slots whose restart budget ran out
  std::uint64_t requeued = 0;         ///< crash victims re-dispatched
  std::uint64_t quarantined = 0;      ///< content hashes ever quarantined
  /// Aggregated session reuse counters across all worker subprocesses
  /// (same field vocabulary as dopf_solve --json "session"), collected
  /// from each worker's farewell stats frame.
  dopf::core::SessionStats session;
  /// Aggregated durable-I/O stats from worker drain checkpoint writes.
  dopf::runtime::IoStats io;
  /// Aggregated across worker subprocesses (each has its own cache).
  ModelCache::Stats cache;
  ServeFaultInjector::Counts faults;
  CrashFaultInjector::Counts crash_faults;
};

/// The long-lived solve server: admission control (preflight), a bounded
/// MPSC request ring, dispatcher threads feeding supervised worker
/// SUBPROCESSES over socketpairs (crash isolation: a segfaulting solve
/// never takes down the server), per-request deadlines, transport and
/// crash fault injection, poison-request quarantine, and graceful drain.
/// See DESIGN.md §10.
class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen on the socket. Throws WireError on failure (including
  /// a missing worker_command/worker_entry).
  void start();

  /// Serve until the drain token fires, then drain: stop admitting,
  /// forward SIGTERM to the workers (in-flight solves checkpoint durably,
  /// kDrained), shed queued-but-unstarted work (kShuttingDown), collect
  /// worker farewell stats, join everything. Returns the process exit
  /// code: 0 clean drain, 6 drained with checkpoints written, 7 durable
  /// I/O failure in a worker.
  int run();

  ServerStats stats() const;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace dopf::serve

#include "serve/server.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/queue.hpp"
#include "serve/socket_io.hpp"

namespace dopf::serve {
namespace {

/// One client connection: the fd plus a write mutex so a dispatcher's
/// relayed response and the reader's rejects interleave at frame
/// granularity, never byte granularity. Held by shared_ptr from the reader
/// thread and from every queued request, so the fd stays open until the
/// last response is written.
struct Connection {
  explicit Connection(Fd f) : fd(std::move(f)) {}
  Fd fd;
  std::mutex write_mu;
};

}  // namespace

struct QueuedRequest {
  SolveRequest req;
  std::shared_ptr<Connection> conn;
  /// Per-request token: deadline armed at admission, parent-linked to the
  /// drain token so one poll observes both.
  std::shared_ptr<dopf::core::CancelToken> token;
};

struct Server::Impl {
  ServeOptions opts;
  Fd listen_fd;
  ServeFaultInjector faults;
  CrashFaultInjector crash_faults;
  Quarantine quarantine;
  BoundedMpscRing<QueuedRequest> ring;
  std::atomic<int> inflight{0};
  std::atomic<int> live_dispatchers{0};

  mutable std::mutex stats_mu;
  ServerStats stats_snapshot;  // counters only; faults filled on read
  bool io_failure = false;

  // Connection reader threads, keyed so finished ones can be reaped by the
  // accept loop instead of accumulating for the whole server lifetime.
  std::mutex threads_mu;
  std::unordered_map<std::uint64_t, std::thread> conn_threads;
  std::vector<std::uint64_t> finished_conns;
  std::uint64_t next_conn_id = 0;
  std::vector<std::thread> dispatchers;

  // Live supervisors, registered by their dispatcher threads so run()'s
  // drain path can forward SIGTERM to every worker subprocess.
  std::mutex sup_mu;
  std::vector<WorkerSupervisor*> supervisors;

  explicit Impl(ServeOptions o)
      : opts(std::move(o)),
        faults(opts.faults),
        crash_faults(opts.crash_faults),
        quarantine(opts.quarantine_ttl_ms),
        ring(opts.queue_depth) {}

  bool draining() const { return opts.drain->cancelled(); }

  template <typename Fn>
  void bump(Fn&& fn) {
    std::lock_guard<std::mutex> lock(stats_mu);
    fn(stats_snapshot);
  }

  /// Every outgoing frame funnels through here: the fault injector sees
  /// one deterministic sent-frame ordering, and the per-connection write
  /// mutex keeps frames atomic on the stream.
  void send_frame(Connection& conn, Op op, const std::string& payload) {
    std::string frame = encode_frame(op, payload);
    bool close_after = false;
    if (const ServeFailpoint* fp = faults.on_send(op)) {
      if (fp->kind == ServeFailpoint::Kind::kDelay) {
        std::this_thread::sleep_for(std::chrono::milliseconds(fp->delay_ms));
      }
      if (!apply_failpoint(*fp, &frame, &close_after)) return;  // dropped
    }
    std::lock_guard<std::mutex> lock(conn.write_mu);
    (void)write_all_fd(conn.fd.get(), frame);
    if (close_after) ::shutdown(conn.fd.get(), SHUT_RDWR);
  }

  void send_reject(Connection& conn, std::uint64_t request_id, RejectCode code,
                   std::uint32_t retry_after_ms, const std::string& message) {
    Reject r;
    r.request_id = request_id;
    r.code = code;
    r.retry_after_ms = retry_after_ms;
    r.message = message;
    send_frame(conn, Op::kReject, r.encode());
  }

  void admit(const std::shared_ptr<Connection>& conn, SolveRequest req) {
    const std::uint64_t id = req.request_id;
    if (draining() || ring.closed()) {
      bump([](ServerStats& s) { ++s.rejected_shutdown; });
      send_reject(*conn, id, RejectCode::kShuttingDown, 0,
                  "server is draining; request not admitted");
      return;
    }
    if (live_dispatchers.load(std::memory_order_acquire) == 0) {
      // Every worker slot spent its restart budget: nothing will ever
      // consume the ring again. Shed typed — the server stays up.
      bump([](ServerStats& s) { ++s.rejected_degraded; });
      send_reject(*conn, id, RejectCode::kInternal, 0,
                  "all solve workers degraded; restart budget exhausted");
      return;
    }
    QueuedRequest qr;
    qr.token = std::make_shared<dopf::core::CancelToken>();
    qr.token->link_parent(opts.drain);
    if (req.deadline_ms > 0) {
      // Armed at ADMISSION: queue wait counts against the deadline.
      qr.token->set_deadline_after(req.deadline_ms / 1000.0);
    }
    qr.req = std::move(req);
    qr.conn = conn;
    if (!ring.try_push(std::move(qr))) {
      if (ring.closed()) {
        bump([](ServerStats& s) { ++s.rejected_shutdown; });
        send_reject(*conn, id, RejectCode::kShuttingDown, 0,
                    "server is draining; request not admitted");
        return;
      }
      // SHED, never block: the bounded ring is full. The hint scales with
      // how much work is ahead of the client.
      const auto backlog =
          static_cast<std::uint32_t>(ring.size()) +
          static_cast<std::uint32_t>(inflight.load(std::memory_order_relaxed));
      bump([](ServerStats& s) { ++s.rejected_overload; });
      send_reject(*conn, id, RejectCode::kOverloaded, 25 * (1 + backlog),
                  "request ring full (" + std::to_string(ring.capacity()) +
                      " queued); retry after the hint");
      return;
    }
    bump([](ServerStats& s) { ++s.admitted; });
  }

  void reader_loop(std::shared_ptr<Connection> conn) {
    while (!draining()) {
      ReadOutcome out;
      try {
        out = read_frame_fd(conn->fd.get(), /*idle_timeout_ms=*/200);
      } catch (const WireError& e) {
        // Torn or corrupted frame: the byte stream is desynchronized, so
        // a typed reject (unattributable id) is all we can say before
        // closing. The client reconnects and retries.
        bump([](ServerStats& s) { ++s.rejected_wire; });
        send_reject(*conn, 0, RejectCode::kWire, 0, e.what());
        ::shutdown(conn->fd.get(), SHUT_RDWR);
        return;
      }
      if (out.status == ReadOutcome::kIdle) continue;
      if (out.status == ReadOutcome::kEof) return;

      switch (out.frame.op) {
        case Op::kPing: {
          Ping ping;
          try {
            ping = Ping::decode(out.frame.payload);
          } catch (const WireError& e) {
            bump([](ServerStats& s) { ++s.rejected_wire; });
            send_reject(*conn, 0, RejectCode::kWire, 0, e.what());
            break;
          }
          bump([](ServerStats& s) { ++s.pings; });
          send_frame(*conn, Op::kPong, ping.encode());
          break;
        }
        case Op::kSolveRequest: {
          SolveRequest req;
          try {
            req = SolveRequest::decode(out.frame.payload);
          } catch (const WireError& e) {
            // CRC was fine, so the framing is still in sync — reject the
            // payload, keep the connection.
            bump([](ServerStats& s) { ++s.rejected_wire; });
            send_reject(*conn, 0, RejectCode::kWire, 0, e.what());
            break;
          }
          admit(conn, std::move(req));
          break;
        }
        default:
          // Includes the supervisor-link ops (kCrashArm, kWorkerStats): a
          // client has no business sending those.
          bump([](ServerStats& s) { ++s.rejected_bad_request; });
          send_reject(*conn, 0, RejectCode::kBadRequest, 0,
                      std::string("unexpected frame kind from client: ") +
                          to_string(out.frame.op));
          break;
      }
    }
  }

  /// Relay a worker's reply frame to the client, bumping the counter the
  /// in-process server used to bump when it produced the frame itself.
  void relay(Connection& conn, const Frame& frame) {
    if (frame.op == Op::kSolveResponse) {
      bump([](ServerStats& s) { ++s.solved; });
    } else if (frame.op == Op::kReject) {
      try {
        const Reject rej = Reject::decode(frame.payload);
        bump([&rej](ServerStats& s) {
          switch (rej.code) {
            case RejectCode::kDeadline: ++s.rejected_deadline; break;
            case RejectCode::kPreflight: ++s.rejected_preflight; break;
            case RejectCode::kDrained: ++s.drain_checkpointed; break;
            case RejectCode::kShuttingDown: ++s.rejected_shutdown; break;
            case RejectCode::kBadRequest:
            case RejectCode::kInternal:
            default: ++s.rejected_bad_request; break;
          }
        });
      } catch (const WireError&) {
        // Undecodable worker reject: still relay the bytes; the client's
        // decoder is the authority.
      }
    }
    send_frame(conn, frame.op, frame.payload);
  }

  /// Drive one queued request through a worker subprocess: pre-checks in
  /// the parent (deadline, drain, validation, quarantine), then up to two
  /// dispatch attempts — a crash victim is re-queued exactly once, and a
  /// second crash quarantines the content hash.
  void dispatch(WorkerSupervisor& sup, QueuedRequest qr) {
    Connection& conn = *qr.conn;
    const std::uint64_t id = qr.req.request_id;
    if (qr.token->deadline_exceeded()) {
      bump([](ServerStats& s) { ++s.rejected_deadline; });
      send_reject(conn, id, RejectCode::kDeadline, 0,
                  "deadline expired while queued");
      return;
    }
    if (draining()) {
      bump([](ServerStats& s) { ++s.rejected_shutdown; });
      send_reject(conn, id, RejectCode::kShuttingDown, 0,
                  "server draining; queued request shed before starting");
      return;
    }
    try {
      validate_request(qr.req);
    } catch (const BadRequestError& e) {
      bump([](ServerStats& s) { ++s.rejected_bad_request; });
      send_reject(conn, id, RejectCode::kBadRequest, 0, e.what());
      return;
    }
    const std::uint64_t hash = qr.req.content_hash();
    if (const std::uint32_t ttl = quarantine.active_ms(hash)) {
      bump([](ServerStats& s) { ++s.rejected_quarantined; });
      send_reject(conn, id, RejectCode::kQuarantined, ttl,
                  "request quarantined: identical content crashed solve "
                  "workers twice; readmitted in " +
                      std::to_string(ttl) + " ms");
      return;
    }

    for (int attempt = 0; attempt < 2; ++attempt) {
      // Rewrite the relative deadline to the time REMAINING: the worker
      // arms a fresh token, and the queue wait (plus any first crashed
      // attempt) must stay charged against the request's budget.
      SolveRequest req = qr.req;
      if (req.deadline_ms > 0) {
        const double rem = qr.token->deadline_remaining_seconds();
        req.deadline_ms =
            rem <= 1e-3 ? 1u : static_cast<std::uint32_t>(rem * 1000.0);
      }
      const CrashFailpoint* fp = crash_faults.on_dispatch();
      const std::string frame = encode_frame(Op::kSolveRequest, req.encode());

      auto ex = sup.exchange(frame, fp);
      switch (ex.kind) {
        case WorkerSupervisor::Exchange::Kind::kFrame:
          relay(conn, ex.frame);
          return;
        case WorkerSupervisor::Exchange::Kind::kDegraded:
          if (draining()) {
            bump([](ServerStats& s) { ++s.rejected_shutdown; });
            send_reject(conn, id, RejectCode::kShuttingDown, 0,
                        "server draining; queued request shed before "
                        "starting");
          } else {
            bump([](ServerStats& s) { ++s.rejected_degraded; });
            send_reject(conn, id, RejectCode::kInternal, 0,
                        "solve worker unavailable; restart budget exhausted");
          }
          return;
        case WorkerSupervisor::Exchange::Kind::kWorkerExit: {
          if (draining() && ex.exit.kind == WorkerExit::Kind::kClean) {
            // The worker drained out from under the exchange — an orderly
            // exit, not a crash.
            bump([](ServerStats& s) { ++s.rejected_shutdown; });
            send_reject(conn, id, RejectCode::kShuttingDown, 0,
                        "worker drained before answering; resubmit");
            return;
          }
          bump([](ServerStats& s) { ++s.worker_crashes; });
          const int crashes = quarantine.record_crash(hash);
          if (crashes >= 2) {
            const std::uint32_t ttl = quarantine.active_ms(hash);
            bump([](ServerStats& s) { ++s.rejected_quarantined; });
            send_reject(conn, id, RejectCode::kQuarantined, ttl,
                        "request quarantined after " +
                            std::to_string(crashes) +
                            " worker crashes (last: " + ex.exit.to_string() +
                            "); readmitted in " + std::to_string(ttl) + " ms");
            return;
          }
          // Re-queue the victim exactly once: the crash may have been the
          // worker's fault (heap corruption from an earlier request, an
          // OOM kill), not this request's.
          bump([](ServerStats& s) { ++s.requeued; });
          continue;
        }
      }
    }
    // Both attempts crashed — unreachable in practice because the second
    // crash trips the >= 2 quarantine branch above, but a typed reply must
    // exist on every path.
    bump([](ServerStats& s) { ++s.rejected_bad_request; });
    send_reject(conn, id, RejectCode::kInternal, 0,
                "request failed twice on crashing workers");
  }

  /// Fold one worker's farewell stats (and its supervisor's restart
  /// bookkeeping) into the server aggregate.
  void absorb(const WorkerSupervisor& sup,
              const WorkerSupervisor::ShutdownReport& rep) {
    std::lock_guard<std::mutex> lock(stats_mu);
    stats_snapshot.worker_restarts +=
        static_cast<std::uint64_t>(sup.restarts());
    if (sup.degraded()) ++stats_snapshot.workers_degraded;
    if (rep.have_stats) {
      const WorkerStatsMsg& m = rep.stats;
      stats_snapshot.session.solves += m.session.solves;
      stats_snapshot.session.cold_solves += m.session.cold_solves;
      stats_snapshot.session.warm_solves += m.session.warm_solves;
      stats_snapshot.session.precompute_reuses += m.session.precompute_reuses;
      stats_snapshot.session.refactorizations += m.session.refactorizations;
      stats_snapshot.session.rhs_rebinds += m.session.rhs_rebinds;
      stats_snapshot.io += m.io;
      stats_snapshot.cache.hits += m.cache_hits;
      stats_snapshot.cache.misses += m.cache_misses;
      stats_snapshot.cache.evictions += m.cache_evictions;
      stats_snapshot.cache.resident_bytes +=
          static_cast<std::size_t>(m.cache_resident_bytes);
      stats_snapshot.cache.entries += static_cast<std::size_t>(m.cache_entries);
      if (m.io_failure) io_failure = true;
    } else if (rep.exit.kind == WorkerExit::Kind::kNonZero &&
               rep.exit.code == 7) {
      // Farewell frame lost but the worker pinned its exit code: a durable
      // I/O failure must still surface as exit 7.
      io_failure = true;
    }
  }

  SupervisorOptions supervisor_options(int slot) const {
    SupervisorOptions so;
    so.worker_command = opts.worker_command;
    so.worker_entry = opts.worker_entry;
    so.restart_budget = opts.restart_budget;
    so.hang_timeout_ms = opts.hang_timeout_ms;
    (void)slot;  // the slot index seeds the backoff inside WorkerSupervisor
    return so;
  }

  void dispatch_loop(int slot) {
    WorkerSupervisor sup(slot, supervisor_options(slot), opts.drain);
    {
      std::lock_guard<std::mutex> lock(sup_mu);
      supervisors.push_back(&sup);
    }
    while (auto item = ring.pop()) {
      inflight.fetch_add(1, std::memory_order_relaxed);
      dispatch(sup, std::move(*item));
      inflight.fetch_sub(1, std::memory_order_relaxed);
      if (sup.degraded()) break;  // this slot is done; others keep serving
    }
    const auto rep = sup.shutdown();
    absorb(sup, rep);
    {
      std::lock_guard<std::mutex> lock(sup_mu);
      for (auto it = supervisors.begin(); it != supervisors.end(); ++it) {
        if (*it == &sup) {
          supervisors.erase(it);
          break;
        }
      }
    }
    if (live_dispatchers.fetch_sub(1, std::memory_order_acq_rel) == 1 &&
        !draining()) {
      // Last slot degraded with the server still up: nothing will consume
      // the ring again, so shed what is queued typed (admit() sheds new
      // arrivals from here on).
      while (auto leftover = ring.try_pop()) {
        bump([](ServerStats& s) { ++s.rejected_degraded; });
        send_reject(*leftover->conn, leftover->req.request_id,
                    RejectCode::kInternal, 0,
                    "all solve workers degraded; restart budget exhausted");
      }
    }
  }

  /// Join reader threads that have announced completion (under threads_mu).
  void reap_finished_conns_locked() {
    for (const std::uint64_t cid : finished_conns) {
      auto it = conn_threads.find(cid);
      if (it == conn_threads.end()) continue;
      it->second.join();
      conn_threads.erase(it);
    }
    finished_conns.clear();
  }
};

Server::Server(ServeOptions options) : impl_(new Impl(std::move(options))) {}

Server::~Server() { delete impl_; }

void Server::start() {
  if (impl_->opts.drain == nullptr) {
    throw WireError("ServeOptions.drain token is required");
  }
  if (impl_->opts.worker_command.empty() &&
      impl_->opts.worker_entry == nullptr) {
    throw WireError(
        "ServeOptions.worker_command (or worker_entry) is required: solves "
        "run in supervised worker subprocesses");
  }
  impl_->listen_fd = listen_unix(impl_->opts.socket_path, /*backlog=*/64);
  // Worker subprocesses must not inherit the listening socket: a worker
  // holding a copy would keep the socket alive past the parent's drain.
  ::fcntl(impl_->listen_fd.get(), F_SETFD, FD_CLOEXEC);
}

int Server::run() {
  Impl& im = *impl_;
  const int nworkers = im.opts.workers < 1 ? 1 : im.opts.workers;
  im.live_dispatchers.store(nworkers, std::memory_order_release);
  for (int i = 0; i < nworkers; ++i) {
    im.dispatchers.emplace_back([&im, i] { im.dispatch_loop(i); });
  }

  while (!im.draining()) {
    struct pollfd pfd;
    pfd.fd = im.listen_fd.get();
    pfd.events = POLLIN;
    pfd.revents = 0;
    const int rc = ::poll(&pfd, 1, 200);
    if (rc < 0) {
      if (errno == EINTR) continue;  // drain signal; loop re-checks
      break;
    }
    if (rc == 0 || (pfd.revents & POLLIN) == 0) continue;
    const int cfd = ::accept(im.listen_fd.get(), nullptr, nullptr);
    if (cfd < 0) continue;
    ::fcntl(cfd, F_SETFD, FD_CLOEXEC);  // not for worker subprocesses

    std::lock_guard<std::mutex> lock(im.threads_mu);
    im.reap_finished_conns_locked();
    if (static_cast<int>(im.conn_threads.size()) >= im.opts.max_connections) {
      // Connection cap: shed typed instead of spawning reader thread
      // N+1. The Connection destructor closes the fd after the reject.
      Connection shed{Fd(cfd)};
      im.bump([](ServerStats& s) { ++s.rejected_overload; });
      im.send_reject(shed, 0, RejectCode::kOverloaded, 100,
                     "connection limit (" +
                         std::to_string(im.opts.max_connections) +
                         ") reached; retry after the hint");
      continue;
    }
    const std::uint64_t cid = im.next_conn_id++;
    auto conn = std::make_shared<Connection>(Fd(cfd));
    im.conn_threads.emplace(cid, std::thread([&im, conn, cid] {
                              im.reader_loop(conn);
                              std::lock_guard<std::mutex> l(im.threads_mu);
                              im.finished_conns.push_back(cid);
                            }));
  }

  // Drain: stop listening, forward the signal to every worker subprocess
  // (in-flight solves observe it and checkpoint), close the ring
  // (dispatchers shed what is queued, typed), then collect farewells.
  im.listen_fd.reset();
  {
    std::lock_guard<std::mutex> lock(im.sup_mu);
    for (WorkerSupervisor* sup : im.supervisors) sup->signal_drain();
  }
  im.ring.close();
  for (auto& th : im.dispatchers) th.join();
  // Anything still queued (possible only when every slot degraded early):
  // shed typed rather than drop silently.
  while (auto leftover = im.ring.try_pop()) {
    im.bump([](ServerStats& s) { ++s.rejected_shutdown; });
    im.send_reject(*leftover->conn, leftover->req.request_id,
                   RejectCode::kShuttingDown, 0,
                   "server is draining; request not admitted");
  }
  {
    // Move the readers out, THEN join without the lock: a reader's last act
    // is to take threads_mu and announce completion, so joining while
    // holding it deadlocks against any reader between its loop returning
    // and that announcement.
    std::unordered_map<std::uint64_t, std::thread> readers;
    {
      std::lock_guard<std::mutex> lock(im.threads_mu);
      readers.swap(im.conn_threads);
      im.finished_conns.clear();
    }
    for (auto& kv : readers) kv.second.join();
  }
  ::unlink(im.opts.socket_path.c_str());

  std::lock_guard<std::mutex> lock(im.stats_mu);
  if (im.io_failure) return 7;
  return im.stats_snapshot.drain_checkpointed > 0 ? 6 : 0;
}

ServerStats Server::stats() const {
  Impl& im = *impl_;
  ServerStats out;
  {
    std::lock_guard<std::mutex> lock(im.stats_mu);
    out = im.stats_snapshot;
  }
  out.quarantined = im.quarantine.total_quarantined();
  out.faults = im.faults.counts();
  out.crash_faults = im.crash_faults.counts();
  return out;
}

}  // namespace dopf::serve

#include "serve/supervisor.hpp"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/admm.hpp"
#include "feeders/feeder_io.hpp"
#include "robust/preflight.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/instances.hpp"
#include "runtime/scenario.hpp"
#include "runtime/signals.hpp"
#include "verify/codec.hpp"

namespace dopf::serve {
namespace {

using dopf::runtime::SpecEntry;

constexpr const char* kCrashKeys[] = {"request", "times"};
constexpr dopf::runtime::SpecKind kCrashKinds[] = {
    {"signal", kCrashKeys}, {"exit", kCrashKeys}, {"hang", kCrashKeys}};
constexpr const char* kCrashRequired[] = {"request"};
constexpr dopf::runtime::SpecGrammar kCrashGrammar{
    "crash fault spec", kCrashKinds, kCrashRequired,
    "kind and request ordinal"};

/// Parse the request's scenario override lines (runtime/scenario.hpp
/// grammar, one override per line, '#' comments allowed). Throws
/// ScenarioError with line provenance.
dopf::runtime::Scenario parse_request_scenario(const std::string& text) {
  dopf::runtime::Scenario sc;
  sc.name = "request";
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::vector<std::string> tokens;
    std::string tok;
    while (ls >> tok) {
      if (tok[0] == '#') break;
      tokens.push_back(tok);
    }
    if (tokens.empty()) continue;
    const auto ov = dopf::runtime::parse_scenario_override(tokens, line_no);
    dopf::runtime::reject_duplicate_override(sc.overrides, ov,
                                             "request scenario");
    sc.overrides.push_back(ov);
  }
  return sc;
}

}  // namespace

// ---------------------------------------------------------------------------
// Worker exit classification

std::string WorkerExit::to_string() const {
  switch (kind) {
    case Kind::kClean:
      return "clean exit";
    case Kind::kNonZero:
      return "exit code " + std::to_string(code);
    case Kind::kSignal: {
      std::string name = "signal " + std::to_string(signal);
      const char* abbrev = ::strsignal(signal);
      if (abbrev != nullptr) name += std::string(" (") + abbrev + ")";
      return "killed by " + name;
    }
  }
  return "unknown exit";
}

WorkerExit classify_worker_exit(int waitpid_status) {
  WorkerExit e;
  if (WIFSIGNALED(waitpid_status)) {
    e.kind = WorkerExit::Kind::kSignal;
    e.signal = WTERMSIG(waitpid_status);
    return e;
  }
  if (WIFEXITED(waitpid_status)) {
    e.code = WEXITSTATUS(waitpid_status);
    e.kind = e.code == 0 ? WorkerExit::Kind::kClean : WorkerExit::Kind::kNonZero;
    return e;
  }
  // Stopped/continued should never reach here (no WUNTRACED); treat as a
  // signal death so the supervisor restarts rather than wedges.
  e.kind = WorkerExit::Kind::kSignal;
  e.signal = 0;
  return e;
}

// ---------------------------------------------------------------------------
// Crash fault plane

std::string CrashFailpoint::to_string() const {
  std::ostringstream out;
  out << kCrashKinds[static_cast<int>(kind)].name << ":request=" << request;
  if (times != 1) out << ",times=" << times;
  return out.str();
}

CrashFaultPlan CrashFaultPlan::parse(const std::string& spec) {
  const auto build = [](const SpecEntry& e) {
    CrashFailpoint ev;
    ev.kind = static_cast<CrashFailpoint::Kind>(e.kind());
    ev.request = e.integer("request", 1);
    ev.times = e.integer("times", 1);
    return ev;
  };
  return {dopf::runtime::parse_spec(
      spec, kCrashGrammar, build,
      [](const CrashFailpoint& a, const CrashFailpoint& b) {
        return a.kind == b.kind && a.request == b.request;
      })};
}

CrashFaultInjector::CrashFaultInjector(CrashFaultPlan plan)
    : plan_(std::move(plan)), schedule_(std::size(kCrashKinds)) {
  for (const CrashFailpoint& ev : plan_.events) {
    schedule_.add(ev.request, ev.times, static_cast<int>(ev.kind));
  }
}

const CrashFailpoint* CrashFaultInjector::on_dispatch() {
  // Every dispatch counts for every window: one global dispatch ordinal.
  const int hit = schedule_.advance([](std::size_t) { return true; });
  return hit < 0 ? nullptr : &plan_.events[static_cast<std::size_t>(hit)];
}

CrashFaultInjector::Counts CrashFaultInjector::counts() const {
  using Kind = CrashFailpoint::Kind;
  auto fired = [&](Kind k) { return schedule_.fired(static_cast<int>(k)); };
  return {fired(Kind::kSignal), fired(Kind::kExit), fired(Kind::kHang)};
}

// ---------------------------------------------------------------------------
// Poison-request quarantine

int Quarantine::record_crash(std::uint64_t content_hash) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[content_hash];
  if (e.armed && std::chrono::steady_clock::now() >= e.until) {
    // Expired while quarantined: readmitted — start a fresh count.
    e = Entry{};
  }
  ++e.crashes;
  if (e.crashes >= 2 && !e.armed) {
    e.armed = true;
    e.until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ttl_ms_);
    ++total_;
  }
  return e.crashes;
}

std::uint32_t Quarantine::active_ms(std::uint64_t content_hash) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(content_hash);
  if (it == entries_.end() || !it->second.armed) return 0;
  const auto now = std::chrono::steady_clock::now();
  if (now >= it->second.until) {
    // TTL expired: drop the entry entirely. Readmission means the content
    // gets a clean slate (two fresh crashes to re-quarantine).
    entries_.erase(it);
    return 0;
  }
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        it->second.until - now)
                        .count();
  return left < 1 ? 1u : static_cast<std::uint32_t>(left);
}

std::uint64_t Quarantine::total_quarantined() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

// ---------------------------------------------------------------------------
// Supervisor-link payloads

std::string CrashArm::encode() const {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(kind) + 1);
  return w.take();
}

CrashArm CrashArm::decode(std::string_view payload) {
  WireReader r(payload);
  const std::uint8_t k = r.u8("crash_kind");
  if (k < 1 || k > 3) {
    throw WireError("unknown crash-arm kind " + std::to_string(k));
  }
  r.done("crash-arm payload");
  CrashArm arm;
  arm.kind = static_cast<CrashFailpoint::Kind>(k - 1);
  return arm;
}

std::string WorkerStatsMsg::encode() const {
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(session.solves));
  w.u32(static_cast<std::uint32_t>(session.cold_solves));
  w.u32(static_cast<std::uint32_t>(session.warm_solves));
  w.u32(static_cast<std::uint32_t>(session.precompute_reuses));
  w.u32(static_cast<std::uint32_t>(session.refactorizations));
  w.u32(static_cast<std::uint32_t>(session.rhs_rebinds));
  w.u32(static_cast<std::uint32_t>(io.writes));
  w.u32(static_cast<std::uint32_t>(io.reads));
  w.u32(static_cast<std::uint32_t>(io.retries));
  w.f64(io.retry_seconds);
  w.u64(cache_hits);
  w.u64(cache_misses);
  w.u64(cache_evictions);
  w.u64(cache_resident_bytes);
  w.u64(cache_entries);
  w.u64(solved);
  w.u8(io_failure ? 1 : 0);
  return w.take();
}

WorkerStatsMsg WorkerStatsMsg::decode(std::string_view payload) {
  WireReader r(payload);
  WorkerStatsMsg m;
  m.session.solves = static_cast<int>(r.u32("solves"));
  m.session.cold_solves = static_cast<int>(r.u32("cold_solves"));
  m.session.warm_solves = static_cast<int>(r.u32("warm_solves"));
  m.session.precompute_reuses = static_cast<int>(r.u32("precompute_reuses"));
  m.session.refactorizations = static_cast<int>(r.u32("refactorizations"));
  m.session.rhs_rebinds = static_cast<int>(r.u32("rhs_rebinds"));
  m.io.writes = static_cast<int>(r.u32("io_writes"));
  m.io.reads = static_cast<int>(r.u32("io_reads"));
  m.io.retries = static_cast<int>(r.u32("io_retries"));
  m.io.retry_seconds = r.f64("io_retry_seconds");
  m.cache_hits = r.u64("cache_hits");
  m.cache_misses = r.u64("cache_misses");
  m.cache_evictions = r.u64("cache_evictions");
  m.cache_resident_bytes = r.u64("cache_resident_bytes");
  m.cache_entries = r.u64("cache_entries");
  m.solved = r.u64("solved");
  m.io_failure = r.u8("io_failure") != 0;
  r.done("worker-stats payload");
  return m;
}

// ---------------------------------------------------------------------------
// Shared request validation

void validate_request(const SolveRequest& req) {
  if (req.feeder.empty()) throw BadRequestError("empty feeder reference");
  if (!dopf::core::admissible_parameter(req.rho)) {
    throw BadRequestError("rho must be finite and > 0");
  }
  if (!dopf::core::admissible_parameter(req.eps_rel)) {
    throw BadRequestError("eps_rel must be finite and > 0");
  }
  if (req.max_iterations < 1) {
    throw BadRequestError("max_iterations must be >= 1");
  }
  if (req.check_every < 1) throw BadRequestError("check_every must be >= 1");
  try {
    (void)dopf::robust::parse_mode(req.preflight);
  } catch (const std::invalid_argument& e) {
    throw BadRequestError(std::string("bad preflight policy: ") + e.what());
  }
}

// ---------------------------------------------------------------------------
// Worker side

namespace {

/// The worker's solve engine: the PR 9 in-process handle_request path moved
/// verbatim behind the process boundary. One per worker subprocess, with
/// its own model cache and durable-I/O injector; produces exactly one reply
/// frame (response or typed reject) per request.
class RequestProcessor {
 public:
  RequestProcessor(const WorkerConfig& cfg, dopf::core::CancelToken* drain)
      : cfg_(cfg),
        drain_(drain),
        cache_(cfg.cache_budget_bytes),
        fs_faults_(cfg.fs_faults) {
    durable_ = cfg.durable;
    durable_.faults = fs_faults_.empty() ? nullptr : &fs_faults_;
  }

  std::pair<Op, std::string> process(const SolveRequest& req);

  WorkerStatsMsg stats() const {
    WorkerStatsMsg m;
    m.session = session_;
    m.io = io_;
    const auto c = cache_.stats();
    m.cache_hits = c.hits;
    m.cache_misses = c.misses;
    m.cache_evictions = c.evictions;
    m.cache_resident_bytes = c.resident_bytes;
    m.cache_entries = c.entries;
    m.solved = solved_;
    m.io_failure = io_failure_;
    return m;
  }

  bool io_failure() const { return io_failure_; }

 private:
  std::string checkpoint_path(const SolveRequest& req) const {
    return cfg_.checkpoint_dir + "/req-" +
           dopf::verify::hex_u64(req.content_hash()) + ".ckpt";
  }

  std::shared_ptr<CachedModel> build_entry(const SolveRequest& req,
                                           const std::string& key);

  WorkerConfig cfg_;
  dopf::core::CancelToken* drain_;
  ModelCache cache_;
  dopf::runtime::FsFaultInjector fs_faults_;
  dopf::runtime::DurableOptions durable_;
  dopf::core::SessionStats session_;
  dopf::runtime::IoStats io_;
  std::uint64_t solved_ = 0;
  bool io_failure_ = false;
};

std::shared_ptr<CachedModel> RequestProcessor::build_entry(
    const SolveRequest& req, const std::string& key) {
  auto entry = std::make_shared<CachedModel>();
  entry->key = key;
  entry->net = dopf::runtime::load_network(req.feeder);
  const auto prepared =
      dopf::robust::prepare(entry->net, dopf::robust::parse_mode(req.preflight));
  entry->decompose = prepared.decompose;
  entry->projector = prepared.projector;
  entry->model =
      std::make_unique<dopf::core::SolveModel>(prepared.problem,
                                               entry->projector);
  entry->binding =
      std::make_unique<dopf::core::ScenarioBinding>(*entry->model);
  entry->model_fp = entry->binding->model_fingerprint();
  entry->bytes = estimate_model_bytes(*entry->binding);
  return entry;
}

std::pair<Op, std::string> RequestProcessor::process(const SolveRequest& req) {
  const std::uint64_t id = req.request_id;
  auto reject = [id](RejectCode code, std::uint32_t retry_after,
                     const std::string& message) {
    Reject r;
    r.request_id = id;
    r.code = code;
    r.retry_after_ms = retry_after;
    r.message = message;
    return std::make_pair(Op::kReject, r.encode());
  };
  try {
    // The per-request token: deadline_ms arrives already rewritten to the
    // time REMAINING (the parent charged the queue wait), parent-linked to
    // the worker's drain token so one solver poll observes both.
    dopf::core::CancelToken token;
    token.link_parent(drain_);
    if (req.deadline_ms > 0) {
      token.set_deadline_after(req.deadline_ms / 1000.0);
    }
    if (token.deadline_exceeded()) {
      return reject(RejectCode::kDeadline, 0, "deadline expired while queued");
    }
    if (drain_->cancelled()) {
      return reject(RejectCode::kShuttingDown, 0,
                    "server draining; queued request shed before starting");
    }
    validate_request(req);

    const std::string key = req.feeder + "#" + req.preflight;
    const std::shared_ptr<CachedModel> entry =
        cache_.acquire(key, [&] { return build_entry(req, key); });

    const dopf::runtime::Scenario sc = parse_request_scenario(req.scenario);

    std::lock_guard<std::mutex> model_lock(entry->mu);

    const auto scenario = dopf::robust::prepare_scenario(
        dopf::runtime::apply_scenario(entry->net, sc),
        dopf::robust::parse_mode(req.preflight), entry->decompose,
        entry->model->problem());

    dopf::core::AdmmOptions opt;
    opt.rho = req.rho;
    opt.eps_rel = req.eps_rel;
    opt.max_iterations = static_cast<int>(req.max_iterations);
    opt.check_every = static_cast<int>(req.check_every);
    opt.projector = entry->projector;
    opt.cancel = &token;

    // A FRESH session per request: the rebind is bit-identical to a cold
    // build (retained factorizations, PR 6), and a cold solve over it
    // reproduces a solo dopf_solve byte for byte — the determinism the
    // fault and crash harnesses assert. Reuse lives in the model/binding,
    // not in iterate state, so a crashed request's retry on a fresh worker
    // is byte-identical too.
    dopf::core::SolveSession session(*entry->binding, opt);
    session.rebind(scenario.problem());

    if (req.resume && !cfg_.checkpoint_dir.empty()) {
      dopf::runtime::CheckpointStore store(checkpoint_path(req), durable_);
      if (store.any_slot_exists()) {
        auto loaded = store.load();
        loaded.checkpoint.validate_for(session.solver(), req.feeder);
        loaded.checkpoint.restore(&session.solver(), req.feeder);
        session.mark_warm();
      }
    }

    dopf::core::AdmmResult res = session.solve();
    {
      const auto& st = session.stats();
      session_.solves += st.solves;
      session_.cold_solves += st.cold_solves;
      session_.warm_solves += st.warm_solves;
      session_.precompute_reuses += st.precompute_reuses;
      session_.refactorizations += st.refactorizations;
      session_.rhs_rebinds += st.rhs_rebinds;
    }

    if (res.status == dopf::core::AdmmStatus::kCancelled) {
      if (token.deadline_exceeded()) {
        return reject(RejectCode::kDeadline, 0,
                      "deadline expired after " +
                          std::to_string(res.iterations) + " iterations");
      }
      // Drain: checkpoint the in-flight solve durably so a resubmission
      // with resume continues byte-identically.
      if (cfg_.checkpoint_dir.empty()) {
        return reject(RejectCode::kShuttingDown, 0,
                      "drained at iteration " +
                          std::to_string(res.iterations) +
                          "; no checkpoint dir, progress discarded");
      }
      auto ck = dopf::runtime::AdmmCheckpoint::capture(
          session.solver(), res.iterations, req.feeder);
      dopf::runtime::CheckpointStore store(checkpoint_path(req), durable_);
      io_ += store.save(std::move(ck));
      return reject(RejectCode::kDrained, 0,
                    "drained at iteration " + std::to_string(res.iterations) +
                        "; resubmit with resume to continue");
    }

    SolveResponse resp;
    resp.request_id = id;
    resp.status = static_cast<std::uint8_t>(res.status);
    resp.converged = res.converged;
    resp.iterations = static_cast<std::uint32_t>(res.iterations);
    resp.objective = res.objective;
    resp.primal_residual = res.primal_residual;
    resp.dual_residual = res.dual_residual;
    resp.model_fp = entry->binding->model_fingerprint();
    resp.scenario_fp = entry->binding->scenario_fingerprint();
    ++solved_;
    return std::make_pair(Op::kSolveResponse, resp.encode());
  } catch (const BadRequestError& e) {
    return reject(RejectCode::kBadRequest, 0, e.what());
  } catch (const dopf::runtime::ScenarioError& e) {
    return reject(RejectCode::kBadRequest, 0, e.what());
  } catch (const dopf::robust::PreflightError& e) {
    return reject(RejectCode::kPreflight, 0, e.what());
  } catch (const dopf::runtime::CheckpointError& e) {
    return reject(RejectCode::kBadRequest, 0,
                  std::string("resume checkpoint rejected: ") + e.what());
  } catch (const dopf::runtime::SimulatedCrash& e) {
    io_failure_ = true;
    return reject(RejectCode::kInternal, 0,
                  std::string("durable checkpoint failed: ") + e.what());
  } catch (const dopf::runtime::IoError& e) {
    io_failure_ = true;
    return reject(RejectCode::kInternal, 0,
                  std::string("durable checkpoint failed: ") + e.what());
  } catch (const dopf::feeders::FeederFormatError& e) {
    return reject(RejectCode::kBadRequest, 0, e.what());
  } catch (const std::invalid_argument& e) {
    return reject(RejectCode::kBadRequest, 0, e.what());
  } catch (const std::exception& e) {
    return reject(RejectCode::kInternal, 0,
                  std::string("internal error: ") + e.what());
  }
}

/// Execute an armed crash drill. kSignal resets the disposition to SIG_DFL
/// first so a sanitizer's handler cannot turn the death into a report+exit
/// — the parent must observe WIFSIGNALED(SIGSEGV), the same shape a real
/// wild pointer produces.
[[noreturn]] void apply_crash(CrashFailpoint::Kind kind) {
  switch (kind) {
    case CrashFailpoint::Kind::kSignal:
      ::signal(SIGSEGV, SIG_DFL);
      ::raise(SIGSEGV);
      break;
    case CrashFailpoint::Kind::kExit:
      ::_exit(3);
    case CrashFailpoint::Kind::kHang:
      for (;;) ::pause();
  }
  ::_exit(3);  // raise() cannot return, but the compiler cannot know that
}

}  // namespace

int worker_main(int fd, const WorkerConfig& config) {
  // The worker's own drain token: the parent forwards SIGTERM on drain so
  // an in-flight solve cancels at a checkpointable boundary.
  static dopf::core::CancelToken drain;
  dopf::runtime::install_cancel_signal_handlers(&drain);

  RequestProcessor proc(config, &drain);
  bool armed = false;
  CrashFailpoint::Kind armed_kind = CrashFailpoint::Kind::kSignal;

  for (;;) {
    ReadOutcome out;
    try {
      out = read_frame_fd(fd, /*idle_timeout_ms=*/200);
    } catch (const WireError&) {
      break;  // supervisor link torn: the parent is gone, stop
    }
    if (out.status == ReadOutcome::kEof) break;
    if (out.status == ReadOutcome::kIdle) {
      if (drain.cancelled()) break;  // idle drain: report stats and exit
      continue;
    }
    switch (out.frame.op) {
      case Op::kCrashArm: {
        try {
          armed_kind = CrashArm::decode(out.frame.payload).kind;
          armed = true;
        } catch (const WireError&) {
          // A malformed drill directive is ignored, not fatal.
        }
        break;
      }
      case Op::kSolveRequest: {
        SolveRequest req;
        try {
          req = SolveRequest::decode(out.frame.payload);
        } catch (const WireError& e) {
          // The parent validated before dispatch, so this is supervisor-link
          // corruption; answer typed and keep serving.
          Reject r;
          r.request_id = 0;
          r.code = RejectCode::kInternal;
          r.message = std::string("worker decode failed: ") + e.what();
          if (!write_all_fd(fd, encode_frame(Op::kReject, r.encode()))) {
            goto drain_exit;
          }
          break;
        }
        if (armed) {
          armed = false;
          apply_crash(armed_kind);  // does not return
        }
        const auto reply = proc.process(req);
        if (!write_all_fd(fd, encode_frame(reply.first, reply.second))) {
          goto drain_exit;
        }
        break;
      }
      default:
        break;  // protocol slack: ignore unexpected-but-valid frames
    }
  }

drain_exit:
  // Farewell: one stats frame so the parent's aggregate includes this
  // worker's session/io/cache counters. Best-effort — the parent may
  // already be gone.
  (void)write_all_fd(fd,
                     encode_frame(Op::kWorkerStats, proc.stats().encode()));
  // Exit 7 doubles the io_failure signal in case the farewell frame is
  // lost; the parent treats a code-7 exit at shutdown as an I/O failure,
  // not a crash.
  return proc.io_failure() ? 7 : 0;
}

// ---------------------------------------------------------------------------
// Parent side

namespace {

/// Jitter seed of slot 0; slot k uses kBackoffSeed + k.
constexpr std::uint64_t kBackoffSeed = 1;

dopf::runtime::BackoffOptions restart_backoff(const SupervisorOptions& opts,
                                              int slot) {
  dopf::runtime::BackoffOptions bo;
  bo.base = static_cast<double>(opts.backoff_base_ms);
  bo.factor = 2.0;
  bo.max = static_cast<double>(opts.backoff_max_ms);
  // Jitter in [0.5, 1.0): restarting slots de-synchronize instead of
  // thundering onto the same core the moment a shared cause clears.
  bo.jitter_min = 0.5;
  bo.jitter_max = 1.0;
  bo.seed = kBackoffSeed + static_cast<std::uint64_t>(slot);
  return bo;
}

}  // namespace

WorkerSupervisor::WorkerSupervisor(int slot, SupervisorOptions options,
                                   const dopf::core::CancelToken* drain)
    : slot_(slot),
      opts_(std::move(options)),
      drain_(drain),
      backoff_(restart_backoff(opts_, slot)) {}

WorkerSupervisor::~WorkerSupervisor() {
  if (!shut_down_) (void)shutdown();
}

bool WorkerSupervisor::draining() const {
  return drain_ != nullptr && drain_->cancelled();
}

bool WorkerSupervisor::try_spawn() {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return false;
  // CLOEXEC on BOTH ends: a sibling slot forking concurrently must not
  // inherit a copy of this link (a stray copy would keep the EOF that
  // signals this worker's death from ever arriving). The child clears the
  // flag on its own end between fork and exec.
  ::fcntl(sv[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(sv[1], F_SETFD, FD_CLOEXEC);

  // Everything the child needs is prepared BEFORE fork: between fork and
  // exec only async-signal-safe calls are allowed (the parent is
  // multithreaded, so the child's heap may be mid-mutation).
  std::vector<std::string> argv_store = opts_.worker_command;
  if (opts_.worker_entry == nullptr) {
    argv_store.push_back("--worker-fd");
    argv_store.push_back(std::to_string(sv[1]));
  }
  std::vector<char*> argv;
  argv.reserve(argv_store.size() + 1);
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    return false;
  }
  if (pid == 0) {
    ::close(sv[0]);
    if (opts_.worker_entry != nullptr) {
      // Test seam: run the worker loop in-process (fork without exec —
      // safe only from effectively-single-threaded test parents).
      ::_exit(opts_.worker_entry(sv[1]));
    }
    ::fcntl(sv[1], F_SETFD, 0);  // the link must survive exec
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(sv[1]);
  fd_.reset(sv[0]);
  pid_.store(pid, std::memory_order_release);
  ++spawns_;
  return true;
}

bool WorkerSupervisor::ensure_worker() {
  if (pid_.load(std::memory_order_acquire) > 0) return true;
  if (degraded_) return false;
  for (;;) {
    if (draining()) return false;
    if (spawns_ > 0 || spawn_failures_ > 0) {
      if (restarts_ >= opts_.restart_budget) {
        degraded_ = true;
        return false;
      }
      ++restarts_;
      const double ms = backoff_.next();
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(ms));
    }
    if (try_spawn()) return true;
    ++spawn_failures_;
  }
}

void WorkerSupervisor::reap(bool kill_first) {
  const pid_t pid = pid_.exchange(-1, std::memory_order_acq_rel);
  fd_.reset();
  if (pid <= 0) return;
  if (kill_first) ::kill(pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  last_exit_ = classify_worker_exit(status);
}

WorkerSupervisor::Exchange WorkerSupervisor::exchange(
    const std::string& request_frame, const CrashFailpoint* directive) {
  Exchange out;
  auto worker_exit = [&](bool hang) {
    out.kind = Exchange::Kind::kWorkerExit;
    out.exit = last_exit_;
    out.hang_killed = hang;
    return out;
  };
  if (!ensure_worker()) {
    out.kind = Exchange::Kind::kDegraded;
    return out;
  }
  if (directive != nullptr) {
    CrashArm arm;
    arm.kind = directive->kind;
    if (!write_all_fd(fd_.get(),
                      encode_frame(Op::kCrashArm, arm.encode()))) {
      reap(false);
      return worker_exit(false);
    }
  }
  if (!write_all_fd(fd_.get(), request_frame)) {
    reap(false);
    return worker_exit(false);
  }

  using Clock = std::chrono::steady_clock;
  Clock::time_point hang_deadline{};
  if (opts_.hang_timeout_ms > 0) {
    hang_deadline =
        Clock::now() + std::chrono::milliseconds(opts_.hang_timeout_ms);
  }
  Clock::time_point drain_kill{};
  bool drain_kill_armed = false;
  for (;;) {
    ReadOutcome r;
    try {
      r = read_frame_fd(fd_.get(), /*idle_timeout_ms=*/200);
    } catch (const WireError&) {
      // Torn frame: the worker died mid-write (or desynchronized, which is
      // just as fatal for the link). SIGKILL settles any doubt.
      reap(true);
      return worker_exit(false);
    }
    if (r.status == ReadOutcome::kFrame) {
      if (r.frame.op == Op::kWorkerStats) {
        // The worker is exiting under us (drain observed mid-exchange):
        // keep the farewell, keep reading to the EOF that follows.
        try {
          stats_ = WorkerStatsMsg::decode(r.frame.payload);
          have_stats_ = true;
        } catch (const WireError&) {
        }
        continue;
      }
      out.kind = Exchange::Kind::kFrame;
      out.frame = std::move(r.frame);
      return out;
    }
    if (r.status == ReadOutcome::kEof) {
      reap(false);
      return worker_exit(false);
    }
    // Idle tick.
    if (opts_.hang_timeout_ms > 0 && Clock::now() >= hang_deadline) {
      reap(true);
      return worker_exit(true);
    }
    if (draining()) {
      if (!drain_kill_armed) {
        drain_kill_armed = true;
        drain_kill = Clock::now() + std::chrono::milliseconds(opts_.grace_ms);
      } else if (Clock::now() >= drain_kill) {
        // The worker ignored the forwarded SIGTERM for a whole grace
        // period; a drain must terminate.
        reap(true);
        return worker_exit(false);
      }
    }
  }
}

void WorkerSupervisor::signal_drain() {
  const pid_t pid = pid_.load(std::memory_order_acquire);
  if (pid > 0) ::kill(pid, SIGTERM);
}

WorkerSupervisor::ShutdownReport WorkerSupervisor::shutdown() {
  ShutdownReport rep;
  if (!shut_down_) {
    shut_down_ = true;
    if (pid_.load(std::memory_order_acquire) > 0 && fd_.valid()) {
      // Close the request direction: the worker sees EOF, sends its
      // farewell stats frame, and exits 0.
      ::shutdown(fd_.get(), SHUT_WR);
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::milliseconds(opts_.grace_ms);
      bool escalate = false;
      for (;;) {
        ReadOutcome r;
        try {
          r = read_frame_fd(fd_.get(), /*idle_timeout_ms=*/100);
        } catch (const WireError&) {
          break;
        }
        if (r.status == ReadOutcome::kFrame) {
          if (r.frame.op == Op::kWorkerStats) {
            try {
              stats_ = WorkerStatsMsg::decode(r.frame.payload);
              have_stats_ = true;
            } catch (const WireError&) {
            }
          }
          continue;
        }
        if (r.status == ReadOutcome::kEof) break;
        if (std::chrono::steady_clock::now() >= deadline) {
          escalate = true;
          break;
        }
      }
      reap(escalate);
    }
  }
  rep.have_stats = have_stats_;
  rep.stats = stats_;
  rep.exit = last_exit_;
  return rep;
}

}  // namespace dopf::serve

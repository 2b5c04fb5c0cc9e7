// serve-mix: dopf_serve --workers 2 driven open loop from one process over
// at most nproc pipelined connections, in two phases at fixed absolute
// rates (a load phase below capacity and an overload phase above it), with
// unloaded probes between them. The three are cut into chunks and
// interleaved over the whole run, so each samples all of the host's speed
// drift rather than one spell of it.
// Every answer is checked byte for byte against an in-process solve of the
// same content, made once per distinct content before the phases start.
#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "core/solve_session.hpp"
#include "opf/model.hpp"
#include "robust/preflight.hpp"
#include "runtime/instances.hpp"
#include "runtime/scenario.hpp"
#include "serve/cache.hpp"
#include "serve/socket_io.hpp"
#include "serve/wire.hpp"

namespace perfbench {

namespace {

using dopf::serve::Op;

constexpr int kWorkers = 2;
/// Timed set-ups of a spare server before each probe chunk (setup_s), so
/// that set-up too is sampled over the whole run.
constexpr int kSetupsPerPair = 2;
/// Frozen phase rates (requests per second), from the closed-loop capacity
/// measured by `--workload serve-capacity` (24.5 req/s, perfbench/README.md):
/// the load phase runs at about a third of it and the overload phase at
/// about 150%.
constexpr double kLoadRate = 8.0;
constexpr double kOverloadRate = 37.0;
/// Shares of --seconds offered to the load and overload phases; the
/// unloaded probes fill most of the rest.
constexpr double kLoadShare = 0.65;
constexpr double kOverloadShare = 0.25;
/// Rounds of the interleaved timeline. Each round is kPairs pairs of a
/// probe chunk and a load chunk, then an overload chunk: an overload chunk
/// must run for seconds, long enough for the ring to fill and shed, while
/// the others can be cut finer.
constexpr int kRounds = 2;
constexpr int kPairs = 4;
/// A request answered later than this after its due time misses
/// (goodput_rps).
constexpr double kLatencyLimitMs = 2000.0;
/// How long to wait for the last answers of a phase before counting the
/// rest as transport errors.
constexpr double kDrainTimeoutS = 30.0;

// The request mix. Requests come in blocks of 50: 40 ieee13 `load constant
// scale f`, 5 ieee13 `load * scale f`, 5 ieee123 `load constant scale f`,
// with f cycling through the grid, so every phase holds the same multiset
// of contents and only their order and arrival times depend on the seed.
constexpr int kBlock = 50;
/// Contents below this index are the ieee13 requests.
constexpr int kSmallContents = 10;
/// Unloaded probe requests (step_p50_ms, step_p90_ms) per second of
/// --seconds; one takes about 35 ms.
constexpr double kProbesPerSecond = 3.0;
constexpr double kGrid[5] = {0.96, 0.98, 1.00, 1.02, 1.04};

struct Content {
  std::string feeder;
  std::string scenario;
};

std::vector<Content> contents() {
  std::vector<Content> out;
  for (double f : kGrid) {
    char line[64];
    std::snprintf(line, sizeof(line), "load constant scale %.2f\n", f);
    out.push_back({"builtin:ieee13", line});
  }
  for (double f : kGrid) {
    char line[64];
    std::snprintf(line, sizeof(line), "load * scale %.2f\n", f);
    out.push_back({"builtin:ieee13", line});
  }
  for (double f : kGrid) {
    char line[64];
    std::snprintf(line, sizeof(line), "load constant scale %.2f\n", f);
    out.push_back({"builtin:ieee123", line});
  }
  return out;
}

dopf::serve::SolveRequest make_request(const Content& c, std::uint64_t id) {
  dopf::serve::SolveRequest req;  // paper defaults, preflight warn
  req.request_id = id;
  req.feeder = c.feeder;
  req.scenario = c.scenario;
  return req;
}

// ---------------------------------------------------------------------------
// In-process replica of the worker path (serve/supervisor.cpp,
// RequestProcessor): cache acquire -> scenario build -> scenario preflight
// -> rebind -> fresh-session solve -> encode. It makes the reference
// answers and, in the traced run, times each layer of a request.

std::shared_ptr<dopf::serve::CachedModel> build_entry(const std::string& feeder,
                                                      const std::string& key,
                                                      Tracer& tr) {
  auto entry = std::make_shared<dopf::serve::CachedModel>();
  entry->key = key;
  {
    Tracer::Scope s(tr, "feeders.build");
    entry->net = dopf::runtime::make_instance(feeder.substr(8)).net;
  }
  std::optional<dopf::opf::OpfModel> model;
  {
    Tracer::Scope s(tr, "opf.build_model");
    model.emplace(dopf::opf::build_model(entry->net));
  }
  dopf::opf::DistributedProblem problem;
  {
    Tracer::Scope s(tr, "robust.preflight");
    const auto pre =
        dopf::robust::run_preflight(entry->net, *model, &problem, {});
    if (!pre.accepted) throw dopf::robust::PreflightError(pre);
    entry->projector = pre.projector_options();
    entry->decompose.equilibrate_rows = pre.equilibrated;
  }
  {
    Tracer::Scope s(tr, "core.factorize");
    entry->model =
        std::make_unique<dopf::core::SolveModel>(problem, entry->projector);
  }
  {
    Tracer::Scope s(tr, "core.bind");
    entry->binding =
        std::make_unique<dopf::core::ScenarioBinding>(*entry->model);
  }
  entry->model_fp = entry->binding->model_fingerprint();
  entry->bytes = dopf::serve::estimate_model_bytes(*entry->binding);
  return entry;
}

class Replica {
 public:
  explicit Replica(Tracer& tr) : tr_(tr), cache_(256u << 20) {}

  std::shared_ptr<dopf::serve::CachedModel> acquire(const std::string& feeder) {
    const std::string key = feeder + "#warn";
    return cache_.acquire(key, [&] { return build_entry(feeder, key, tr_); });
  }

  /// One request through the worker path; returns the encoded response.
  /// With `kernels` set the solve runs on TimedBackend, which appends its
  /// per-call timings there while tracing.
  std::string process(const Content& c, std::int64_t group,
                      KernelSamples* kernels) {
    const int span = tr_.open("serve.request", group);
    std::shared_ptr<dopf::serve::CachedModel> entry;
    {
      Tracer::Scope s(tr_, "serve.cache_acquire");
      entry = acquire(c.feeder);
    }
    std::lock_guard<std::mutex> lock(entry->mu);
    dopf::opf::DistributedProblem problem_s;
    {
      Tracer::Scope s(tr_, "serve.request_build");
      std::istringstream text("scenario request\n" + c.scenario + "end\n");
      const auto sc = dopf::runtime::parse_scenarios(text).at(0);
      const auto net_s = dopf::runtime::apply_scenario(entry->net, sc);
      const auto model_s = dopf::opf::build_model(net_s);
      problem_s = dopf::opf::decompose(net_s, model_s, entry->decompose);
    }
    {
      Tracer::Scope s(tr_, "robust.scenario_preflight");
      dopf::robust::PreflightOptions popt;
      popt.decompose = entry->decompose;
      const auto pre = dopf::robust::run_scenario_preflight(
          entry->model->problem(), problem_s, popt);
      if (!pre.accepted) throw std::runtime_error(pre.rejection);
    }
    dopf::core::AdmmOptions opt;
    const dopf::serve::SolveRequest defaults;
    opt.rho = defaults.rho;
    opt.eps_rel = defaults.eps_rel;
    opt.max_iterations = static_cast<int>(defaults.max_iterations);
    opt.check_every = static_cast<int>(defaults.check_every);
    opt.projector = entry->projector;
    dopf::core::SolveSession session(*entry->binding, opt);
    if (kernels != nullptr) {
      session.set_backend(
          std::make_unique<TimedBackend>(&tr_, false, kernels, nullptr));
    }
    {
      const int rb = tr_.open("core.rebind");
      const auto stats = session.rebind(problem_s);
      tr_.close(rb, stats.refactorizations > 0 ? "core.rebind_refactor"
                                               : "core.rebind_rhs");
    }
    dopf::core::AdmmResult res;
    {
      Tracer::Scope s(tr_, "core.solve");
      res = session.solve();
    }
    std::string encoded;
    {
      Tracer::Scope s(tr_, "serve.encode");
      dopf::serve::SolveResponse resp;
      resp.status = static_cast<std::uint8_t>(res.status);
      resp.converged = res.converged;
      resp.iterations = static_cast<std::uint32_t>(res.iterations);
      resp.objective = res.objective;
      resp.primal_residual = res.primal_residual;
      resp.dual_residual = res.dual_residual;
      resp.model_fp = entry->binding->model_fingerprint();
      resp.scenario_fp = entry->binding->scenario_fingerprint();
      encoded = resp.encode();
    }
    tr_.close(span);
    return encoded;
  }

  /// Lifetime rebind counts summed over the cached bindings.
  std::pair<long long, long long> rebind_counts() {
    long long rhs = 0, refactor = 0;
    for (const char* f : {"builtin:ieee13", "builtin:ieee123"}) {
      const auto entry = acquire(f);
      rhs += entry->binding->lifetime().rhs_rebinds;
      refactor += entry->binding->lifetime().refactorizations;
    }
    return {rhs, refactor};
  }

 private:
  Tracer& tr_;
  dopf::serve::ModelCache cache_;
};

// ---------------------------------------------------------------------------
// The server process and the client lanes.

/// dopf_serve child process; the destructor drains it (SIGTERM) and reaps
/// it, escalating to SIGKILL if it does not exit in time.
class ServerProcess {
 public:
  ServerProcess(const Args& args, const std::string& socket,
                const std::string& stdout_path) {
    ::unlink(socket.c_str());
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int out = ::open(stdout_path.c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC, 0644);
      const int err = ::open((stdout_path + ".err").c_str(),
                             O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (out >= 0) ::dup2(out, 1);
      if (err >= 0) ::dup2(err, 2);
      const std::string workers = std::to_string(kWorkers);
      std::vector<const char*> argv = {args.serve_bin.c_str(), "--socket",
                                       socket.c_str(),         "--workers",
                                       workers.c_str(),        "--metrics-json",
                                       nullptr};
      ::execv(argv[0], const_cast<char* const*>(argv.data()));
      ::_exit(127);
    }
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }

  /// SIGTERM, then wait (SIGKILL after 20 s). Returns the exit status.
  int stop() {
    if (pid_ <= 0) return status_;
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 2000; ++i) {
      if (::waitpid(pid_, &status_, WNOHANG) == pid_) {
        pid_ = -1;
        return status_;
      }
      ::usleep(10000);
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status_, 0);
    pid_ = -1;
    return status_;
  }

 private:
  pid_t pid_ = -1;
  int status_ = -1;
};

dopf::serve::Fd connect_retry(const std::string& socket, double timeout_s) {
  const std::int64_t t0 = now_ns();
  for (;;) {
    auto fd = dopf::serve::connect_unix(socket);
    if (fd.valid()) return fd;
    if (seconds_between(t0, now_ns()) > timeout_s) {
      throw std::runtime_error("cannot connect to " + socket);
    }
    ::usleep(100);  // finer than the ~3 ms spawn it times (setup_s)
  }
}

/// Blocking ping on a connection with no other traffic in flight.
bool ping(int fd, std::uint64_t id) {
  dopf::serve::Ping p;
  p.id = id;
  if (!dopf::serve::write_all_fd(
          fd, dopf::serve::encode_frame(Op::kPing, p.encode()))) {
    return false;
  }
  for (;;) {
    const auto out = dopf::serve::read_frame_fd(fd, 10000);
    if (out.status != dopf::serve::ReadOutcome::kFrame) return false;
    if (out.frame.op == Op::kPong &&
        dopf::serve::Ping::decode(out.frame.payload).id == id) {
      return true;
    }
  }
}

enum class Outcome : int { kPending, kGood, kWrong, kShed, kRejected };

/// One scheduled request: written by the sender (send time) and by the
/// lane's receiver (answer); `state` publishes the answer.
struct Slot {
  int content = 0;
  int lane = 0;
  std::int64_t due = 0;
  std::int64_t sent = 0;
  std::int64_t answered = 0;
  bool converged = false;
  std::atomic<int> state{0};
};

/// The client side: lanes (connections) with one receiver thread each.
class Lanes {
 public:
  Lanes(const std::string& socket, int n, std::vector<Slot>& slots,
        const std::vector<std::string>& expected)
      : slots_(slots), expected_(expected) {
    for (int i = 0; i < n; ++i) fds_.push_back(connect_retry(socket, 10.0));
    for (int i = 0; i < n; ++i) {
      threads_.emplace_back([this, i] { receive(i); });
    }
  }
  ~Lanes() {
    stop_.store(true);
    for (auto& t : threads_) t.join();
  }
  Lanes(const Lanes&) = delete;
  Lanes& operator=(const Lanes&) = delete;

  int size() const { return static_cast<int>(fds_.size()); }

  /// Send slot `idx` (request id idx + 1) on its lane, now.
  bool send(std::size_t idx, const std::string& frame) {
    slots_[idx].sent = now_ns();
    return dopf::serve::write_all_fd(fds_[slots_[idx].lane].get(), frame);
  }

  long long answered() const { return answered_.load(); }

  /// Wait until `target` answers have arrived in total; false on timeout.
  bool wait_answered(long long target, double timeout_s) const {
    const std::int64_t give_up =
        now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
    while (answered() < target) {
      if (now_ns() > give_up) return false;
      ::usleep(500);
    }
    return true;
  }

 private:
  void receive(int lane) {
    const int fd = fds_[lane].get();
    while (!stop_.load()) {
      dopf::serve::ReadOutcome out;
      try {
        out = dopf::serve::read_frame_fd(fd, 50);
      } catch (const dopf::serve::WireError&) {
        return;  // torn stream: its pending requests stay unanswered
      }
      if (out.status == dopf::serve::ReadOutcome::kEof) return;
      if (out.status != dopf::serve::ReadOutcome::kFrame) continue;
      const std::int64_t t = now_ns();
      std::uint64_t id = 0;
      Outcome outcome = Outcome::kWrong;
      bool converged = false;
      try {
        if (out.frame.op == Op::kSolveResponse) {
          auto resp = dopf::serve::SolveResponse::decode(out.frame.payload);
          id = resp.request_id;
          converged = resp.converged;
          if (id >= 1 && id <= slots_.size()) {
            resp.request_id = 0;
            outcome = resp.encode() == expected_[slots_[id - 1].content]
                          ? Outcome::kGood
                          : Outcome::kWrong;
          }
        } else if (out.frame.op == Op::kReject) {
          const auto rej = dopf::serve::Reject::decode(out.frame.payload);
          id = rej.request_id;
          outcome = rej.code == dopf::serve::RejectCode::kOverloaded
                        ? Outcome::kShed
                        : Outcome::kRejected;
        }
      } catch (const dopf::serve::WireError&) {
        continue;  // undecodable: its request stays unanswered
      }
      if (id < 1 || id > slots_.size()) continue;
      Slot& s = slots_[id - 1];
      s.answered = t;
      s.converged = converged;
      s.state.store(static_cast<int>(outcome), std::memory_order_release);
      answered_.fetch_add(1);
    }
  }

  std::vector<Slot>& slots_;
  const std::vector<std::string>& expected_;
  std::vector<dopf::serve::Fd> fds_;
  std::atomic<bool> stop_{false};
  std::atomic<long long> answered_{0};
  std::vector<std::thread> threads_;  // last: joins before the fds close
};

/// Seeded open-loop schedule: `n` requests (a multiple of kBlock) of the
/// mix at `rate`. Inter-arrival gaps are the exponential distribution's
/// quantiles at (i + 0.5) / n, shuffled: Poisson arrivals whose gap
/// multiset, like the content multiset, is the same for every seed.
/// Returns the schedule's length in seconds.
double make_phase(Rng& rng, int n, double rate, std::size_t first, int lanes,
                  std::vector<Slot>& slots) {
  // Stratified order: each group of ten consecutive requests holds eight
  // ieee13 `load constant`, one ieee13 `load *` and one ieee123 request, in
  // seeded order. The seed then orders the long ieee123 requests without
  // deciding how many of them bunch up, which would move latency_p95_ms
  // from seed to seed.
  std::vector<int> rhs, refactor, big;  // content indices, by kind
  for (int b = 0; b < n / kBlock; ++b) {
    for (int i = 0; i < 40; ++i) rhs.push_back(i % 5);
    for (int i = 0; i < 5; ++i) {
      refactor.push_back(5 + i);
      big.push_back(10 + i);
    }
  }
  rng.shuffle(rhs);
  rng.shuffle(refactor);
  rng.shuffle(big);
  std::vector<int> order;
  for (std::size_t g = 0; g < big.size(); ++g) {
    std::vector<int> group(rhs.begin() + static_cast<std::ptrdiff_t>(8 * g),
                           rhs.begin() + static_cast<std::ptrdiff_t>(8 * g + 8));
    group.push_back(refactor[g]);
    group.push_back(big[g]);
    rng.shuffle(group);
    order.insert(order.end(), group.begin(), group.end());
  }
  std::vector<double> gaps;
  for (int i = 0; i < n; ++i) {
    gaps.push_back(-std::log(1.0 - (i + 0.5) / n) / rate);
  }
  rng.shuffle(gaps);
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    t += gaps[i];
    Slot& s = slots[first + i];
    s.content = order[i];
    s.lane = i % lanes;
    s.due = static_cast<std::int64_t>(t * 1e9);  // offset; made absolute later
  }
  return t;
}

struct PhaseStats {
  std::vector<double> latency_ms;  ///< good answers, due -> answer
  std::vector<double> chunk_p50_ms;  ///< p50 of latency_ms, chunk by chunk
  std::vector<double> lateness_ms;
  long long sent = 0, good = 0, wrong = 0, shed = 0, rejected = 0,
            unanswered = 0, within_limit = 0;
  double wall_s = 0.0;  ///< first due -> last answer, summed over chunks
};

/// Runs the chunk [first, first + n) of a phase and adds it to `st`. Due
/// times are rebased so that the chunk's first request is due 20 ms from now.
void run_phase(Lanes& lanes, std::vector<Slot>& slots, std::size_t first,
               std::size_t n, const std::vector<std::string>& frames,
               PhaseStats& st) {
  if (n == 0) return;
  const std::int64_t start = now_ns() + 20'000'000;  // 20 ms to get going
  const std::int64_t origin = slots[first].due;
  for (std::size_t i = first; i < first + n; ++i) {
    slots[i].due += start - origin;
  }
  const long long before = lanes.answered();
  for (std::size_t i = first; i < first + n; ++i) {
    const auto due = Clock::time_point(std::chrono::nanoseconds(slots[i].due));
    std::this_thread::sleep_until(due);
    lanes.send(i, frames[i]);
    ++st.sent;
  }
  lanes.wait_answered(before + static_cast<long long>(n), kDrainTimeoutS);
  const std::size_t good_before = st.latency_ms.size();
  std::int64_t last = slots[first].due;
  for (std::size_t i = first; i < first + n; ++i) {
    const Slot& s = slots[i];
    st.lateness_ms.push_back((s.sent - s.due) * 1e-6);
    switch (static_cast<Outcome>(s.state.load(std::memory_order_acquire))) {
      case Outcome::kGood: {
        ++st.good;
        const double ms = (s.answered - s.due) * 1e-6;
        st.latency_ms.push_back(ms);
        if (s.converged && ms <= kLatencyLimitMs) ++st.within_limit;
        last = std::max(last, s.answered);
        break;
      }
      case Outcome::kWrong: ++st.wrong; break;
      case Outcome::kShed: ++st.shed; break;
      case Outcome::kRejected: ++st.rejected; break;
      case Outcome::kPending: ++st.unanswered; break;
    }
  }
  if (st.latency_ms.size() > good_before) {
    st.chunk_p50_ms.push_back(median(std::vector<double>(
        st.latency_ms.begin() + static_cast<std::ptrdiff_t>(good_before),
        st.latency_ms.end())));
  }
  st.wall_s += seconds_between(slots[first].due, last);
}

/// Integer field `key` of the server's --metrics-json line (first match).
long long metric_field(const std::string& json, const std::string& key) {
  const auto pos = json.find("\"" + key + "\":");
  if (pos == std::string::npos) return -1;
  return std::atoll(json.c_str() + pos + key.size() + 3);
}

std::string read_metrics_line(const std::string& path) {
  std::ifstream in(path);
  std::string line, last;
  while (std::getline(in, line)) {
    if (!line.empty() && line.front() == '{') last = line;
  }
  return last;
}

/// Peak resident set (VmHWM, MB) of `pid` and its direct children.
double tree_peak_rss_mb(pid_t pid) {
  auto hwm_kb = [](pid_t p) -> double {
    std::ifstream in("/proc/" + std::to_string(p) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6);
    }
    return 0.0;
  };
  double kb = hwm_kb(pid);
  if (DIR* d = ::opendir("/proc")) {
    while (const dirent* e = ::readdir(d)) {
      const pid_t child = std::atoi(e->d_name);
      if (child <= 0) continue;
      std::ifstream in("/proc/" + std::to_string(child) + "/stat");
      std::string stat;
      std::getline(in, stat);
      const auto close_paren = stat.rfind(')');
      if (close_paren == std::string::npos) continue;
      char state = 0;
      int ppid = 0;
      if (std::sscanf(stat.c_str() + close_paren + 1, " %c %d", &state,
                      &ppid) == 2 &&
          ppid == pid) {
        kb += hwm_kb(child);
      }
    }
    ::closedir(d);
  }
  return kb / 1024.0;
}

int phase_size(double rate, double seconds) {
  const int blocks = static_cast<int>(std::lround(rate * seconds / kBlock));
  return kBlock * std::max(1, blocks);
}

/// Closed-loop capacity of the server on the mix: keeps `in_flight`
/// requests outstanding and reports answers per second. This is how the
/// frozen phase rates were chosen; it is not one of the gated workloads.
void run_capacity(const Args& args, Record& rec,
                  const std::vector<std::string>& expected,
                  const std::string& socket) {
  const auto mix = contents();
  Rng rng(args.seed);
  const int lanes_n = std::min(args.nproc, 4);
  const int n = 20 * kBlock;
  std::vector<Slot> slots(n);
  make_phase(rng, n, 1.0, 0, lanes_n, slots);
  Lanes lanes(socket, lanes_n, slots, expected);
  const int in_flight = 2 * kWorkers + 2;
  const int warm = kBlock;  // the first block fills the caches
  std::int64_t t0 = 0;
  for (int i = 0; i < n; ++i) {
    if (!lanes.wait_answered(i - in_flight + 1, kDrainTimeoutS)) break;
    if (i == warm) t0 = now_ns();
    lanes.send(i, dopf::serve::encode_frame(
                      Op::kSolveRequest,
                      make_request(mix[slots[i].content], i + 1).encode()));
  }
  lanes.wait_answered(n, kDrainTimeoutS);
  const double rps = (n - warm) / seconds_between(t0, now_ns());
  for (const Slot& s : slots) {
    if (s.state.load() != static_cast<int>(Outcome::kGood)) ++rec.failed;
  }
  rec.attempted = n;
  if (rec.failed > 0) rec.fail("capacity run had failed requests");
  rec.set("capacity_rps", rps, "1/s");
  rec.samples["requests"] = n - warm;
  rec.samples["in_flight"] = in_flight;
}

}  // namespace

void run_serve(const Args& args, Record& rec) {
  if (args.serve_bin.empty()) throw std::runtime_error("--serve-bin required");
  const auto mix = contents();
  const std::string socket =
      args.out_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
  const std::string server_out = args.out_dir + "/serve-" +
                                 std::to_string(args.seed) + ".out";
  Tracer tracer(args.trace);
  Tracer off(false);

  // Reference answers, once per distinct content, outside timing.
  std::vector<std::string> expected;
  std::vector<std::uint32_t> iterations;
  {
    Replica replica(off);
    for (const Content& c : mix) {
      expected.push_back(replica.process(c, -1, nullptr));
      const auto resp = dopf::serve::SolveResponse::decode(expected.back());
      if (!resp.converged) rec.fail("reference solve did not converge");
      iterations.push_back(resp.iterations);
    }
  }

  // Set-up: server spawn to first pong. This server stays up for the
  // phases; spare ones on their own socket are timed during the run.
  std::vector<double> setup_s;
  auto spawn_timed = [&](const std::string& sock, const std::string& out) {
    const std::int64_t t0 = now_ns();
    auto srv = std::make_unique<ServerProcess>(args, sock, out);
    auto fd = connect_retry(sock, 30.0);
    if (!ping(fd.get(), 1)) throw std::runtime_error("server did not pong");
    setup_s.push_back(seconds_between(t0, now_ns()));
    return srv;
  };
  const auto server = spawn_timed(socket, server_out);
  auto time_spare_setups = [&] {
    if (args.trace) return;
    for (int k = 0; k < kSetupsPerPair; ++k) {
      spawn_timed(socket + ".spare", server_out + ".spare");  // stopped here
    }
  };
  if (args.workload == "serve-capacity") {
    run_capacity(args, rec, expected, socket);
    return;
  }

  // The schedule: warm-up slots, then the load and overload phases.
  Rng rng(args.seed);
  const int n_load = phase_size(kLoadRate, args.seconds * kLoadShare);
  const int n_over = phase_size(kOverloadRate, args.seconds * kOverloadShare);
  const auto n_probes = static_cast<std::size_t>(
      std::max(4L, std::lround(args.seconds * kProbesPerSecond)));
  const int lanes_n = std::min(args.nproc, 4);
  const std::size_t warm = 4;
  // Slot layout: warm-up, load phase, overload phase, unloaded probe.
  const std::size_t probe_first = warm + n_load + n_over;
  std::vector<Slot> slots(probe_first + n_probes);
  make_phase(rng, n_load, kLoadRate, warm, lanes_n, slots);
  const double over_window =
      make_phase(rng, n_over, kOverloadRate, warm + n_load, lanes_n, slots);
  // Warm-up fills each worker's model cache: two concurrent ieee123
  // requests land on both workers, then two ieee13 ones.
  const int warm_contents[4] = {10, 11, 0, 1};
  for (std::size_t i = 0; i < warm; ++i) {
    slots[i].content = warm_contents[i];
    slots[i].lane = static_cast<int>(i % 2) % lanes_n;
  }
  for (std::size_t i = probe_first; i < slots.size(); ++i) {
    slots[i].content = static_cast<int>(i % kSmallContents);
  }
  std::vector<std::string> frames;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    frames.push_back(dopf::serve::encode_frame(
        Op::kSolveRequest, make_request(mix[slots[i].content], i + 1).encode()));
  }

  PhaseStats load, over;
  double rtt_us = 0.0;
  double peak_rss = 0.0;
  {
    Lanes lanes(socket, lanes_n, slots, expected);
    for (std::size_t pair = 0; pair < warm; pair += 2) {
      const long long before = lanes.answered();
      lanes.send(pair, frames[pair]);
      lanes.send(pair + 1, frames[pair + 1]);
      lanes.wait_answered(before + 2, kDrainTimeoutS);
    }
    for (std::size_t i = 0; i < warm; ++i) {
      if (slots[i].state.load() != static_cast<int>(Outcome::kGood)) {
        rec.fail("warm-up request " + std::to_string(i + 1) + " failed");
      }
    }
    if (args.trace) {
      auto fd = connect_retry(socket, 5.0);
      std::vector<double> us;
      for (int k = 0; k < 200; ++k) {
        const std::int64_t t0 = now_ns();
        if (!ping(fd.get(), 100 + k)) throw std::runtime_error("ping failed");
        us.push_back((now_ns() - t0) * 1e-3);
      }
      rtt_us = median(us);
      rec.samples["serve.ping_rtt_us"] = static_cast<long long>(us.size());
    }
    // The interleaved timeline. Chunk k of `parts` covers [cut(n, parts, k),
    // cut(n, parts, k + 1)) of its phase. A probe is one small request in
    // flight at a time; every chunk starts once the one before it has been
    // answered in full, so probes see an idle server.
    auto cut = [](std::size_t n, int parts, int k) { return n * k / parts; };
    std::size_t next_probe = probe_first;
    auto probe = [&](std::size_t n) {
      for (std::size_t k = 0; k < n; ++k, ++next_probe) {
        const long long before = lanes.answered();
        lanes.send(next_probe, frames[next_probe]);
        lanes.wait_answered(before + 1, kDrainTimeoutS);
      }
    };
    const int fine = kPairs * kRounds;
    for (int r = 0, k = 0; r < kRounds; ++r) {
      for (int pair = 0; pair < kPairs; ++pair, ++k) {
        time_spare_setups();
        probe(cut(n_probes, fine, k + 1) - cut(n_probes, fine, k));
        const std::size_t a = cut(n_load, fine, k), b = cut(n_load, fine, k + 1);
        run_phase(lanes, slots, warm + a, b - a, frames, load);
      }
      const std::size_t a = cut(n_over, kRounds, r),
                        b = cut(n_over, kRounds, r + 1);
      run_phase(lanes, slots, warm + n_load + a, b - a, frames, over);
    }
    peak_rss = self_peak_rss_mb() + tree_peak_rss_mb(server->pid());
  }
  const int exit_status = server->stop();
  const std::string metrics = read_metrics_line(server_out);
  if (!WIFEXITED(exit_status) || WEXITSTATUS(exit_status) != 0) {
    rec.fail("dopf_serve did not drain cleanly (status " +
             std::to_string(exit_status) + ")");
  }
  if (metrics.empty()) rec.fail("dopf_serve printed no --metrics-json line");

  // Gate: every answer byte-identical to the reference or a typed shed,
  // nothing unanswered, and no cache miss outside warm-up.
  std::map<int, std::vector<double>> probe_ms;  // by content
  long long probe_failed = 0;
  for (std::size_t i = probe_first; i < slots.size(); ++i) {
    if (slots[i].state.load() == static_cast<int>(Outcome::kGood)) {
      probe_ms[slots[i].content].push_back(
          (slots[i].answered - slots[i].sent) * 1e-6);
    } else {
      ++probe_failed;
    }
  }
  // Each kind of step is timed by the median of its repeats, which a spell
  // of the host's speed cannot move the way it moves a tail sample.
  std::vector<double> step_ms;
  for (const auto& [content, ms] : probe_ms) step_ms.push_back(median(ms));
  rec.attempted = load.sent + over.sent + static_cast<long long>(n_probes);
  rec.failed = load.wrong + load.rejected + load.unanswered + over.wrong +
               over.rejected + over.unanswered + probe_failed;
  if (rec.failed > 0) {
    rec.fail(std::to_string(rec.failed) +
             " requests answered wrong, rejected or not at all");
  }
  const long long misses = metric_field(metrics, "misses");
  const long long evictions = metric_field(metrics, "evictions");
  if (misses != 2 * kWorkers || evictions != 0) {
    rec.fail("model cache missed outside warm-up (misses " +
             std::to_string(misses) + ", evictions " +
             std::to_string(evictions) + ")");
  }
  long long load_iterations = 0;
  for (std::size_t i = warm; i < warm + n_load; ++i) {
    load_iterations += iterations[slots[i].content];
  }
  rec.exact_counts["iterations"] = load_iterations;
  rec.exact_counts["requests"] = n_load + n_over;

  // Per-phase accounting against requests sent.
  for (const auto& [name, st] : {std::pair{"load", &load}, {"overload", &over}}) {
    const std::string p = std::string(name) + ".";
    rec.samples[p + "sent"] = st->sent;
    rec.samples[p + "good"] = st->good;
    rec.samples[p + "wrong"] = st->wrong;
    rec.samples[p + "shed"] = st->shed;
    rec.samples[p + "typed_rejects"] = st->rejected;
    rec.samples[p + "transport_errors"] = st->unanswered;
    rec.samples[p + "within_2s"] = st->within_limit;
  }
  rec.samples["latency"] = static_cast<long long>(load.latency_ms.size());
  rec.samples["latency_chunks"] =
      static_cast<long long>(load.chunk_p50_ms.size());
  rec.samples["probe"] = static_cast<long long>(n_probes) - probe_failed;
  rec.samples["probe_kinds"] = static_cast<long long>(step_ms.size());
  rec.samples["setup_s"] = static_cast<long long>(setup_s.size());
  rec.samples["lanes"] = lanes_n;
  std::vector<double> lateness = load.lateness_ms;
  lateness.insert(lateness.end(), over.lateness_ms.begin(),
                  over.lateness_ms.end());

  if (!args.trace) {
    rec.set("setup_s", median(setup_s), "s");
    rec.set("solve_s", load.wall_s, "s");
    rec.set("iterations", static_cast<double>(load_iterations), "count");
    rec.set("steps_per_s", load.good / load.wall_s, "1/s");
    // A step is one ieee13 request with nothing else in flight. Under load
    // every p90 sits on a cliff: ieee13 vs ieee123 over the mix, unblocked
    // vs blocked behind an ieee123 solve over the ieee13 requests.
    rec.set("step_p50_ms", percentile(step_ms, 0.5), "ms");
    rec.set("step_p90_ms", percentile(step_ms, 0.9), "ms");
    // The median of the chunks' p50s: a spell of the host's speed that
    // covers a chunk or two moves those chunks, not the metric. p95 pools
    // the whole phase, as its sample count requires.
    rec.set("latency_p50_ms", median(load.chunk_p50_ms), "ms");
    rec.set("latency_p95_ms", percentile(load.latency_ms, 0.95), "ms");
    rec.set("goodput_rps", over.within_limit / over_window, "1/s");
    rec.set("peak_rss_mb", peak_rss, "MB");
    rec.samples["gen_lag_p95_us"] =
        std::llround(percentile(lateness, 0.95) * 1e3);
    return;
  }

  // Traced run: replay every content once, in a fixed order, through the
  // in-process worker path; untraced and traced passes alternate so the
  // host's drift cancels out of the tracing overhead.
  double untraced_s = 0.0, traced_s = 0.0;
  std::map<int, std::vector<double>> service_ms, build_ms;
  KernelSamples kernels;
  std::pair<long long, long long> rebinds;
  for (int pass = 0; pass < 6; ++pass) {
    const bool traced = pass % 2 == 1;
    Tracer& tr = traced ? tracer : off;
    Replica replica(tr);
    {
      Tracer::Scope s(tr, "serve.cache_build");  // warm-up, not timed
      replica.acquire("builtin:ieee13");
      replica.acquire("builtin:ieee123");
    }
    const std::int64_t t0 = now_ns();
    for (std::size_t c = 0; c < mix.size(); ++c) {
      // Both kinds of pass solve ieee13 through TimedBackend (it records
      // only while tracing), so they differ by the tracing alone.
      const bool ieee13 = mix[c].feeder == "builtin:ieee13";
      if (replica.process(mix[c], static_cast<std::int64_t>(c),
                          ieee13 ? &kernels : nullptr) != expected[c]) {
        rec.fail("replay answer differs");
      }
    }
    (traced ? traced_s : untraced_s) += seconds_between(t0, now_ns());
    rebinds = replica.rebind_counts();
  }
  const auto request_ms = tracer.durations_ms("serve.request");
  const auto request_group = tracer.groups("serve.request");
  const auto build = tracer.durations_ms("serve.request_build");
  const auto build_group = tracer.groups("serve.request_build");
  for (std::size_t i = 0; i < request_ms.size(); ++i) {
    service_ms[static_cast<int>(request_group[i])].push_back(request_ms[i]);
  }
  for (std::size_t i = 0; i < build.size(); ++i) {
    build_ms[static_cast<int>(build_group[i])].push_back(build[i]);
  }
  std::vector<double> service, request_build, queue_wait;
  for (std::size_t i = warm; i < warm + n_load; ++i) {
    const int c = slots[i].content;
    service.push_back(median(service_ms[c]));
    request_build.push_back(median(build_ms[c]));
    if (slots[i].state.load() == static_cast<int>(Outcome::kGood)) {
      const double observed = (slots[i].answered - slots[i].due) * 1e-6;
      queue_wait.push_back(
          std::max(0.0, observed - median(service_ms[c]) - rtt_us * 1e-3));
    }
  }
  rec.set("serve.service_ms", median(service), "ms");
  rec.set("serve.request_build_ms", median(request_build), "ms");
  rec.set("stream.step_build_ms", median(build), "ms");
  rec.set("serve.queue_wait_p50_ms", percentile(queue_wait, 0.5), "ms");
  rec.set("serve.queue_wait_p95_ms", percentile(queue_wait, 0.95), "ms");
  rec.set("serve.ping_rtt_us", rtt_us, "us");
  rec.set("robust.scenario_preflight_ms",
          median(tracer.durations_ms("robust.scenario_preflight")), "ms");
  rec.set("core.rebind_rhs_ms", median(tracer.durations_ms("core.rebind_rhs")),
          "ms");
  rec.set("core.rebind_refactor_ms",
          median(tracer.durations_ms("core.rebind_refactor")), "ms");
  rec.set("core.rhs_rebinds", static_cast<double>(rebinds.first), "count");
  rec.set("core.refactorizations", static_cast<double>(rebinds.second),
          "count");
  rec.exact_counts["core.rhs_rebinds"] = rebinds.first;
  rec.exact_counts["core.refactorizations"] = rebinds.second;

  // Kernels on the ieee13 pack (nine in ten requests of the mix).
  rec.set("core.global_us", median(kernels.global), "us");
  rec.set("core.local_us", median(kernels.local), "us");
  rec.set("core.dual_us", median(kernels.dual), "us");
  rec.set("core.residual_us", median(kernels.residual), "us");
  rec.samples["core.kernel_calls"] =
      static_cast<long long>(kernels.local.size());
  {
    Replica replica(off);
    const auto entry = replica.acquire("builtin:ieee13");
    const auto& pack = entry->binding->pack();
    const KernelCost cost = kernel_cost(pack);
    rec.set("core.pack_bytes", static_cast<double>(pack.bytes()), "B");
    rec.exact_counts["core.pack_bytes"] = static_cast<long long>(pack.bytes());
    rec.set("core.global_bytes", cost.global_bytes, "B");
    rec.set("core.local_bytes", cost.local_bytes, "B");
    rec.set("core.dual_bytes", cost.dual_bytes, "B");
    rec.set("core.residual_bytes", cost.residual_bytes, "B");
    rec.set("core.local_flops", cost.local_flops, "flop");
    rec.exact_counts["core.global_bytes"] = std::llround(cost.global_bytes);
    rec.exact_counts["core.local_bytes"] = std::llround(cost.local_bytes);
    rec.exact_counts["core.dual_bytes"] = std::llround(cost.dual_bytes);
    rec.exact_counts["core.residual_bytes"] = std::llround(cost.residual_bytes);
  }

  // Wire codec: request and response, encode and decode, per request.
  {
    std::vector<double> us;
    for (int k = 0; k < 2000; ++k) {
      const Content& c = mix[k % mix.size()];
      const auto req = make_request(c, k + 1);
      const std::int64_t t0 = now_ns();
      const auto req_frame =
          dopf::serve::encode_frame(Op::kSolveRequest, req.encode());
      const auto req_back = dopf::serve::SolveRequest::decode(
          dopf::serve::decode_frame(req_frame).payload);
      const auto resp_frame = dopf::serve::encode_frame(
          Op::kSolveResponse, expected[k % mix.size()]);
      const auto resp_back = dopf::serve::SolveResponse::decode(
          dopf::serve::decode_frame(resp_frame).payload);
      us.push_back((now_ns() - t0) * 1e-3);
      if (req_back.request_id != req.request_id || resp_back.iterations == 0) {
        rec.fail("wire codec round trip failed");
      }
    }
    rec.set("serve.wire_codec_us", median(us), "us");
  }

  const long long hits = metric_field(metrics, "hits");
  const long long solved = metric_field(metrics, "solved");
  rec.set("serve.cache_hit_ratio",
          hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0,
          "ratio");
  rec.set("serve.refactorizations_per_request",
          solved > 0 ? static_cast<double>(
                           metric_field(metrics, "refactorizations")) /
                           solved
                     : 0,
          "ratio");
  rec.set("serve.shed_frac",
          over.sent > 0 ? static_cast<double>(over.shed) / over.sent : 0,
          "ratio");
  rec.set("serve.worker_restarts",
          static_cast<double>(metric_field(metrics, "restarts")), "count");
  rec.set("bench.gen_lag_p95_ms", percentile(lateness, 0.95), "ms");
  rec.set("bench.trace_overhead_frac", (traced_s - untraced_s) / untraced_s,
          "ratio");
  rec.trace_file = args.out_dir + "/trace-serve-mix-" +
                   std::to_string(args.seed) + ".json";
  tracer.write(rec.trace_file, args);
}

}  // namespace perfbench

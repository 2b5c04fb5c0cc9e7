// dopf_serve — long-lived distributed-OPF solve server with supervised
// worker subprocesses (crash isolation).
//
// Usage:
//   dopf_serve --socket PATH [options]
//
//   --socket PATH         unix-domain socket to listen on (required)
//   --workers N           supervised solve worker subprocesses (default 2)
//   --queue-depth N       bounded request ring depth (default 16); a full
//                         ring sheds with a typed kOverloaded rejection
//   --max-conns N         concurrent client connection cap (default 64);
//                         excess connections shed with kOverloaded
//   --cache-budget-mb M   per-worker model-cache resident budget (default
//                         256)
//   --checkpoint-dir DIR  durable drain checkpoints for in-flight solves;
//                         without it drained work is shed, not resumable
//   --serve-faults SPEC   deterministic transport fault schedule, e.g.
//                         "drop:op=2,frame=response;delay:op=1,ms=80"
//                         (see src/serve/fault.hpp)
//   --crash-faults SPEC   deterministic worker-crash schedule keyed by
//                         dispatch ordinal, e.g. "signal:request=2" or
//                         "exit:request=5;hang:request=7" (see
//                         src/serve/supervisor.hpp)
//   --io-faults SPEC      filesystem failpoints forwarded to the workers'
//                         durable checkpoint I/O (src/runtime/fault.hpp)
//   --restart-budget N    worker restarts per slot before it degrades
//                         (default 8); a degraded server sheds typed, it
//                         never exits on a worker crash
//   --hang-timeout-ms N   SIGKILL a worker that takes longer than N ms to
//                         answer one dispatch (default 0 = disabled)
//   --quarantine-ttl-ms N how long a twice-crashing request content hash
//                         stays quarantined before readmission (default
//                         60000)
//   --no-fsync            skip fsync in drain checkpoints (tests on tmpfs)
//   --metrics-json        print a JSON stats object on exit (field names
//                         shared with dopf_solve --json)
//
// Worker mode (internal; the supervisor execs these):
//   dopf_serve --worker --worker-fd N [--cache-budget-mb M]
//     [--checkpoint-dir DIR] [--io-faults SPEC] [--no-fsync]
//
// Lifecycle: serves until SIGTERM/SIGINT, then drains — stops admitting,
// forwards the signal to the workers (in-flight solves checkpoint durably,
// kDrained), sheds queued-but-unstarted work with kShuttingDown, collects
// worker farewell stats, joins, exits. A worker crash (SIGSEGV, SIGABRT,
// OOM kill, unclean exit) is contained: the victim request is re-queued
// once, the worker restarted under a jittered backoff, and content that
// crashes workers twice is quarantined with a typed kQuarantined reject.
//
// Exit codes: 0 clean drain, 1 usage/startup failure, 6 drained with
// checkpoints written (resubmit those requests with resume), 7 durable
// I/O failure while checkpointing (in any worker).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/cancel.hpp"
#include "runtime/fault.hpp"
#include "runtime/signals.hpp"
#include "serve/server.hpp"
#include "serve/supervisor.hpp"
#include "serve/wire.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--workers N] [--queue-depth N]\n"
               "  [--max-conns N] [--cache-budget-mb M] [--checkpoint-dir "
               "DIR]\n"
               "  [--serve-faults SPEC] [--crash-faults SPEC] [--io-faults "
               "SPEC]\n"
               "  [--restart-budget N] [--hang-timeout-ms N]\n"
               "  [--quarantine-ttl-ms N] [--no-fsync] [--metrics-json]\n",
               argv0);
  std::exit(1);
}

dopf::core::CancelToken g_drain;

long parse_long(const char* arg, const char* what, const char* argv0) {
  char* end = nullptr;
  const long v = std::strtol(arg, &end, 10);
  if (end == arg || *end != '\0') {
    std::fprintf(stderr, "%s: bad integer value '%s' for %s\n", argv0, arg,
                 what);
    usage(argv0);
  }
  return v;
}

/// Worker mode: everything after "--worker" configures one subprocess that
/// serves solve requests over the inherited socketpair fd.
int worker_mode(int argc, char** argv) {
  dopf::serve::WorkerConfig cfg;
  int fd = -1;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg.c_str());
        std::exit(1);
      }
      return argv[++i];
    };
    if (arg == "--worker-fd") {
      fd = static_cast<int>(parse_long(next(), "--worker-fd", argv[0]));
    } else if (arg == "--cache-budget-mb") {
      cfg.cache_budget_bytes =
          static_cast<std::size_t>(
              parse_long(next(), "--cache-budget-mb", argv[0]))
          << 20;
    } else if (arg == "--checkpoint-dir") {
      cfg.checkpoint_dir = next();
    } else if (arg == "--io-faults") {
      try {
        cfg.fs_faults = dopf::runtime::FsFaultPlan::parse(next());
      } catch (const dopf::runtime::FaultError& e) {
        std::fprintf(stderr, "%s (worker): %s\n", argv[0], e.what());
        return 1;
      }
    } else if (arg == "--no-fsync") {
      cfg.durable.fsync = false;
    } else {
      std::fprintf(stderr, "%s (worker): unknown option '%s'\n", argv[0],
                   arg.c_str());
      return 1;
    }
  }
  if (fd < 0) {
    std::fprintf(stderr, "%s (worker): --worker-fd is required\n", argv[0]);
    return 1;
  }
  return dopf::serve::worker_main(fd, cfg);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--worker") == 0) {
    return worker_mode(argc, argv);
  }

  dopf::serve::ServeOptions opts;
  opts.drain = &g_drain;
  bool metrics_json = false;
  long cache_budget_mb = 256;
  std::string io_faults_spec;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s needs a value\n", argv[0], arg.c_str());
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      opts.socket_path = next();
    } else if (arg == "--workers") {
      opts.workers = static_cast<int>(parse_long(next(), "--workers", argv[0]));
    } else if (arg == "--queue-depth") {
      const long v = parse_long(next(), "--queue-depth", argv[0]);
      if (v < 1) {
        std::fprintf(stderr, "%s: --queue-depth must be >= 1\n", argv[0]);
        return 1;
      }
      opts.queue_depth = static_cast<std::size_t>(v);
    } else if (arg == "--max-conns") {
      const long v = parse_long(next(), "--max-conns", argv[0]);
      if (v < 1) {
        std::fprintf(stderr, "%s: --max-conns must be >= 1\n", argv[0]);
        return 1;
      }
      opts.max_connections = static_cast<int>(v);
    } else if (arg == "--cache-budget-mb") {
      cache_budget_mb = parse_long(next(), "--cache-budget-mb", argv[0]);
      if (cache_budget_mb < 1) {
        std::fprintf(stderr, "%s: --cache-budget-mb must be >= 1\n", argv[0]);
        return 1;
      }
      opts.cache_budget_bytes = static_cast<std::size_t>(cache_budget_mb)
                                << 20;
    } else if (arg == "--checkpoint-dir") {
      opts.checkpoint_dir = next();
    } else if (arg == "--serve-faults") {
      try {
        opts.faults = dopf::serve::ServeFaultPlan::parse(next());
      } catch (const dopf::runtime::FaultError& e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
      }
    } else if (arg == "--crash-faults") {
      try {
        opts.crash_faults = dopf::serve::CrashFaultPlan::parse(next());
      } catch (const dopf::runtime::FaultError& e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
      }
    } else if (arg == "--io-faults") {
      io_faults_spec = next();
      try {
        (void)dopf::runtime::FsFaultPlan::parse(io_faults_spec);
      } catch (const dopf::runtime::FaultError& e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
      }
    } else if (arg == "--restart-budget") {
      const long v = parse_long(next(), "--restart-budget", argv[0]);
      if (v < 0) {
        std::fprintf(stderr, "%s: --restart-budget must be >= 0\n", argv[0]);
        return 1;
      }
      opts.restart_budget = static_cast<int>(v);
    } else if (arg == "--hang-timeout-ms") {
      const long v = parse_long(next(), "--hang-timeout-ms", argv[0]);
      if (v < 0) {
        std::fprintf(stderr, "%s: --hang-timeout-ms must be >= 0\n", argv[0]);
        return 1;
      }
      opts.hang_timeout_ms = static_cast<int>(v);
    } else if (arg == "--quarantine-ttl-ms") {
      const long v = parse_long(next(), "--quarantine-ttl-ms", argv[0]);
      if (v < 1) {
        std::fprintf(stderr, "%s: --quarantine-ttl-ms must be >= 1\n",
                     argv[0]);
        return 1;
      }
      opts.quarantine_ttl_ms = static_cast<int>(v);
    } else if (arg == "--no-fsync") {
      opts.durable.fsync = false;
    } else if (arg == "--metrics-json") {
      metrics_json = true;
    } else {
      std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0], arg.c_str());
      usage(argv[0]);
    }
  }
  if (opts.socket_path.empty()) {
    std::fprintf(stderr, "%s: --socket PATH is required\n", argv[0]);
    usage(argv[0]);
  }
  if (opts.workers < 1) {
    std::fprintf(stderr, "%s: --workers must be >= 1\n", argv[0]);
    return 1;
  }

  // The worker re-exec command: /proc/self/exe survives $PATH games and
  // cwd changes; the supervisor appends "--worker-fd N" per spawn.
  opts.worker_command = {"/proc/self/exe", "--worker", "--cache-budget-mb",
                         std::to_string(cache_budget_mb)};
  if (!opts.checkpoint_dir.empty()) {
    opts.worker_command.push_back("--checkpoint-dir");
    opts.worker_command.push_back(opts.checkpoint_dir);
  }
  if (!io_faults_spec.empty()) {
    opts.worker_command.push_back("--io-faults");
    opts.worker_command.push_back(io_faults_spec);
  }
  if (!opts.durable.fsync) opts.worker_command.push_back("--no-fsync");

  dopf::runtime::install_cancel_signal_handlers(&g_drain);

  dopf::serve::Server server(opts);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: startup failed: %s\n", argv[0], e.what());
    return 1;
  }
  std::printf("dopf_serve: listening on %s (%d workers, queue %zu)\n",
              opts.socket_path.c_str(), opts.workers, opts.queue_depth);
  std::fflush(stdout);

  const int code = server.run();
  const auto st = server.stats();
  std::printf(
      "dopf_serve: drained (%s): admitted=%llu solved=%llu "
      "rejected{overload=%llu deadline=%llu preflight=%llu bad=%llu "
      "wire=%llu shutdown=%llu quarantined=%llu degraded=%llu} "
      "drained_checkpointed=%llu pings=%llu "
      "workers{crashes=%llu restarts=%llu degraded=%llu requeued=%llu "
      "quarantined=%llu} "
      "cache{hits=%llu misses=%llu evictions=%llu} "
      "faults{drop=%d corrupt=%d truncate=%d delay=%d} "
      "crash_faults{signal=%d exit=%d hang=%d}\n",
      g_drain.reason(), static_cast<unsigned long long>(st.admitted),
      static_cast<unsigned long long>(st.solved),
      static_cast<unsigned long long>(st.rejected_overload),
      static_cast<unsigned long long>(st.rejected_deadline),
      static_cast<unsigned long long>(st.rejected_preflight),
      static_cast<unsigned long long>(st.rejected_bad_request),
      static_cast<unsigned long long>(st.rejected_wire),
      static_cast<unsigned long long>(st.rejected_shutdown),
      static_cast<unsigned long long>(st.rejected_quarantined),
      static_cast<unsigned long long>(st.rejected_degraded),
      static_cast<unsigned long long>(st.drain_checkpointed),
      static_cast<unsigned long long>(st.pings),
      static_cast<unsigned long long>(st.worker_crashes),
      static_cast<unsigned long long>(st.worker_restarts),
      static_cast<unsigned long long>(st.workers_degraded),
      static_cast<unsigned long long>(st.requeued),
      static_cast<unsigned long long>(st.quarantined),
      static_cast<unsigned long long>(st.cache.hits),
      static_cast<unsigned long long>(st.cache.misses),
      static_cast<unsigned long long>(st.cache.evictions), st.faults.dropped,
      st.faults.corrupted, st.faults.truncated, st.faults.delayed,
      st.crash_faults.signaled, st.crash_faults.exited, st.crash_faults.hung);
  if (metrics_json) {
    // Same "io"/"session" vocabulary as dopf_solve --json.
    std::printf(
        "{\"admitted\":%llu,\"solved\":%llu,"
        "\"rejected\":{\"overload\":%llu,\"deadline\":%llu,"
        "\"preflight\":%llu,\"bad_request\":%llu,\"wire\":%llu,"
        "\"shutdown\":%llu,\"quarantined\":%llu,\"degraded\":%llu},"
        "\"drained_checkpointed\":%llu,"
        "\"workers\":{\"crashes\":%llu,\"restarts\":%llu,"
        "\"degraded\":%llu,\"requeued\":%llu,\"quarantined\":%llu},"
        "\"io\":{\"writes\":%d,\"reads\":%d,\"retries\":%d,"
        "\"retry_seconds\":%.6f},"
        "\"session\":{\"solves\":%d,\"cold_solves\":%d,\"warm_solves\":%d,"
        "\"precompute_reuses\":%d,\"refactorizations\":%d,"
        "\"rhs_rebinds\":%d},"
        "\"cache\":{\"hits\":%llu,\"misses\":%llu,\"evictions\":%llu,"
        "\"resident_bytes\":%zu}}\n",
        static_cast<unsigned long long>(st.admitted),
        static_cast<unsigned long long>(st.solved),
        static_cast<unsigned long long>(st.rejected_overload),
        static_cast<unsigned long long>(st.rejected_deadline),
        static_cast<unsigned long long>(st.rejected_preflight),
        static_cast<unsigned long long>(st.rejected_bad_request),
        static_cast<unsigned long long>(st.rejected_wire),
        static_cast<unsigned long long>(st.rejected_shutdown),
        static_cast<unsigned long long>(st.rejected_quarantined),
        static_cast<unsigned long long>(st.rejected_degraded),
        static_cast<unsigned long long>(st.drain_checkpointed),
        static_cast<unsigned long long>(st.worker_crashes),
        static_cast<unsigned long long>(st.worker_restarts),
        static_cast<unsigned long long>(st.workers_degraded),
        static_cast<unsigned long long>(st.requeued),
        static_cast<unsigned long long>(st.quarantined), st.io.writes,
        st.io.reads, st.io.retries, st.io.retry_seconds, st.session.solves,
        st.session.cold_solves, st.session.warm_solves,
        st.session.precompute_reuses, st.session.refactorizations,
        st.session.rhs_rebinds, static_cast<unsigned long long>(st.cache.hits),
        static_cast<unsigned long long>(st.cache.misses),
        static_cast<unsigned long long>(st.cache.evictions),
        st.cache.resident_bytes);
  }
  return code;
}

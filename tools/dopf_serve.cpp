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

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cli.hpp"
#include "core/cancel.hpp"
#include "runtime/fault.hpp"
#include "runtime/signals.hpp"
#include "serve/server.hpp"
#include "serve/supervisor.hpp"
#include "serve/wire.hpp"

namespace {

constexpr char kUsage[] =
    " --socket PATH [--workers N] [--queue-depth N]\n"
    "  [--max-conns N] [--cache-budget-mb M] [--checkpoint-dir DIR]\n"
    "  [--serve-faults SPEC] [--crash-faults SPEC] [--io-faults SPEC]\n"
    "  [--restart-budget N] [--hang-timeout-ms N]\n"
    "  [--quarantine-ttl-ms N] [--no-fsync] [--metrics-json]\n";

/// The largest --cache-budget-mb whose byte count fits a size_t.
constexpr std::size_t kMaxCacheBudgetMb = SIZE_MAX >> 20;

dopf::core::CancelToken g_drain;

/// Worker mode: everything after "--worker" configures one subprocess that
/// serves solve requests over the inherited socketpair fd.
int worker_mode(int argc, char** argv) {
  dopf::serve::WorkerConfig cfg;
  int fd = -1;
  dopf::cli::Args args(argc, argv, 2);
  while (args.next()) {
    const std::string& arg = args.flag();
    if (arg == "--worker-fd") {
      fd = args.integer(0);
    } else if (arg == "--cache-budget-mb") {
      cfg.cache_budget_bytes = args.integer<std::size_t>(1, kMaxCacheBudgetMb)
                               << 20;
    } else if (arg == "--checkpoint-dir") {
      cfg.checkpoint_dir = args.value();
    } else if (arg == "--io-faults") {
      cfg.fs_faults = args.plan<dopf::runtime::FsFaultPlan>();
    } else if (arg == "--no-fsync") {
      cfg.durable.fsync = false;
    } else {
      args.unknown();
    }
  }
  dopf::cli::check({{fd < 0, "--worker-fd is required"}});
  return dopf::serve::worker_main(fd, cfg);
}

}  // namespace

int main(int argc, char** argv) {
  dopf::serve::ServeOptions opts;
  opts.drain = &g_drain;
  bool metrics_json = false;
  std::size_t cache_budget_mb = 256;
  std::string io_faults_spec;

  try {
    if (argc > 1 && std::strcmp(argv[1], "--worker") == 0) {
      return worker_mode(argc, argv);
    }
    dopf::cli::Args args(argc, argv);
    while (args.next()) {
      const std::string& arg = args.flag();
      if (arg == "--socket") {
        opts.socket_path = args.value();
      } else if (arg == "--workers") {
        opts.workers = args.integer(1);
      } else if (arg == "--queue-depth") {
        opts.queue_depth = args.integer<std::size_t>(1);
      } else if (arg == "--max-conns") {
        opts.max_connections = args.integer(1);
      } else if (arg == "--cache-budget-mb") {
        cache_budget_mb = args.integer<std::size_t>(1, kMaxCacheBudgetMb);
        opts.cache_budget_bytes = cache_budget_mb << 20;
      } else if (arg == "--checkpoint-dir") {
        opts.checkpoint_dir = args.value();
      } else if (arg == "--serve-faults") {
        opts.faults = args.plan<dopf::serve::ServeFaultPlan>();
      } else if (arg == "--crash-faults") {
        opts.crash_faults = args.plan<dopf::serve::CrashFaultPlan>();
      } else if (arg == "--io-faults") {
        // Checked here, forwarded verbatim to every worker.
        io_faults_spec = args.value();
        (void)args.plan<dopf::runtime::FsFaultPlan>();
      } else if (arg == "--restart-budget") {
        opts.restart_budget = args.integer(0);
      } else if (arg == "--hang-timeout-ms") {
        opts.hang_timeout_ms = args.integer(0);
      } else if (arg == "--quarantine-ttl-ms") {
        opts.quarantine_ttl_ms = args.integer(1);
      } else if (arg == "--no-fsync") {
        opts.durable.fsync = false;
      } else if (arg == "--metrics-json") {
        metrics_json = true;
      } else {
        args.unknown();
      }
    }
    dopf::cli::check({{opts.socket_path.empty(), "--socket PATH is required"}});
  } catch (const dopf::cli::UsageError& e) {
    return dopf::cli::refuse(argv[0], e, kUsage);
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

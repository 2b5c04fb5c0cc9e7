// dopf_solve — command-line distributed OPF solver.
//
// Usage:
//   dopf_solve [options] <feeder-file | builtin:NAME>
//
//   builtin:NAME          one of ieee13, ieee123, ieee8500, ieee8500_mini
//   --algorithm ALG       solver-free (default) | benchmark | reference
//   --backend B           serial (default) | threaded | simt | multigpu
//                         (solver-free only)
//   --threads N           worker threads for --backend threaded
//                         (default: hardware concurrency; refused with
//                         any other backend)
//   --devices N           simulated devices for --backend multigpu (default
//                         2; refused with any other backend)
//   --rho R               ADMM penalty, finite and > 0 (default 100)
//   --eps E               relative tolerance, finite and > 0 (default 1e-3)
//   --max-iters N         iteration cap (default 200000)
//   --relaxation A        over-relaxation factor in (0, 2) (default 1.0;
//                         every solver-free backend)
//   --faults SPEC         deterministic fault schedule (multigpu only), e.g.
//                         "kill:device=1,iter=137;straggle:device=2,iter=5,
//                         until=20,factor=4" (see runtime/fault.hpp)
//   --no-recovery         disable failover + message verification (faults
//                         then corrupt or abort the run — for testing)
//   --degrade             enable graceful degradation (multigpu only):
//                         bounded-staleness consensus + device quarantine
//                         instead of blocking on persistent faults
//   --staleness-bound S   iterations a degraded device may stay stale
//                         before quarantine (default 8; implies --degrade)
//   --watchdog            enable the convergence watchdog (stall detection,
//                         rho nudge, restart-from-best, kStalled).
//                         --watchdog and the three checkpoint flags below
//                         require --algorithm solver-free
//   --checkpoint-every N  capture a restart checkpoint every N iterations
//                         (multigpu refreshes its in-memory failover
//                         restart point at this cadence even without FILE)
//   --checkpoint FILE     checkpoint file to (over)write
//   --resume FILE         restore state from FILE before solving (any
//                         solver-free backend)
//   --preflight MODE      input sanitation + conditioning analysis before
//                         solving: off | warn (default) | auto | strict.
//                         warn reports and rejects only hard errors; auto
//                         additionally remediates (row equilibration +
//                         reported Tikhonov ridge); strict also refuses
//                         numerically degenerate component blocks
//   --strict              shorthand for --preflight strict
//   --preflight-only      run preflight, print the report, and exit without
//                         solving (0 accepted, 5 rejected)
//   --scenarios FILE      solve a scenario sweep through the stream driver
//                         (one SolveSession; the base is step 0, scenario k
//                         step k): the feeder is precomputed once, each
//                         scenario in FILE (see src/runtime/scenario.hpp for
//                         the format) is rebound in place and warm-started
//                         from the previous solution. Requires --algorithm
//                         solver-free; runs on every --backend
//   --stream FILE         receding-horizon streaming replay: drive one
//                         long-lived SolveSession through the time-series
//                         profile in FILE (see src/stream/profile.hpp for
//                         the format), warm-starting every step from the
//                         previous consensus and refactorizing only
//                         switched components. Requires --algorithm
//                         solver-free; runs on every --backend, and a
//                         multigpu --faults plan applies to the session's
//                         backend (DESIGN.md section 7). With --stream,
//                         --checkpoint FILE + --checkpoint-at-step K
//                         capture a stream checkpoint after step K, and
//                         --resume FILE fast-forwards to the checkpoint
//                         step and replays the remaining steps
//                         byte-identically.
//   --stream-record FILE  with --stream, write the deterministic replay
//                         record (hex-float, byte-identical across runs)
//   --checkpoint-at-step K  with --stream, capture the checkpoint after
//                         step K (requires --checkpoint FILE)
//   --checkpoint-every-steps N  with --stream, durably checkpoint every N
//                         completed steps into the generation-numbered A/B
//                         pair FILE.a/FILE.b (requires --checkpoint FILE);
//                         --resume FILE picks the newest valid generation
//                         and falls back to the previous one when the
//                         newest is torn
//   --deadline S          cooperative deadline: cancel the solve/stream S
//                         seconds after start (S finite and >= 0; 0 = none;
//                         exit code 6; with --stream and --checkpoint, a
//                         final durable checkpoint of the last completed
//                         step is written first). The reference IPM
//                         (--algorithm reference) polls it once per
//                         iteration. SIGINT/SIGTERM trigger the same path
//   --io-faults SPEC      deterministic filesystem failpoints applied to
//                         every durable write/read, e.g.
//                         "enospc:op=3,times=2,path=day.ckpt;crash:op=5"
//                         (see runtime/fault.hpp FsFaultPlan). Transient
//                         failures are retried with backoff and reported;
//                         exhausted retries and crashes exit 7
//   --no-fsync            skip fsync in durable writes (benchmarks only;
//                         atomic temp+rename is kept)
//   --reset-on-switch     with --stream, drop warm state on steps whose
//                         rebind refactorized a component
//   --cold-compare        with --scenarios/--stream, also solve every
//                         warm-started scenario/step cold (fresh iterate
//                         state) and report both counts
//   --json                print a machine-readable JSON summary (single
//                         solve, scenario sweep, or stream) on stdout
//   --report              print the full dispatch/voltage report
//   --residuals FILE      dump residual history as CSV
//   --output FILE         dump the solution (per-variable CSV)
//                         (these three apply to a single solve and are
//                         refused with --scenarios or --stream)
//
// Exit codes (scriptable): 0 converged/optimal, 1 usage or input errors,
// 2 iteration limit, 3 diverged, 4 stalled (watchdog gave up),
// 5 preflight rejected the input (see src/robust/preflight.hpp),
// 6 cancelled (SIGINT/SIGTERM or --deadline; durable checkpoint written
// when configured), 7 durable I/O failure (retries exhausted or an
// injected crash failpoint).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "baseline/benchmark_admm.hpp"
#include "cli.hpp"
#include "core/admm.hpp"
#include "core/cancel.hpp"
#include "opf/solution.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/durable.hpp"
#include "runtime/fault.hpp"
#include "runtime/instances.hpp"
#include "robust/preflight.hpp"
#include "runtime/scenario.hpp"
#include "runtime/signals.hpp"
#include "verify/codec.hpp"
#include "simt/backend_builder.hpp"
#include "solver/reference.hpp"
#include "stream/driver.hpp"
#include "stream/profile.hpp"

namespace {

constexpr char kUsage[] =
    " [options] <feeder-file | builtin:NAME>\n"
    "  --algorithm solver-free|benchmark|reference\n"
    "  --backend serial|threaded|simt|multigpu  --threads N  --devices N\n"
    "  --rho R  --eps E  --max-iters N  --relaxation A\n"
    "  --faults SPEC  --no-recovery\n"
    "  --degrade  --staleness-bound S  --watchdog\n"
    "  --checkpoint-every N  --checkpoint FILE  --resume FILE\n"
    "  --preflight off|warn|auto|strict  --strict  --preflight-only\n"
    "  --scenarios FILE  --cold-compare  --json\n"
    "  --stream FILE  --stream-record FILE  --checkpoint-at-step K\n"
    "  --checkpoint-every-steps N  --reset-on-switch\n"
    "  --deadline S  --io-faults SPEC  --no-fsync\n"
    "  --report  --residuals FILE  --output FILE\n";

/// Process-wide cancellation token: SIGINT/SIGTERM and --deadline feed it,
/// every solver loop and stream step boundary polls it.
dopf::core::CancelToken g_cancel;

/// The pinned exit code of a solve that ended with `status`.
int exit_code_for(dopf::core::AdmmStatus status) {
  using dopf::core::AdmmStatus;
  switch (status) {
    case AdmmStatus::kConverged: return 0;
    case AdmmStatus::kDiverged: return 3;
    case AdmmStatus::kStalled: return 4;
    case AdmmStatus::kCancelled: return 6;
    case AdmmStatus::kIterationLimit: break;
  }
  return 2;
}

void print_result_json(const dopf::core::AdmmResult& res,
                       const std::string& algorithm,
                       const std::string& backend,
                       const dopf::runtime::IoStats& io) {
  // "io" counts the durable checkpoint traffic of this run; "session" uses
  // the SessionStats vocabulary (core/solve_session.hpp) so single-shot
  // runs, sweeps and the serve metrics all speak the same field names. A
  // single-shot run is by definition one cold solve with no rebinds.
  std::printf(
      "{\"algorithm\":\"%s\",\"backend\":\"%s\",\"status\":\"%s\","
      "\"converged\":%s,\"warm_started\":%s,\"iterations\":%d,"
      "\"objective\":%.17g,\"objective_hex\":\"%s\","
      "\"primal_residual\":%.17g,"
      "\"dual_residual\":%.17g,\"timing\":{\"total\":%.6f,"
      "\"precompute\":%.6f,\"global_update\":%.6f,\"local_update\":%.6f,"
      "\"dual_update\":%.6f,\"precompute_reuse_count\":%d,"
      "\"refactorizations\":%d},"
      "\"io\":{\"writes\":%d,\"reads\":%d,\"retries\":%d,"
      "\"retry_seconds\":%.6f},"
      "\"session\":{\"solves\":1,\"cold_solves\":%d,\"warm_solves\":%d,"
      "\"precompute_reuses\":%d,\"refactorizations\":%d,"
      "\"rhs_rebinds\":0}}\n",
      algorithm.c_str(), backend.c_str(), dopf::core::to_string(res.status),
      res.converged ? "true" : "false", res.warm_started ? "true" : "false",
      res.iterations, res.objective,
      dopf::verify::hex_double(res.objective).c_str(), res.primal_residual,
      res.dual_residual, res.timing.total(), res.timing.precompute,
      res.timing.global_update, res.timing.local_update,
      res.timing.dual_update, res.timing.precompute_reuse_count,
      res.timing.refactorizations, io.writes, io.reads, io.retries,
      io.retry_seconds, res.warm_started ? 0 : 1, res.warm_started ? 1 : 0,
      res.timing.precompute_reuse_count, res.timing.refactorizations);
}

/// " vs C cold" for a step with a cold comparison, else "".
std::string cold_suffix(const dopf::stream::StreamStepRecord& rec) {
  return rec.cold_iterations >= 0
             ? " vs " + std::to_string(rec.cold_iterations) + " cold"
             : "";
}

/// Scenario sweep: the scenarios run through the stream driver as a profile
/// (stream::profile_from_scenarios: step 0 is the base network, step k is
/// scenario k), so the base, prepared once by main, is precomputed exactly
/// once and each scenario is rebound in place and warm-started from the
/// previous solution. Only the sweep's printing lives here.
int run_scenario_sweep(const dopf::network::Network& net,
                       dopf::robust::PreparedProblem base,
                       const std::string& label,
                       const std::string& scenario_file,
                       const dopf::stream::StreamOptions& sopt,
                       const std::string& backend_label, bool json) {
  const auto scenarios = dopf::runtime::load_scenarios(scenario_file);
  std::printf("scenario sweep: %zu scenario(s) from %s\n", scenarios.size(),
              scenario_file.c_str());
  // A scenario naming an unknown component exits 1 before any solve.
  for (const auto& sc : scenarios) dopf::runtime::apply_scenario(net, sc);
  auto name_of = [&](int step) {
    return step == 0 ? std::string("base") : scenarios[step - 1].name;
  };

  const auto profile = dopf::stream::profile_from_scenarios(scenarios);
  dopf::stream::StreamResult result;
  try {
    result =
        dopf::stream::StreamDriver(net, std::move(base), profile, sopt).run();
  } catch (const dopf::stream::StreamPreflightError& e) {
    std::fprintf(stderr, "scenario '%s' rejected by preflight at %s\n",
                 name_of(e.step()).c_str(), e.what());
    return 5;
  }

  int code = 0;
  for (const auto& rec : result.steps) {
    if (rec.step == 0) {
      std::printf(
          "  base: %s in %d iterations (cold), objective %.8f, "
          "precompute %.2fs\n",
          dopf::core::to_string(rec.status), rec.iterations, rec.objective,
          result.precompute_seconds);
    } else {
      std::printf(
          "  %s: %s in %d iterations (%s)%s, objective %.8f "
          "[%d refactorization(s), %d rhs rebind(s), %d unchanged]\n",
          name_of(rec.step).c_str(), dopf::core::to_string(rec.status),
          rec.iterations, rec.warm_started ? "warm" : "cold",
          cold_suffix(rec).c_str(), rec.objective,
          rec.rebind.refactorizations, rec.rebind.rhs_rebinds,
          rec.rebind.unchanged);
    }
    code = std::max(code, exit_code_for(rec.status));
  }
  std::printf("%s", result.fault_report.c_str());
  const auto& st = result.session;
  std::printf(
      "session: %d solve(s) (%d cold, %d warm), 1 full precompute, "
      "%d precompute reuse(s), %d refactorization(s), %d rhs rebind(s)\n",
      st.solves, st.cold_solves, st.warm_solves, st.precompute_reuses,
      st.refactorizations, st.rhs_rebinds);
  if (result.cancelled) {
    code = 6;
    std::printf("scenario sweep cancelled (%s): %zu of %d row(s) completed\n",
                result.cancel_reason.c_str(), result.steps.size(),
                profile.num_steps);
  }

  if (json) {
    std::printf("{\"feeder\":\"%s\",\"backend\":\"%s\",\"scenarios\":[",
                label.c_str(), backend_label.c_str());
    for (std::size_t i = 0; i < result.steps.size(); ++i) {
      const auto& r = result.steps[i];
      std::printf(
          "%s{\"name\":\"%s\",\"status\":\"%s\",\"converged\":%s,"
          "\"warm_started\":%s,\"iterations\":%d,\"cold_iterations\":%d,"
          "\"objective\":%.17g,\"refactorizations\":%d,\"rhs_rebinds\":%d,"
          "\"components_unchanged\":%d,\"components_reused\":%zu,"
          "\"precompute_reuse_count\":%d}",
          i == 0 ? "" : ",", name_of(r.step).c_str(),
          dopf::core::to_string(r.status), r.converged ? "true" : "false",
          r.warm_started ? "true" : "false", r.iterations, r.cold_iterations,
          r.objective, r.rebind.refactorizations, r.rebind.rhs_rebinds,
          r.rebind.unchanged, r.preflight_reused, r.precompute_reuse_count);
    }
    std::printf(
        "],\"session\":{\"solves\":%d,\"cold_solves\":%d,\"warm_solves\":%d,"
        "\"precompute_reuses\":%d,\"refactorizations\":%d,"
        "\"rhs_rebinds\":%d,\"precompute_seconds\":%.6f}}\n",
        st.solves, st.cold_solves, st.warm_solves, st.precompute_reuses,
        st.refactorizations, st.rhs_rebinds, result.precompute_seconds);
  }
  return code;
}

/// Streaming replay: one long-lived SolveSession consumes the profile step
/// by step; load-only steps rebind without refactorizing, switching events
/// refresh exactly the touched components, every step warm-starts from the
/// previous consensus.
int run_stream(const dopf::network::Network& net,
               dopf::robust::PreparedProblem base, const std::string& label,
               const std::string& profile_file,
               const dopf::stream::StreamOptions& sopt,
               const std::string& backend_label,
               const std::string& record_file, bool json) {
  const auto profile = dopf::stream::load_profile(profile_file);
  std::printf("stream: profile '%s', %d step(s), dt %.0fs, %zu block(s)\n",
              profile.name.c_str(), profile.num_steps, profile.dt_seconds,
              profile.blocks.size());
  const std::string& checkpoint_file = sopt.checkpoint_path;

  dopf::stream::StreamResult result;
  try {
    dopf::stream::StreamDriver driver(net, std::move(base), profile, sopt);
    if (!sopt.resume_path.empty()) {
      std::printf("resuming stream from %s\n", sopt.resume_path.c_str());
    }
    result = driver.run();
  } catch (const dopf::stream::StreamPreflightError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 5;
  } catch (const dopf::stream::StreamError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  if (!result.resume_fallback.empty()) {
    std::printf("resume fallback: %s\n", result.resume_fallback.c_str());
  }

  int code = 0;
  long long warm_steps = 0;
  for (const auto& rec : result.steps) {
    std::printf(
        "  step %d: %s in %d iterations (%s)%s%s "
        "[%d refactorization(s), %d rhs rebind(s), %d unchanged]\n",
        rec.step, dopf::core::to_string(rec.status), rec.iterations,
        rec.warm_started ? "warm" : "cold", cold_suffix(rec).c_str(),
        rec.switched ? " [switched]" : "", rec.rebind.refactorizations,
        rec.rebind.rhs_rebinds, rec.rebind.unchanged);
    code = std::max(code, exit_code_for(rec.status));
    if (rec.warm_started) ++warm_steps;
  }
  std::printf("%s", result.fault_report.c_str());
  const auto& st = result.session;
  std::printf(
      "stream: %zu step(s) from step %d (%lld warm), "
      "%d component refactorization(s)\n"
      "session: %d solve(s) (%d cold, %d warm), %d precompute reuse(s), "
      "%d refactorization(s), %d rhs rebind(s)\n",
      result.steps.size(), result.first_step, warm_steps,
      result.refactorizations, st.solves, st.cold_solves, st.warm_solves,
      st.precompute_reuses, st.refactorizations, st.rhs_rebinds);
  if (sopt.cold_compare && result.cold_iterations > 0) {
    std::printf("warm/cold iteration ratio: %lld/%lld = %.3f\n",
                result.warm_iterations, result.cold_iterations,
                static_cast<double>(result.warm_iterations) /
                    static_cast<double>(result.cold_iterations));
  }
  if (result.cancelled) {
    code = 6;
    std::printf("stream cancelled (%s) after %zu completed step(s)\n",
                result.cancel_reason.c_str(), result.steps.size());
    if (!checkpoint_file.empty() && !result.steps.empty()) {
      std::printf("final durable checkpoint written to %s.a/.b (step %d)\n",
                  checkpoint_file.c_str(), result.steps.back().step);
    }
  }
  // first_step >= 0, so this also means a checkpoint step was set.
  if (sopt.checkpoint_at_step >= result.first_step && !result.cancelled) {
    std::printf("stream checkpoint written to %s (step %d)\n",
                checkpoint_file.c_str(), sopt.checkpoint_at_step);
  }
  if (result.io.writes > 0 || result.io.retries > 0) {
    std::printf(
        "durability: %d durable checkpoint write(s), %d retried attempt(s), "
        "%.2e simulated retry seconds\n",
        result.io.writes, result.io.retries, result.io.retry_seconds);
  }
  if (!record_file.empty()) {
    // The replay record goes through the same atomic durable path as
    // checkpoints (and the same failpoints): readers never see a torn
    // record file.
    std::ostringstream out;
    dopf::stream::write_records(result, profile, out);
    dopf::runtime::durable_write_file(record_file, out.str(), sopt.durable);
    std::printf("stream record written to %s\n", record_file.c_str());
  }

  if (json) {
    std::printf("{\"feeder\":\"%s\",\"backend\":\"%s\",\"profile\":\"%s\","
                "\"num_steps\":%d,\"first_step\":%d,\"steps\":[",
                label.c_str(), backend_label.c_str(), profile.name.c_str(),
                profile.num_steps, result.first_step);
    for (std::size_t i = 0; i < result.steps.size(); ++i) {
      const auto& rec = result.steps[i];
      std::printf(
          "%s{\"step\":%d,\"status\":\"%s\",\"converged\":%s,"
          "\"warm_started\":%s,\"switched\":%s,\"iterations\":%d,"
          "\"cold_iterations\":%d,\"refactorizations\":%d,"
          "\"rhs_rebinds\":%d,\"objective\":%.17g}",
          i == 0 ? "" : ",", rec.step, dopf::core::to_string(rec.status),
          rec.converged ? "true" : "false",
          rec.warm_started ? "true" : "false",
          rec.switched ? "true" : "false", rec.iterations,
          rec.cold_iterations, rec.rebind.refactorizations,
          rec.rebind.rhs_rebinds, rec.objective);
    }
    std::printf(
        "],\"session\":{\"solves\":%d,\"cold_solves\":%d,\"warm_solves\":%d,"
        "\"precompute_reuses\":%d,\"refactorizations\":%d,"
        "\"rhs_rebinds\":%d},\"model_refactorizations\":%d,"
        "\"warm_iterations\":%lld,\"cold_iterations\":%lld,"
        "\"all_converged\":%s}\n",
        st.solves, st.cold_solves, st.warm_solves, st.precompute_reuses,
        st.refactorizations, st.rhs_rebinds, result.refactorizations,
        result.warm_iterations, result.cold_iterations,
        result.all_converged ? "true" : "false");
  }
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string input, algorithm = "solver-free", residual_file, output_file;
  dopf::simt::BackendSpec backend;
  // As given: unset leaves the backend's default, and a value for a
  // backend that would ignore it is refused.
  std::optional<int> threads, devices;
  std::string checkpoint_file, resume_file;
  int checkpoint_every = 0;
  bool report = false;
  dopf::robust::PreflightMode preflight =
      dopf::robust::PreflightPolicy::kWarn;
  bool preflight_only = false;
  std::string scenario_file;
  std::string stream_file, stream_record_file;
  int checkpoint_at_step = -1;
  int checkpoint_every_steps = 0;
  bool reset_on_switch = false;
  bool cold_compare = false, json = false;
  dopf::runtime::FsFaultPlan io_fault_plan;
  double deadline_seconds = 0.0;
  bool no_fsync = false;
  dopf::core::AdmmOptions opt;
  opt.check_every = 10;

  try {
    dopf::cli::Args args(argc, argv);
    while (args.next()) {
      const std::string& arg = args.flag();
      if (arg == "--algorithm") {
        algorithm = args.value();
        if (algorithm != "solver-free" && algorithm != "benchmark" &&
            algorithm != "reference") {
          throw dopf::cli::UsageError("unknown algorithm '" + algorithm + "'");
        }
      } else if (arg == "--backend") {
        backend.name = args.value();
        if (!dopf::simt::is_backend_name(backend.name)) {
          throw dopf::cli::UsageError("unknown backend '" + backend.name +
                                      "'");
        }
      } else if (arg == "--threads") {
        threads = args.integer(0, 1024);
      } else if (arg == "--devices") {
        devices = args.integer(1, 1024);
      } else if (arg == "--rho") {
        opt.rho = args.real(dopf::core::admissible_parameter, "> 0");
      } else if (arg == "--eps") {
        opt.eps_rel = args.real(dopf::core::admissible_parameter, "> 0");
      } else if (arg == "--max-iters") {
        opt.max_iterations = args.integer(0);
      } else if (arg == "--relaxation") {
        opt.relaxation = args.real(
            [](double a) { return a > 0.0 && a < 2.0; }, "in (0, 2)");
      } else if (arg == "--faults") {
        backend.faults = args.plan<dopf::runtime::FaultPlan>();
      } else if (arg == "--no-recovery") {
        backend.recovery = false;
      } else if (arg == "--degrade") {
        backend.degrade = true;
      } else if (arg == "--staleness-bound") {
        backend.staleness_bound = args.integer(0);
        backend.degrade = true;
      } else if (arg == "--watchdog") {
        opt.watchdog = true;
      } else if (arg == "--checkpoint-every") {
        checkpoint_every = args.integer(0);
      } else if (arg == "--checkpoint") {
        checkpoint_file = args.value();
      } else if (arg == "--resume") {
        resume_file = args.value();
      } else if (arg == "--preflight") {
        preflight = args.preflight();
      } else if (arg == "--strict") {
        preflight = dopf::robust::PreflightPolicy::kStrict;
      } else if (arg == "--preflight-only") {
        preflight_only = true;
      } else if (arg == "--scenarios") {
        scenario_file = args.value();
      } else if (arg == "--stream") {
        stream_file = args.value();
      } else if (arg == "--stream-record") {
        stream_record_file = args.value();
      } else if (arg == "--checkpoint-at-step") {
        checkpoint_at_step = args.integer(0);
      } else if (arg == "--checkpoint-every-steps") {
        checkpoint_every_steps = args.integer(0);
      } else if (arg == "--deadline") {
        deadline_seconds =
            args.real([](double s) { return s >= 0.0; }, ">= 0");
      } else if (arg == "--io-faults") {
        io_fault_plan = args.plan<dopf::runtime::FsFaultPlan>();
      } else if (arg == "--no-fsync") {
        no_fsync = true;
      } else if (arg == "--reset-on-switch") {
        reset_on_switch = true;
      } else if (arg == "--cold-compare") {
        cold_compare = true;
      } else if (arg == "--json") {
        json = true;
      } else if (arg == "--report") {
        report = true;
      } else if (arg == "--residuals") {
        residual_file = args.value();
      } else if (arg == "--output") {
        output_file = args.value();
      } else if (!arg.empty() && arg[0] == '-') {
        args.unknown();
      } else {
        input = arg;
      }
    }
    const bool solver_free = algorithm == "solver-free";
    const bool sweep = !scenario_file.empty(), stream = !stream_file.empty();
    const bool checkpointing = !resume_file.empty() ||
                               !checkpoint_file.empty() ||
                               checkpoint_every > 0;
    dopf::cli::check({
        {input.empty(), "missing feeder input"},
        {dopf::simt::breaks_multigpu_only(backend), dopf::simt::kMultigpuOnly},
        {!solver_free && (backend.name != "serial" || sweep || stream),
         "--backend/--scenarios/--stream require --algorithm solver-free"},
        {!solver_free && (checkpointing || opt.watchdog),
         "--resume/--checkpoint/--checkpoint-every/--watchdog require "
         "--algorithm solver-free"},
        // multigpu keeps an in-memory restart point; other backends need a
        // file.
        {checkpoint_every > 0 && checkpoint_file.empty() &&
             backend.name != "multigpu",
         "--checkpoint-every needs --checkpoint FILE"},
        {sweep && checkpointing,
         "--scenarios is incompatible with checkpointing options"},
        {sweep && stream, "--scenarios and --stream are exclusive"},
        {stream && checkpoint_every > 0,
         "--stream uses --checkpoint-at-step, not --checkpoint-every"},
        {!stream && (checkpoint_at_step >= 0 || checkpoint_every_steps > 0 ||
                     !stream_record_file.empty() || reset_on_switch),
         "--checkpoint-at-step/--checkpoint-every-steps/--stream-record/"
         "--reset-on-switch require --stream FILE"},
        {checkpoint_at_step >= 0 && checkpoint_file.empty(),
         "--checkpoint-at-step needs --checkpoint FILE"},
        {checkpoint_every_steps > 0 && checkpoint_file.empty(),
         "--checkpoint-every-steps needs --checkpoint FILE"},
        {cold_compare && !sweep && !stream,
         "--cold-compare requires --scenarios or --stream"},
        {(sweep || stream) &&
             (!residual_file.empty() || !output_file.empty() || report),
         "--residuals/--output/--report apply to a single solve, not "
         "--scenarios or --stream"},
        {threads && backend.name != "threaded",
         "--threads requires --backend threaded"},
        {devices && backend.name != "multigpu",
         "--devices requires --backend multigpu"},
    });
    if (threads) backend.threads = *threads;
    if (devices) backend.devices = *devices;
  } catch (const dopf::cli::UsageError& e) {
    return dopf::cli::refuse(argv[0], e, kUsage);
  }
  const bool multigpu = backend.name == "multigpu";

  // Cooperative shutdown: a signal (or the deadline) flips the token; the
  // solver loops notice at their next termination check, checkpoint
  // durably, and exit with the pinned code 6 — never a torn file. The
  // handlers are installed via sigaction WITHOUT SA_RESTART so a signal
  // also interrupts blocked I/O (shared with dopf_serve).
  dopf::runtime::install_cancel_signal_handlers(&g_cancel);
  if (deadline_seconds > 0.0) g_cancel.set_deadline_after(deadline_seconds);
  opt.cancel = &g_cancel;

  dopf::runtime::FsFaultInjector io_faults(std::move(io_fault_plan));
  dopf::runtime::DurableOptions durable;
  durable.fsync = !no_fsync;
  if (!io_faults.empty()) durable.faults = &io_faults;

  try {
    const dopf::network::Network net = dopf::runtime::load_network(input);
    std::printf("%s\n", net.summary().c_str());

    // The base is prepared once, for every path (model, preflight,
    // decomposition); a rejection is the preflight report on stdout and the
    // pinned exit 5. The reference IPM reads only the model, so with
    // preflight off nothing is decomposed for it.
    if (preflight_only && !preflight) {
      preflight = dopf::robust::PreflightPolicy::kWarn;
    }
    auto prepared = algorithm == "reference" && !preflight
                        ? dopf::robust::PreparedProblem{
                              preflight, dopf::opf::build_model(net), {}, {},
                              {}, std::nullopt}
                        : dopf::robust::prepare(net, preflight);
    std::printf("model: %zu equations, %zu variables\n",
                prepared.model.num_equations(), prepared.model.num_vars());
    if (prepared.report) std::printf("%s", prepared.report->summary().c_str());
    if (preflight_only) return 0;

    if (!scenario_file.empty() || !stream_file.empty()) {
      // One stream driver, bound to the prepared base, for both; the
      // session backend's label lands in backend_label when it is built.
      std::string backend_label;
      dopf::stream::StreamOptions sopt;
      sopt.admm = opt;
      sopt.cold_compare = cold_compare;
      sopt.cancel = &g_cancel;
      sopt.make_backend = [&](const dopf::core::PackedLocalSolvers& pack) {
        return dopf::simt::make_backend(backend, pack, &backend_label);
      };
      if (!scenario_file.empty()) {
        return run_scenario_sweep(net, std::move(prepared), input,
                                  scenario_file, sopt, backend_label, json);
      }
      sopt.reset_on_switch = reset_on_switch;
      sopt.checkpoint_at_step = checkpoint_at_step;
      sopt.checkpoint_every_steps = checkpoint_every_steps;
      sopt.checkpoint_path = checkpoint_file;
      sopt.resume_path = resume_file;
      sopt.durable = durable;
      return run_stream(net, std::move(prepared), input, stream_file, sopt,
                        backend_label, stream_record_file, json);
    }

    const dopf::opf::OpfModel& model = prepared.model;
    opt.projector = prepared.projector;

    std::vector<double> x;
    int code = 2;
    std::vector<dopf::core::IterationRecord> history;

    if (algorithm == "reference") {
      dopf::solver::ReferenceOptions ref;
      ref.lp.cancel = &g_cancel;
      const auto sol = dopf::solver::reference_solve(model, ref);
      std::printf("reference IPM: %s, objective %.8f, %d iterations\n",
                  dopf::solver::to_string(sol.status), sol.objective,
                  sol.iterations);
      x = sol.x;
      if (sol.status == dopf::solver::LpStatus::kOptimal) code = 0;
      if (sol.status == dopf::solver::LpStatus::kCancelled) {
        std::printf("cancelled (%s) after %d iteration(s)\n",
                    g_cancel.reason(), sol.iterations);
        code = 6;
      }
    } else {
      const dopf::opf::DistributedProblem& problem = prepared.problem;
      std::printf("decomposition: %zu components\n",
                  problem.num_components());
      std::string backend_label = backend.name;
      dopf::core::AdmmResult res;
      dopf::runtime::IoStats run_io;  // durable checkpoint traffic (--json)
      if (algorithm == "benchmark") {
        dopf::baseline::BenchmarkAdmm admm(problem, opt);
        res = admm.solve();
      } else {
        // One driver for every backend: options, statuses, checkpoints and
        // resume behave the same whichever backend executes the kernels.
        dopf::core::SolverFreeAdmm admm(problem, opt);
        admm.set_backend(
            dopf::simt::make_backend(backend, admm.packed(), &backend_label));
        if (!resume_file.empty()) {
          const auto ck = dopf::runtime::load_checkpoint(resume_file, durable);
          ck.restore(&admm);
          ++run_io.reads;
          std::printf("resumed from %s (iteration %d)\n", resume_file.c_str(),
                      ck.iteration);
        }
        if (checkpoint_every > 0) {
          // The cadence also refreshes a rewinding backend's in-memory
          // restart point; --checkpoint additionally persists each one.
          dopf::core::SolverFreeAdmm::CheckpointHook hook;
          if (!checkpoint_file.empty()) {
            hook = [&](const dopf::core::SolverFreeAdmm& solver,
                       int iteration) {
              run_io += dopf::runtime::save_checkpoint(
                  dopf::runtime::AdmmCheckpoint::capture(solver, iteration,
                                                         input),
                  checkpoint_file, durable);
            };
          }
          admm.set_checkpoint_hook(checkpoint_every, std::move(hook));
        }
        res = admm.solve();
        if (res.status == dopf::core::AdmmStatus::kCancelled &&
            !checkpoint_file.empty()) {
          // Graceful shutdown contract: the last complete iterate goes out
          // durably before the pinned exit code 6.
          run_io += dopf::runtime::save_checkpoint(
              dopf::runtime::AdmmCheckpoint::capture(admm, res.iterations,
                                                     input),
              checkpoint_file, durable);
          std::printf("final durable checkpoint written to %s (iteration %d)\n",
                      checkpoint_file.c_str(), res.iterations);
        }
        std::printf("%s", admm.backend().fault_report().c_str());
      }
      // SIMT and multigpu report cost-model seconds, not host wall time.
      const bool simulated = backend.name == "simt" || multigpu;
      std::printf(
          "%s ADMM [backend: %s]: %s in %d iterations, objective %.8f\n"
          "residuals: primal %.3e dual %.3e; %s %.2fs "
          "(global %.2fs local %.2fs dual %.2fs, +%.2fs precompute)\n",
          algorithm.c_str(), backend_label.c_str(),
          dopf::core::to_string(res.status), res.iterations,
          res.objective, res.primal_residual, res.dual_residual,
          simulated ? "simulated" : "wall", res.timing.total(),
          res.timing.global_update, res.timing.local_update,
          res.timing.dual_update, res.timing.precompute);
      if (opt.watchdog && res.watchdog.stalls > 0) {
        std::printf(
            "watchdog: %d stall(s)%s, %d rho nudge(s), %d restart(s) from "
            "best iterate\n",
            res.watchdog.stalls,
            res.watchdog.oscillation_detected ? " (oscillating)" : "",
            res.watchdog.rho_nudges, res.watchdog.restarts);
      }
      if (res.status == dopf::core::AdmmStatus::kCancelled) {
        std::printf("cancelled (%s) after %d iteration(s)\n",
                    g_cancel.reason(), res.iterations);
      }
      if (json) print_result_json(res, algorithm, backend_label, run_io);
      x = res.x;
      code = exit_code_for(res.status);
      history = res.history;
    }

    if (!residual_file.empty() && !history.empty()) {
      std::ofstream out(residual_file);
      out << "iteration,primal,dual,eps_primal,eps_dual,rho\n";
      for (const auto& r : history) {
        out << r.iteration << ',' << r.primal_residual << ','
            << r.dual_residual << ',' << r.eps_primal << ',' << r.eps_dual
            << ',' << r.rho << '\n';
      }
      std::printf("residual history written to %s\n", residual_file.c_str());
    }

    if (!output_file.empty() && !x.empty()) {
      std::ofstream out(output_file);
      out << "variable,value\n";
      for (std::size_t i = 0; i < x.size(); ++i) {
        out << model.vars.name(net, static_cast<int>(i)) << ',' << x[i]
            << '\n';
      }
      std::printf("solution written to %s\n", output_file.c_str());
    }
    if (report && !x.empty()) {
      const dopf::opf::SolutionView view(net, model, x);
      std::printf("\n%s", view.report().c_str());
    }
    return code;
  } catch (const dopf::robust::PreflightError& e) {
    std::printf("%s", e.report().summary().c_str());
    return 5;
  } catch (const dopf::runtime::SimulatedCrash& e) {
    // The crash failpoint models an abrupt process death after the temp
    // file is durable but before the rename: no cleanup, no final output,
    // just the pinned durability-failure code.
    std::fprintf(stderr, "%s\n", e.what());
    return 7;
  } catch (const dopf::runtime::IoError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 7;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

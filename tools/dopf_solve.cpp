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
//                         (default: hardware concurrency)
//   --devices N           simulated devices for --backend multigpu (default 2)
//   --rho R               ADMM penalty (default 100)
//   --eps E               relative tolerance (default 1e-3)
//   --max-iters N         iteration cap (default 200000)
//   --relaxation A        over-relaxation factor (default 1.0; serial
//                         backend only)
//   --quantize-bits B     message quantization (default 0 = exact; serial
//                         backend only)
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
//                         rho nudge, restart-from-best, kStalled)
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
//   --scenarios FILE      solve a scenario sweep through one SolveSession:
//                         the feeder is precomputed once, each scenario in
//                         FILE (see src/runtime/scenario.hpp for the format)
//                         is rebound in place and warm-started from the
//                         previous solution. Requires --algorithm
//                         solver-free with --backend serial or threaded.
//   --stream FILE         receding-horizon streaming replay: drive one
//                         long-lived SolveSession through the time-series
//                         profile in FILE (see src/stream/profile.hpp for
//                         the format), warm-starting every step from the
//                         previous consensus and refactorizing only
//                         switched components. Same algorithm/backend
//                         requirements as --scenarios. With --stream,
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
//                         seconds after start (exit code 6; with --stream
//                         and --checkpoint, a final durable checkpoint of
//                         the last completed step is written first).
//                         SIGINT/SIGTERM trigger the same path
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
//                         scenario/step cold (fresh iterate state) and
//                         report both counts
//   --json                print a machine-readable JSON summary (single
//                         solve, scenario sweep, or stream) on stdout
//   --report              print the full dispatch/voltage report
//   --residuals FILE      dump residual history as CSV
//   --output FILE         dump the solution (per-variable CSV)
//
// Exit codes (scriptable): 0 converged/optimal, 1 usage or input errors,
// 2 iteration/time limit, 3 diverged, 4 stalled (watchdog gave up),
// 5 preflight rejected the input (see src/robust/preflight.hpp),
// 6 cancelled (SIGINT/SIGTERM or --deadline; durable checkpoint written
// when configured), 7 durable I/O failure (retries exhausted or an
// injected crash failpoint).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "baseline/benchmark_admm.hpp"
#include "core/admm.hpp"
#include "core/cancel.hpp"
#include "core/scenario_binding.hpp"
#include "core/solve_model.hpp"
#include "core/solve_session.hpp"
#include "feeders/feeder_io.hpp"
#include "opf/solution.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/durable.hpp"
#include "runtime/fault.hpp"
#include "runtime/instances.hpp"
#include "robust/preflight.hpp"
#include "runtime/scenario.hpp"
#include "runtime/signals.hpp"
#include "runtime/threaded_backend.hpp"
#include "verify/codec.hpp"
#include "simt/multi_device.hpp"
#include "simt/simt_backend.hpp"
#include "solver/reference.hpp"
#include "stream/driver.hpp"
#include "stream/profile.hpp"

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] <feeder-file | builtin:NAME>\n"
      "  --algorithm solver-free|benchmark|reference\n"
      "  --backend serial|threaded|simt|multigpu  --threads N  --devices N\n"
      "  --rho R  --eps E  --max-iters N  --relaxation A  --quantize-bits B\n"
      "  --faults SPEC  --no-recovery\n"
      "  --degrade  --staleness-bound S  --watchdog\n"
      "  --checkpoint-every N  --checkpoint FILE  --resume FILE\n"
      "  --preflight off|warn|auto|strict  --strict  --preflight-only\n"
      "  --scenarios FILE  --cold-compare  --json\n"
      "  --stream FILE  --stream-record FILE  --checkpoint-at-step K\n"
      "  --checkpoint-every-steps N  --reset-on-switch\n"
      "  --deadline S  --io-faults SPEC  --no-fsync\n"
      "  --report  --residuals FILE  --output FILE\n",
      argv0);
  std::exit(1);
}

/// Process-wide cancellation token: SIGINT/SIGTERM and --deadline feed it,
/// every solver loop and stream step boundary polls it.
dopf::core::CancelToken g_cancel;

/// Strict numeric parsing: the whole token must be a number, otherwise the
/// tool prints a pointed diagnostic plus the usage text and exits 1.
const char* g_argv0 = "dopf_solve";

double parse_double(const char* arg, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(arg, &end);
  if (end == arg || *end != '\0') {
    std::fprintf(stderr, "%s: bad numeric value '%s' for %s\n", g_argv0, arg,
                 what);
    usage(g_argv0);
  }
  return v;
}

int parse_int(const char* arg, const char* what) {
  char* end = nullptr;
  const long v = std::strtol(arg, &end, 10);
  if (end == arg || *end != '\0') {
    std::fprintf(stderr, "%s: bad integer value '%s' for %s\n", g_argv0, arg,
                 what);
    usage(g_argv0);
  }
  return static_cast<int>(v);
}

/// One row of the scenario sweep, for the text table and --json.
struct SweepRow {
  std::string name;
  dopf::core::AdmmResult result;
  dopf::core::RebindStats rebind;
  std::size_t components_reused = 0;
  int cold_iterations = -1;  ///< -1 = --cold-compare off
};

int exit_code_for(const dopf::core::AdmmResult& res) {
  using dopf::core::AdmmStatus;
  if (res.converged) return 0;
  if (res.status == AdmmStatus::kDiverged) return 3;
  if (res.status == AdmmStatus::kStalled) return 4;
  if (res.status == AdmmStatus::kCancelled) return 6;
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

/// Scenario sweep: one SolveModel/ScenarioBinding/SolveSession drives every
/// scenario; topology precompute happens exactly once, each scenario is
/// rebound in place and warm-started from the previous solution.
int run_scenario_sweep(const dopf::network::Network& net,
                       const std::string& label,
                       dopf::opf::DistributedProblem problem,
                       const dopf::core::AdmmOptions& opt,
                       const std::string& scenario_file,
                       const std::string& preflight_mode,
                       const dopf::opf::DecomposeOptions& dec,
                       const std::string& backend, int threads,
                       bool cold_compare, bool json) {
  const auto scenarios = dopf::runtime::load_scenarios(scenario_file);
  std::printf("scenario sweep: %zu scenario(s) from %s\n", scenarios.size(),
              scenario_file.c_str());

  dopf::core::SolveModel solve_model(problem, opt.projector);
  dopf::core::ScenarioBinding binding(solve_model);
  dopf::core::SolveSession session(binding, opt);
  std::string backend_label = backend;
  if (backend == "threaded") {
    auto tb = std::make_unique<dopf::runtime::ThreadedBackend>(threads);
    backend_label = "threaded(" + std::to_string(tb->threads()) + " threads)";
    session.set_backend(std::move(tb));
  }

  // Cold comparisons run through a second session on the same binding:
  // same pack, same factorizations, fresh iterate state every solve.
  auto solve_cold_copy = [&]() {
    dopf::core::SolveSession cold(binding, opt);
    if (backend == "threaded") {
      cold.set_backend(
          std::make_unique<dopf::runtime::ThreadedBackend>(threads));
    }
    return cold.solve();
  };

  std::vector<SweepRow> rows;
  SweepRow base;
  base.name = "base";
  base.result = session.solve();
  base.components_reused = problem.num_components();
  std::printf(
      "  base: %s in %d iterations (cold), objective %.8f, "
      "precompute %.2fs\n",
      dopf::core::to_string(base.result.status), base.result.iterations,
      base.result.objective, base.result.timing.precompute);
  int code = exit_code_for(base.result);
  rows.push_back(std::move(base));

  for (const auto& sc : scenarios) {
    const auto net_s = dopf::runtime::apply_scenario(net, sc);
    const auto model_s = dopf::opf::build_model(net_s);
    auto problem_s = dopf::opf::decompose(net_s, model_s, dec);

    SweepRow row;
    row.name = sc.name;
    if (preflight_mode != "off") {
      dopf::robust::PreflightOptions popt;
      popt.policy = dopf::robust::parse_policy(preflight_mode);
      popt.decompose = dec;
      const auto pre = dopf::robust::run_scenario_preflight(
          solve_model.problem(), problem_s, popt);
      if (!pre.accepted) {
        std::fprintf(stderr, "scenario '%s' rejected by preflight: %s\n",
                     sc.name.c_str(), pre.rejection.c_str());
        return 5;
      }
      row.components_reused = pre.scenario_components_reused;
    }

    row.rebind = session.rebind(problem_s);
    row.result = session.solve();
    if (cold_compare) {
      row.cold_iterations = solve_cold_copy().iterations;
    }
    std::printf(
        "  %s: %s in %d iterations (%s)%s, objective %.8f "
        "[%d refactorization(s), %d rhs rebind(s), %d unchanged]\n",
        row.name.c_str(), dopf::core::to_string(row.result.status),
        row.result.iterations, row.result.warm_started ? "warm" : "cold",
        row.cold_iterations >= 0
            ? (" vs " + std::to_string(row.cold_iterations) + " cold").c_str()
            : "",
        row.result.objective, row.rebind.refactorizations,
        row.rebind.rhs_rebinds, row.rebind.unchanged);
    code = std::max(code, exit_code_for(row.result));
    rows.push_back(std::move(row));
  }

  const auto& st = session.stats();
  std::printf(
      "session: %d solve(s) (%d cold, %d warm), 1 full precompute, "
      "%d precompute reuse(s), %d refactorization(s), %d rhs rebind(s)\n",
      st.solves, st.cold_solves, st.warm_solves, st.precompute_reuses,
      st.refactorizations, st.rhs_rebinds);

  if (json) {
    std::printf("{\"feeder\":\"%s\",\"backend\":\"%s\",\"scenarios\":[",
                label.c_str(), backend_label.c_str());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      std::printf(
          "%s{\"name\":\"%s\",\"status\":\"%s\",\"converged\":%s,"
          "\"warm_started\":%s,\"iterations\":%d,\"cold_iterations\":%d,"
          "\"objective\":%.17g,\"refactorizations\":%d,\"rhs_rebinds\":%d,"
          "\"components_unchanged\":%d,\"components_reused\":%zu,"
          "\"precompute_reuse_count\":%d}",
          i == 0 ? "" : ",", r.name.c_str(),
          dopf::core::to_string(r.result.status),
          r.result.converged ? "true" : "false",
          r.result.warm_started ? "true" : "false", r.result.iterations,
          r.cold_iterations, r.result.objective, r.rebind.refactorizations,
          r.rebind.rhs_rebinds, r.rebind.unchanged, r.components_reused,
          r.result.timing.precompute_reuse_count);
    }
    std::printf(
        "],\"session\":{\"solves\":%d,\"cold_solves\":%d,\"warm_solves\":%d,"
        "\"precompute_reuses\":%d,\"refactorizations\":%d,"
        "\"rhs_rebinds\":%d,\"precompute_seconds\":%.6f}}\n",
        st.solves, st.cold_solves, st.warm_solves, st.precompute_reuses,
        st.refactorizations, st.rhs_rebinds,
        solve_model.precompute_seconds() + binding.bind_seconds());
  }
  return code;
}

int exit_code_for_step(const dopf::stream::StreamStepRecord& rec) {
  using dopf::core::AdmmStatus;
  if (rec.converged) return 0;
  if (rec.status == AdmmStatus::kDiverged) return 3;
  if (rec.status == AdmmStatus::kStalled) return 4;
  if (rec.status == AdmmStatus::kCancelled) return 6;
  return 2;
}

/// Streaming replay: one long-lived SolveSession consumes the profile step
/// by step; load-only steps rebind without refactorizing, switching events
/// refresh exactly the touched components, every step warm-starts from the
/// previous consensus.
int run_stream(const dopf::network::Network& net, const std::string& label,
               const dopf::core::AdmmOptions& opt,
               const std::string& profile_file,
               const std::string& preflight_mode,
               const dopf::opf::DecomposeOptions& dec,
               const std::string& backend, int threads, bool cold_compare,
               bool reset_on_switch, int checkpoint_at_step,
               int checkpoint_every_steps, const std::string& checkpoint_file,
               const std::string& resume_file, const std::string& record_file,
               const dopf::runtime::DurableOptions& durable, bool json) {
  const auto profile = dopf::stream::load_profile(profile_file);
  std::printf("stream: profile '%s', %d step(s), dt %.0fs, %zu block(s)\n",
              profile.name.c_str(), profile.num_steps, profile.dt_seconds,
              profile.blocks.size());

  dopf::stream::StreamOptions sopt;
  sopt.admm = opt;
  sopt.decompose = dec;
  sopt.preflight = preflight_mode;
  sopt.cold_compare = cold_compare;
  sopt.reset_on_switch = reset_on_switch;
  sopt.checkpoint_at_step = checkpoint_at_step;
  sopt.checkpoint_every_steps = checkpoint_every_steps;
  sopt.checkpoint_path = checkpoint_file;
  sopt.resume_path = resume_file;
  sopt.cancel = &g_cancel;
  sopt.durable = durable;
  std::string backend_label = backend;
  if (backend == "threaded") {
    const int n =
        dopf::runtime::ThreadedBackend(threads).threads();
    backend_label = "threaded(" + std::to_string(n) + " threads)";
    sopt.make_backend = [threads]() {
      return std::make_unique<dopf::runtime::ThreadedBackend>(threads);
    };
  }

  dopf::stream::StreamResult result;
  try {
    dopf::stream::StreamDriver driver(net, profile, sopt);
    if (!resume_file.empty()) {
      std::printf("resuming stream from %s\n", resume_file.c_str());
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
  long long warm_iters = 0, warm_steps = 0;
  for (const auto& rec : result.steps) {
    std::printf(
        "  step %d: %s in %d iterations (%s)%s%s "
        "[%d refactorization(s), %d rhs rebind(s), %d unchanged]\n",
        rec.step, dopf::core::to_string(rec.status), rec.iterations,
        rec.warm_started ? "warm" : "cold",
        rec.cold_iterations >= 0
            ? (" vs " + std::to_string(rec.cold_iterations) + " cold").c_str()
            : "",
        rec.switched ? " [switched]" : "", rec.rebind.refactorizations,
        rec.rebind.rhs_rebinds, rec.rebind.unchanged);
    code = std::max(code, exit_code_for_step(rec));
    if (rec.warm_started) {
      warm_iters += rec.iterations;
      ++warm_steps;
    }
  }
  const auto& st = result.session;
  std::printf(
      "stream: %zu step(s) from step %d (%lld warm), "
      "%d component refactorization(s)\n"
      "session: %d solve(s) (%d cold, %d warm), %d precompute reuse(s), "
      "%d refactorization(s), %d rhs rebind(s)\n",
      result.steps.size(), result.first_step, warm_steps,
      result.refactorizations, st.solves, st.cold_solves, st.warm_solves,
      st.precompute_reuses, st.refactorizations, st.rhs_rebinds);
  if (cold_compare && result.cold_iterations > 0) {
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
  if (checkpoint_at_step >= 0 && checkpoint_at_step >= result.first_step &&
      !result.cancelled) {
    std::printf("stream checkpoint written to %s (step %d)\n",
                checkpoint_file.c_str(), checkpoint_at_step);
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
    dopf::runtime::durable_write_file(record_file, out.str(), durable);
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
  g_argv0 = argv[0];
  std::string input, algorithm = "solver-free", residual_file, output_file;
  std::string backend = "serial";
  std::string fault_spec, checkpoint_file, resume_file;
  int threads = 0;  // 0 = hardware concurrency
  int devices = 2;
  int checkpoint_every = 0;
  int staleness_bound = -1;  // -1 = policy default
  bool report = false, no_recovery = false, degrade = false;
  std::string preflight_mode = "warn";
  bool preflight_only = false;
  std::string scenario_file;
  std::string stream_file, stream_record_file;
  int checkpoint_at_step = -1;
  int checkpoint_every_steps = 0;
  bool reset_on_switch = false;
  bool cold_compare = false, json = false;
  std::string io_fault_spec;
  double deadline_seconds = 0.0;
  bool no_fsync = false;
  dopf::core::AdmmOptions opt;
  opt.check_every = 10;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s expects a value\n", argv[0], arg.c_str());
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (arg == "--algorithm") {
      algorithm = next();
    } else if (arg == "--backend") {
      backend = next();
    } else if (arg == "--threads") {
      threads = parse_int(next(), "--threads");
    } else if (arg == "--devices") {
      devices = parse_int(next(), "--devices");
    } else if (arg == "--rho") {
      opt.rho = parse_double(next(), "--rho");
    } else if (arg == "--eps") {
      opt.eps_rel = parse_double(next(), "--eps");
    } else if (arg == "--max-iters") {
      opt.max_iterations = parse_int(next(), "--max-iters");
    } else if (arg == "--relaxation") {
      opt.relaxation = parse_double(next(), "--relaxation");
    } else if (arg == "--quantize-bits") {
      opt.quantize_bits = parse_int(next(), "--quantize-bits");
    } else if (arg == "--faults") {
      fault_spec = next();
    } else if (arg == "--no-recovery") {
      no_recovery = true;
    } else if (arg == "--degrade") {
      degrade = true;
    } else if (arg == "--staleness-bound") {
      staleness_bound = parse_int(next(), "--staleness-bound");
      degrade = true;
    } else if (arg == "--watchdog") {
      opt.watchdog = true;
    } else if (arg == "--checkpoint-every") {
      checkpoint_every = parse_int(next(), "--checkpoint-every");
    } else if (arg == "--checkpoint") {
      checkpoint_file = next();
    } else if (arg == "--resume") {
      resume_file = next();
    } else if (arg == "--preflight") {
      preflight_mode = next();
    } else if (arg == "--strict") {
      preflight_mode = "strict";
    } else if (arg == "--preflight-only") {
      preflight_only = true;
    } else if (arg == "--scenarios") {
      scenario_file = next();
    } else if (arg == "--stream") {
      stream_file = next();
    } else if (arg == "--stream-record") {
      stream_record_file = next();
    } else if (arg == "--checkpoint-at-step") {
      checkpoint_at_step = parse_int(next(), "--checkpoint-at-step");
    } else if (arg == "--checkpoint-every-steps") {
      checkpoint_every_steps = parse_int(next(), "--checkpoint-every-steps");
    } else if (arg == "--deadline") {
      deadline_seconds = parse_double(next(), "--deadline");
    } else if (arg == "--io-faults") {
      io_fault_spec = next();
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
      residual_file = next();
    } else if (arg == "--output") {
      output_file = next();
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "%s: unknown option %s\n", argv[0], arg.c_str());
      usage(argv[0]);
    } else {
      input = arg;
    }
  }
  if (input.empty()) {
    std::fprintf(stderr, "%s: missing feeder input\n", argv[0]);
    usage(argv[0]);
  }
  if ((opt.relaxation != 1.0 || opt.quantize_bits > 0) &&
      backend != "serial") {
    // The extensions run on a serial-only path; another backend would
    // silently not execute them.
    std::fprintf(stderr,
                 "%s: --relaxation/--quantize-bits require --backend serial\n",
                 argv[0]);
    return 1;
  }
  if (!fault_spec.empty() && backend != "multigpu") {
    std::fprintf(stderr, "%s: --faults requires --backend multigpu\n",
                 argv[0]);
    return 1;
  }
  if (degrade && backend != "multigpu") {
    std::fprintf(stderr,
                 "%s: --degrade/--staleness-bound require --backend multigpu\n",
                 argv[0]);
    return 1;
  }
  if (checkpoint_every > 0 && checkpoint_file.empty() &&
      backend != "multigpu") {
    // multigpu keeps an in-memory restart point; other backends need a file.
    std::fprintf(stderr, "%s: --checkpoint-every needs --checkpoint FILE\n",
                 argv[0]);
    return 1;
  }
  if (!scenario_file.empty()) {
    if (algorithm != "solver-free" ||
        (backend != "serial" && backend != "threaded")) {
      std::fprintf(stderr,
                   "%s: --scenarios requires --algorithm solver-free with "
                   "--backend serial or threaded\n",
                   argv[0]);
      return 1;
    }
    if (!resume_file.empty() || checkpoint_every > 0) {
      std::fprintf(stderr,
                   "%s: --scenarios is incompatible with checkpointing "
                   "options\n",
                   argv[0]);
      return 1;
    }
    if (!stream_file.empty()) {
      std::fprintf(stderr, "%s: --scenarios and --stream are exclusive\n",
                   argv[0]);
      return 1;
    }
  }
  if (!stream_file.empty()) {
    if (algorithm != "solver-free" ||
        (backend != "serial" && backend != "threaded")) {
      std::fprintf(stderr,
                   "%s: --stream requires --algorithm solver-free with "
                   "--backend serial or threaded\n",
                   argv[0]);
      return 1;
    }
    if (checkpoint_every > 0) {
      std::fprintf(stderr,
                   "%s: --stream uses --checkpoint-at-step, not "
                   "--checkpoint-every\n",
                   argv[0]);
      return 1;
    }
    if (checkpoint_at_step >= 0 && checkpoint_file.empty()) {
      std::fprintf(stderr,
                   "%s: --checkpoint-at-step needs --checkpoint FILE\n",
                   argv[0]);
      return 1;
    }
    if (checkpoint_every_steps > 0 && checkpoint_file.empty()) {
      std::fprintf(stderr,
                   "%s: --checkpoint-every-steps needs --checkpoint FILE\n",
                   argv[0]);
      return 1;
    }
  } else {
    if (checkpoint_at_step >= 0 || checkpoint_every_steps > 0 ||
        !stream_record_file.empty() || reset_on_switch) {
      std::fprintf(stderr,
                   "%s: --checkpoint-at-step/--checkpoint-every-steps/"
                   "--stream-record/--reset-on-switch require --stream FILE\n",
                   argv[0]);
      return 1;
    }
  }
  if (cold_compare && scenario_file.empty() && stream_file.empty()) {
    std::fprintf(stderr,
                 "%s: --cold-compare requires --scenarios or --stream\n",
                 argv[0]);
    return 1;
  }

  // Cooperative shutdown: a signal (or the deadline) flips the token; the
  // solver loops notice at their next termination check, checkpoint
  // durably, and exit with the pinned code 6 — never a torn file. The
  // handlers are installed via sigaction WITHOUT SA_RESTART so a signal
  // also interrupts blocked I/O (shared with dopf_serve).
  dopf::runtime::install_cancel_signal_handlers(&g_cancel);
  if (deadline_seconds > 0.0) g_cancel.set_deadline_after(deadline_seconds);
  opt.cancel = &g_cancel;

  dopf::runtime::FsFaultInjector io_faults;
  dopf::runtime::DurableOptions durable;
  durable.fsync = !no_fsync;

  try {
    if (!io_fault_spec.empty()) {
      io_faults = dopf::runtime::FsFaultInjector(
          dopf::runtime::FsFaultPlan::parse(io_fault_spec));
      durable.faults = &io_faults;
    }
    dopf::network::Network net;
    if (input.rfind("builtin:", 0) == 0) {
      net = dopf::runtime::make_instance(input.substr(8)).net;
    } else {
      net = dopf::feeders::load_feeder(input);
    }
    std::printf("%s\n", net.summary().c_str());
    const auto model = dopf::opf::build_model(net);
    std::printf("model: %zu equations, %zu variables\n",
                model.num_equations(), model.num_vars());

    // Preflight: sanitize + analyze conditioning before any solve work.
    // On acceptance the preflighted decomposition is reused below (under
    // warn/strict it is identical to a plain decompose, so traces stay
    // byte-for-byte); on rejection the report is the output and the exit
    // code is the pinned 5.
    dopf::opf::DistributedProblem preflighted;
    bool have_preflighted = false;
    bool preflight_equilibrated = false;
    if (preflight_only && preflight_mode == "off") preflight_mode = "warn";
    if (preflight_mode != "off") {
      dopf::robust::PreflightOptions popt;
      popt.policy = dopf::robust::parse_policy(preflight_mode);
      const dopf::robust::PreflightReport pre =
          dopf::robust::run_preflight(net, model, &preflighted, popt);
      std::printf("%s", pre.summary().c_str());
      if (!pre.accepted) return 5;
      have_preflighted = true;
      preflight_equilibrated = pre.equilibrated;
      opt.projector = pre.projector_options();
    }
    if (preflight_only) return 0;

    if (!stream_file.empty()) {
      // The stream driver builds its own base decomposition so checkpoint
      // fingerprints stay self-consistent; the preflighted projector
      // options and row-equilibration choice carry over through opt/dec.
      dopf::opf::DecomposeOptions dec;
      dec.equilibrate_rows = preflight_equilibrated;
      return run_stream(net, input, opt, stream_file, preflight_mode, dec,
                        backend, threads, cold_compare, reset_on_switch,
                        checkpoint_at_step, checkpoint_every_steps,
                        checkpoint_file, resume_file, stream_record_file,
                        durable, json);
    }

    if (!scenario_file.empty()) {
      auto problem = have_preflighted ? std::move(preflighted)
                                      : dopf::opf::decompose(net, model);
      std::printf("decomposition: %zu components\n",
                  problem.num_components());
      // Scenario re-decompositions must use the same profile as the base so
      // a load-only edit diffs as rhs-only against the bound model.
      dopf::opf::DecomposeOptions dec;
      dec.equilibrate_rows = preflight_equilibrated;
      return run_scenario_sweep(net, input, std::move(problem), opt,
                                scenario_file, preflight_mode, dec, backend,
                                threads, cold_compare, json);
    }

    std::vector<double> x;
    bool ok = false;
    int fail_code = 2;  // iteration/time limit; 3 = diverged, 4 = stalled
    std::vector<dopf::core::IterationRecord> history;

    if (algorithm == "reference") {
      const auto sol = dopf::solver::reference_solve(model);
      std::printf("reference IPM: %s, objective %.8f, %d iterations\n",
                  dopf::solver::to_string(sol.status), sol.objective,
                  sol.iterations);
      x = sol.x;
      ok = sol.status == dopf::solver::LpStatus::kOptimal;
    } else {
      const auto problem = have_preflighted
                               ? std::move(preflighted)
                               : dopf::opf::decompose(net, model);
      std::printf("decomposition: %zu components\n",
                  problem.num_components());
      if (backend != "serial" && algorithm != "solver-free") {
        std::fprintf(stderr, "--backend %s requires --algorithm solver-free\n",
                     backend.c_str());
        return 1;
      }
      std::string backend_label = backend;
      dopf::core::AdmmResult res;
      dopf::runtime::IoStats run_io;  // durable checkpoint traffic (--json)
      if (algorithm == "benchmark") {
        dopf::baseline::BenchmarkAdmm admm(problem, opt);
        res = admm.solve();
      } else if (algorithm == "solver-free") {
        // One driver for every backend: options, statuses, checkpoints and
        // resume behave the same whichever backend executes the kernels.
        dopf::core::SolverFreeAdmm admm(problem, opt);
        dopf::simt::MultiDeviceBackend* multi = nullptr;
        if (backend == "threaded") {
          auto tb = std::make_unique<dopf::runtime::ThreadedBackend>(threads);
          backend_label =
              "threaded(" + std::to_string(tb->threads()) + " threads)";
          admm.set_backend(std::move(tb));
        } else if (backend == "simt") {
          admm.set_backend(std::make_unique<dopf::simt::SimtBackend>());
        } else if (backend == "multigpu") {
          dopf::simt::MultiGpuOptions mo;
          mo.num_devices = static_cast<std::size_t>(std::max(1, devices));
          mo.faults = dopf::runtime::FaultPlan::parse(fault_spec);
          if (no_recovery) {
            mo.recovery.failover = false;
            mo.recovery.verify_messages = false;
          }
          mo.degrade.enabled = degrade;
          if (staleness_bound >= 0) {
            mo.degrade.staleness_bound = staleness_bound;
          }
          backend_label = "multigpu(" + std::to_string(mo.num_devices) + ")";
          auto mb = std::make_unique<dopf::simt::MultiDeviceBackend>(
              admm.packed(), std::move(mo));
          multi = mb.get();
          admm.set_backend(std::move(mb));
        } else if (backend != "serial") {
          std::fprintf(stderr, "unknown backend '%s'\n", backend.c_str());
          return 1;
        }
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
        if (multi && (multi->failovers() > 0 || multi->message_retries() > 0)) {
          std::printf(
              "fault recovery: %d failover(s), %d message retr%s, %zu/%zu "
              "devices alive, %.2e simulated recovery seconds\n",
              multi->failovers(), multi->message_retries(),
              multi->message_retries() == 1 ? "y" : "ies",
              multi->alive_devices(), multi->num_devices(),
              multi->recovery_seconds());
        }
        if (multi && multi->degraded_iterations() > 0) {
          std::printf(
              "degraded mode: %d degraded iteration(s), %d quarantine(s), "
              "%d readmission(s), %.2e simulated degrade seconds\n",
              multi->degraded_iterations(), multi->quarantines(),
              multi->readmissions(), multi->degrade_seconds());
        }
      } else {
        std::fprintf(stderr, "unknown algorithm '%s'\n", algorithm.c_str());
        return 1;
      }
      // SIMT and multigpu report cost-model seconds, not host wall time.
      const bool simulated = algorithm == "solver-free" &&
                             (backend == "simt" || backend == "multigpu");
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
      if (res.status == dopf::core::AdmmStatus::kDiverged) fail_code = 3;
      if (res.status == dopf::core::AdmmStatus::kStalled) fail_code = 4;
      if (res.status == dopf::core::AdmmStatus::kCancelled) {
        std::printf("cancelled (%s) after %d iteration(s)\n",
                    g_cancel.reason(), res.iterations);
        fail_code = 6;
      }
      if (json) print_result_json(res, algorithm, backend_label, run_io);
      x = res.x;
      ok = res.converged;
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
    return ok ? 0 : fail_code;
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

// dopf_verify — machine-checkable correctness gate for the distributed OPF
// solvers. Modes:
//
//   golden (default): run one execution backend under the pinned golden
//     profile and diff the trace byte-for-byte against the committed golden
//     file, then check the backend-independent invariants of the final
//     state. `--record` (re)writes the golden file instead of comparing.
//   --mutate: self-test. Injects a deliberate kernel perturbation and runs
//     the same comparison; the run MUST be detected (non-zero exit), which
//     proves the harness has teeth.
//   --fuzz N: property-based differential fuzzing over seeded random
//     feeders (see src/verify/fuzzer.hpp).
//   --adversarial N: run N seeded adversarial mutants (scale disparity,
//     duplicated/near-duplicate rows, inverted/degenerate boxes, orphaned
//     phases, non-finite data) through preflight + solve; every case must
//     end solved or rejected-with-diagnostic, never NaN/crash (see
//     src/verify/adversarial.hpp).
//   --backend multigpu [--faults SPEC]: run the simulated multi-device
//     solver — optionally under an injected fault schedule — and require the
//     recovered run to reproduce the fault-free golden trace byte-for-byte.
//   --resume FILE: restore a checkpoint and verify the resumed run
//     reproduces the golden trace from the restart point onward.
//   --record-checkpoint K: run the serial solver, capture the state after
//     iteration K, and write <golden-dir>/<network>.ckpt.
//
// Usage:
//   dopf_verify [options]
//   --network NAME|FILE   builtin (ieee13, ieee123, ieee8500_mini, ieee8500)
//                         or a feeder file (default ieee13)
//   --backend B           serial (default) | threaded | simt | multigpu
//   --threads N           worker threads for --backend threaded
//   --devices N           simulated devices for --backend multigpu (default 3)
//   --faults SPEC         fault schedule for multigpu (runtime/fault.hpp)
//   --no-recovery         disable failover + message CRC verification
//   --degrade             enable graceful degradation (multigpu only). The
//                         trace is then held against the golden SOLUTION
//                         within --tol instead of byte-for-byte: degraded
//                         trajectories legitimately diverge bitwise but
//                         must converge to the same answer (TESTING.md)
//   --staleness-bound S   degraded-device staleness bound (implies --degrade)
//   --watchdog            enable the convergence watchdog during the run
//   --checkpoint-every N  multigpu restart-point refresh interval (default 50
//                         when faults are injected)
//   --resume FILE         restore FILE, then verify the post-restart suffix
//   --record-checkpoint K write <golden-dir>/<network>.ckpt at iteration K
//   --golden FILE         golden trace path (overrides --golden-dir)
//   --golden-dir DIR      directory holding <network>.trace files
//                         (default: $DOPF_GOLDEN_DIR, else search for
//                         tests/golden upward from the working directory)
//   --record              write the golden trace for this run and exit
//   --reference           also check KKT stationarity / objective gap
//                         against the interior-point reference
//   --tol T               tolerance for --reference checks (default 5e-2)
//   --mutate              inject the kernel perturbation self-test
//   --fuzz N --seed S     run N fuzz cases starting at seed S
//   --adversarial N       run N adversarial mutants starting at seed S
//   --preflight MODE      preflight policy before golden runs: off | warn
//                         (default) | auto | strict. A rejection is an
//                         input error (exit 1) with the full report
//   --session             run through the explicit session layers
//                         (SolveModel -> ScenarioBinding -> SolveSession)
//                         instead of the single-shot wrapper; the trace must
//                         still match the committed golden byte-for-byte.
//                         Not available with --resume
//
// Exit codes: 0 = verified, 1 = usage/infrastructure error,
//             2 = verification failure (divergence or invariant violation).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <sys/stat.h>

#include "core/admm.hpp"
#include "core/scenario_binding.hpp"
#include "core/solve_model.hpp"
#include "core/solve_session.hpp"
#include "feeders/feeder_io.hpp"
#include "opf/validate.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fault.hpp"
#include "runtime/instances.hpp"
#include "runtime/threaded_backend.hpp"
#include "simt/multi_device.hpp"
#include "simt/simt_backend.hpp"
#include "robust/preflight.hpp"
#include "solver/reference.hpp"
#include "verify/adversarial.hpp"
#include "verify/fuzzer.hpp"
#include "verify/invariants.hpp"
#include "verify/mutation.hpp"
#include "verify/trace.hpp"

namespace {

const char* g_argv0 = "dopf_verify";

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --network NAME|FILE  --backend serial|threaded|simt|multigpu\n"
      "  --threads N  --devices N\n"
      "  --faults SPEC  --no-recovery  --checkpoint-every N\n"
      "  --degrade  --staleness-bound S  --watchdog\n"
      "  --resume FILE  --record-checkpoint K\n"
      "  --golden FILE | --golden-dir DIR  --record\n"
      "  --reference  --tol T  --mutate\n"
      "  --fuzz N  --adversarial N  --seed S\n"
      "  --preflight off|warn|auto|strict  --session\n",
      argv0);
  std::exit(1);
}

/// Strict numeric parsing: reject trailing junk ("1abc") with a pointed
/// diagnostic plus the usage text, exit 1.
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

std::uint64_t parse_u64(const char* arg, const char* what) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(arg, &end, 10);
  if (end == arg || *end != '\0') {
    std::fprintf(stderr, "%s: bad integer value '%s' for %s\n", g_argv0, arg,
                 what);
    usage(g_argv0);
  }
  return v;
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

bool is_builtin(const std::string& name) {
  for (const char* b : {"ieee13", "ieee123", "ieee8500", "ieee8500_mini",
                        "ieee13_overload"}) {
    if (name == b) return true;
  }
  return false;
}

/// Default golden directory: $DOPF_GOLDEN_DIR, else tests/golden searched
/// upward from the working directory (covers running from the repo root,
/// build/, or build/tools/).
std::string default_golden_dir() {
  if (const char* env = std::getenv("DOPF_GOLDEN_DIR")) return env;
  std::string prefix;
  for (int depth = 0; depth < 4; ++depth) {
    const std::string candidate = prefix + "tests/golden";
    if (file_exists(candidate)) return candidate;
    prefix += "../";
  }
  return "tests/golden";
}

std::unique_ptr<dopf::core::ExecutionBackend> make_backend(
    const std::string& name, int threads) {
  if (name == "serial") return nullptr;  // SolverFreeAdmm's built-in default
  if (name == "threaded") return dopf::runtime::make_threaded_backend(threads);
  if (name == "simt") return std::make_unique<dopf::simt::SimtBackend>();
  std::fprintf(stderr, "unknown backend '%s'\n", name.c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  g_argv0 = argv[0];
  std::string network = "ieee13", backend = "serial";
  std::string golden_file, golden_dir;
  std::string fault_spec, resume_file;
  int threads = 4;
  int devices = 3;
  int checkpoint_every = 0;
  int record_checkpoint_at = 0;
  int staleness_bound = -1;  // -1 = policy default
  bool record = false, reference = false, mutate = false, no_recovery = false;
  bool degrade = false, watchdog = false;
  int fuzz_cases = 0;
  int adversarial_cases = 0;
  std::uint64_t seed = 20250807;
  bool seed_set = false;
  std::string preflight_mode = "warn";
  bool session = false;
  double tol = 5e-2;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: %s expects a value\n", argv[0], arg.c_str());
        usage(argv[0]);
      }
      return argv[++i];
    };
    if (arg == "--network") {
      network = next();
    } else if (arg == "--backend") {
      backend = next();
    } else if (arg == "--threads") {
      threads = parse_int(next(), "--threads");
    } else if (arg == "--devices") {
      devices = parse_int(next(), "--devices");
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
      watchdog = true;
    } else if (arg == "--checkpoint-every") {
      checkpoint_every = parse_int(next(), "--checkpoint-every");
    } else if (arg == "--resume") {
      resume_file = next();
    } else if (arg == "--record-checkpoint") {
      record_checkpoint_at = parse_int(next(), "--record-checkpoint");
    } else if (arg == "--golden") {
      golden_file = next();
    } else if (arg == "--golden-dir") {
      golden_dir = next();
    } else if (arg == "--record") {
      record = true;
    } else if (arg == "--reference") {
      reference = true;
    } else if (arg == "--tol") {
      tol = parse_double(next(), "--tol");
    } else if (arg == "--mutate") {
      mutate = true;
    } else if (arg == "--fuzz") {
      fuzz_cases = parse_int(next(), "--fuzz");
    } else if (arg == "--adversarial") {
      adversarial_cases = parse_int(next(), "--adversarial");
    } else if (arg == "--preflight") {
      preflight_mode = next();
    } else if (arg == "--session") {
      session = true;
    } else if (arg == "--seed") {
      seed = parse_u64(next(), "--seed");
      seed_set = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
    } else {
      std::fprintf(stderr, "%s: unknown option %s\n", argv[0], arg.c_str());
      usage(argv[0]);
    }
  }
  if (!fault_spec.empty() && backend != "multigpu") {
    std::fprintf(stderr, "%s: --faults requires --backend multigpu\n",
                 argv[0]);
    return 1;
  }
  if (mutate && backend == "multigpu") {
    std::fprintf(stderr, "%s: --mutate is not supported with multigpu\n",
                 argv[0]);
    return 1;
  }
  if (degrade && backend != "multigpu") {
    std::fprintf(stderr,
                 "%s: --degrade/--staleness-bound require --backend multigpu\n",
                 argv[0]);
    return 1;
  }
  if (record_checkpoint_at < 0 || checkpoint_every < 0 || devices < 1) {
    std::fprintf(stderr, "%s: negative/zero count argument\n", argv[0]);
    usage(argv[0]);
  }
  if (session && !resume_file.empty()) {
    std::fprintf(stderr, "%s: --session is not supported with --resume\n",
                 argv[0]);
    return 1;
  }

  try {
    if (fuzz_cases > 0) {
      dopf::verify::FuzzOptions options;
      options.num_cases = fuzz_cases;
      options.base_seed = seed;
      options.threads = threads;
      const dopf::verify::FuzzReport report = dopf::verify::run_fuzz(options);
      std::printf("%s", report.summary().c_str());
      return report.ok() ? 0 : 2;
    }

    if (adversarial_cases > 0) {
      dopf::verify::AdversarialOptions options;
      options.num_cases = adversarial_cases;
      if (seed_set) options.base_seed = seed;
      const dopf::verify::AdversarialReport report =
          dopf::verify::run_adversarial(options);
      std::printf("%s", report.summary().c_str());
      return report.ok() ? 0 : 2;
    }

    // --- Golden-trace mode.
    dopf::network::Network net;
    std::string label = network;
    if (is_builtin(network)) {
      net = dopf::runtime::make_instance(network).net;
    } else {
      net = dopf::feeders::load_feeder(network);
      const std::size_t slash = network.find_last_of('/');
      label = slash == std::string::npos ? network : network.substr(slash + 1);
    }
    const dopf::opf::OpfModel model = dopf::opf::build_model(net);

    // Preflight gate (default warn): an input failing sanitation or — under
    // strict — conditioning never reaches the golden comparison; that is an
    // input error, not a verification failure. Under warn/strict the
    // accepted decomposition is identical to a plain decompose(), so golden
    // traces stay byte-for-byte.
    dopf::opf::DistributedProblem problem;
    if (preflight_mode != "off") {
      dopf::robust::PreflightOptions popt;
      popt.policy = dopf::robust::parse_policy(preflight_mode);
      const dopf::robust::PreflightReport pre =
          dopf::robust::run_preflight(net, model, &problem, popt);
      if (!pre.accepted) {
        std::fprintf(stderr, "%s", pre.summary().c_str());
        return 1;
      }
    } else {
      problem = dopf::opf::decompose(net, model);
    }

    if (golden_dir.empty()) golden_dir = default_golden_dir();
    if (golden_file.empty()) golden_file = golden_dir + "/" + label + ".trace";

    const dopf::core::AdmmOptions profile = dopf::verify::golden_profile();

    // --record-checkpoint K: capture the serial golden-profile state after
    // exactly iteration K and write the refresh-able committed checkpoint.
    if (record_checkpoint_at > 0) {
      const std::string ckpt_path = golden_dir + "/" + label + ".ckpt";
      dopf::core::SolverFreeAdmm admm(problem, profile);
      bool written = false;
      admm.set_checkpoint_hook(
          record_checkpoint_at,
          [&](const dopf::core::SolverFreeAdmm& solver, int iteration) {
            if (iteration != record_checkpoint_at) return;
            dopf::runtime::save_checkpoint(
                dopf::runtime::AdmmCheckpoint::capture(solver, iteration,
                                                       label),
                ckpt_path);
            written = true;
          });
      const dopf::core::AdmmResult result = admm.solve();
      if (!written) {
        std::fprintf(stderr,
                     "checkpoint iteration %d never reached (run ended at "
                     "%d)\n",
                     record_checkpoint_at, result.iterations);
        return 1;
      }
      std::printf("checkpoint at iteration %d written to %s\n",
                  record_checkpoint_at, ckpt_path.c_str());
      return 0;
    }

    // Restart point for --resume: only golden-trace records strictly after
    // the checkpoint iteration are expected from the resumed run.
    int resume_from = 0;
    dopf::runtime::AdmmCheckpoint resume_ck;
    if (!resume_file.empty()) {
      resume_ck = dopf::runtime::load_checkpoint(resume_file);
      resume_from = resume_ck.iteration;
    }

    // --- Run the requested execution path: one driver (SolverFreeAdmm,
    // directly or under a SolveSession) over the requested backend.
    dopf::core::AdmmResult result;
    std::vector<double> final_x, final_z;
    std::string backend_label = backend;
    dopf::core::AdmmOptions run_profile = profile;
    run_profile.watchdog = watchdog;
    dopf::simt::MultiGpuOptions mo;
    mo.num_devices = static_cast<std::size_t>(devices);
    mo.faults = dopf::runtime::FaultPlan::parse(fault_spec);
    if (no_recovery) {
      mo.recovery.failover = false;
      mo.recovery.verify_messages = false;
    }
    mo.degrade.enabled = degrade;
    if (staleness_bound >= 0) mo.degrade.staleness_bound = staleness_bound;
    // The restart point a device failover rewinds to is refreshed at the
    // checkpoint cadence (kept in memory only).
    if (checkpoint_every == 0 && !mo.faults.empty()) checkpoint_every = 50;
    dopf::simt::MultiDeviceBackend* multi = nullptr;
    auto attach_backend = [&](dopf::core::SolverFreeAdmm& admm) {
      std::unique_ptr<dopf::core::ExecutionBackend> exec;
      if (backend == "multigpu") {
        auto mb = std::make_unique<dopf::simt::MultiDeviceBackend>(
            admm.packed(), mo);
        multi = mb.get();
        exec = std::move(mb);
        backend_label = "multigpu(" + std::to_string(mo.num_devices) + ")";
      } else {
        exec = make_backend(backend, threads);
      }
      if (mutate) {
        if (!exec) exec = dopf::core::make_serial_backend();
        exec = dopf::verify::make_mutant_backend(std::move(exec));
        backend_label = "mutant(" + backend + ")";
      }
      if (exec) admm.set_backend(std::move(exec));
      if (checkpoint_every > 0) admm.set_checkpoint_hook(checkpoint_every, {});
    };
    // Fault/degrade counters, printed while the backend is still alive.
    auto report_multi = [&]() {
      if (multi && !fault_spec.empty()) {
        std::printf(
            "faults injected: %s\n"
            "recovery: %d failover(s), %d message retr%s, %zu/%zu devices "
            "alive, %.2e simulated recovery seconds\n",
            mo.faults.to_string().c_str(), multi->failovers(),
            multi->message_retries(),
            multi->message_retries() == 1 ? "y" : "ies",
            multi->alive_devices(), multi->num_devices(),
            multi->recovery_seconds());
      }
      if (multi && degrade) {
        std::printf(
            "degraded mode: %d degraded iteration(s), %d quarantine(s), "
            "%d readmission(s), %.2e simulated degrade seconds\n",
            multi->degraded_iterations(), multi->quarantines(),
            multi->readmissions(), multi->degrade_seconds());
      }
    };
    if (session) {
      // Explicit session layers: the packed image the session binds must be
      // bit-identical to the single-shot wrapper's, so the golden trace
      // still matches byte-for-byte.
      dopf::core::SolveModel solve_model(problem, run_profile.projector);
      dopf::core::ScenarioBinding binding(solve_model);
      dopf::core::SolveSession sess(binding, run_profile);
      attach_backend(sess.solver());
      backend_label += "+session";
      result = sess.solve();
      report_multi();
      final_x.assign(sess.solver().x().begin(), sess.solver().x().end());
      final_z.assign(sess.solver().z().begin(), sess.solver().z().end());
    } else {
      dopf::core::SolverFreeAdmm admm(problem, run_profile);
      attach_backend(admm);
      if (!resume_file.empty()) resume_ck.restore(&admm);
      result = admm.solve();
      report_multi();
      final_x.assign(admm.x().begin(), admm.x().end());
      final_z.assign(admm.z().begin(), admm.z().end());
    }
    const dopf::verify::Trace trace = dopf::verify::Trace::from_result(
        result, profile, label, backend_label);
    std::printf("%s: %s backend, %s in %d iterations, objective %.8f\n",
                label.c_str(), backend_label.c_str(),
                dopf::core::to_string(result.status), result.iterations,
                result.objective);
    if (resume_from > 0) {
      std::printf("resumed from %s (iteration %d)\n", resume_file.c_str(),
                  resume_from);
    }

    if (record) {
      if (mutate) {
        std::fprintf(stderr, "refusing to record a mutated golden trace\n");
        return 1;
      }
      if (!fault_spec.empty() || resume_from > 0) {
        std::fprintf(stderr,
                     "refusing to record a faulted or resumed golden trace\n");
        return 1;
      }
      dopf::verify::save_trace(trace, golden_file);
      std::printf("golden trace written to %s (%zu history records)\n",
                  golden_file.c_str(), trace.history.size());
      return 0;
    }

    int verdict = 0;

    // 1. Comparison against the committed golden file. The default is
    //    byte-for-byte; a resumed run only re-records the post-restart
    //    samples, so it is held against the matching suffix of the golden
    //    history. A DEGRADED run is different: stale iterations make the
    //    trajectory legitimately diverge bitwise, so only the solution it
    //    converges to is held against the golden anchor, within --tol.
    dopf::verify::Trace golden = dopf::verify::load_trace(golden_file);
    if (degrade) {
      if (!result.converged) {
        std::fprintf(stderr, "DEGRADED RUN DID NOT CONVERGE: status %s\n",
                     dopf::core::to_string(result.status));
        verdict = 2;
      } else if (golden.x.size() != final_x.size()) {
        std::fprintf(stderr,
                     "DEGRADED SOLUTION MISMATCH: %zu vs %zu variables\n",
                     golden.x.size(), final_x.size());
        verdict = 2;
      } else {
        double worst = std::abs(golden.objective - result.objective) /
                       std::max(1.0, std::abs(golden.objective));
        std::size_t worst_i = final_x.size();  // sentinel: objective
        for (std::size_t i = 0; i < final_x.size(); ++i) {
          const double err =
              std::abs(golden.x[i] - final_x[i]) /
              std::max({1.0, std::abs(golden.x[i]), std::abs(final_x[i])});
          if (err > worst) {
            worst = err;
            worst_i = i;
          }
        }
        if (worst > tol) {
          std::fprintf(
              stderr,
              "DEGRADED SOLUTION MISMATCH: worst relative error %.3e at %s "
              "exceeds tolerance %.1e\n",
              worst,
              worst_i < final_x.size()
                  ? ("x[" + std::to_string(worst_i) + "]").c_str()
                  : "objective",
              tol);
          verdict = 2;
        } else {
          std::printf(
              "golden solution %s: degraded run matches within %.1e "
              "(worst relative error %.3e)\n",
              golden_file.c_str(), tol, worst);
        }
      }
    } else {
      if (resume_from > 0) {
        golden = dopf::verify::trace_suffix(golden, resume_from);
      }
      const dopf::verify::TraceDiff diff =
          dopf::verify::compare_traces(golden, trace, 0.0);
      if (diff.identical) {
        std::printf("golden trace %s: byte-for-byte match (%zu records%s)\n",
                    golden_file.c_str(), golden.history.size(),
                    resume_from > 0 ? ", post-restart suffix" : "");
      } else {
        std::fprintf(stderr, "GOLDEN TRACE MISMATCH (%s):\n  %s\n",
                     golden_file.c_str(), diff.message.c_str());
        verdict = 2;
      }
    }

    // 2. Backend-independent invariants of the final state.
    dopf::verify::InvariantReport invariants =
        dopf::verify::check_invariants(problem, final_x, final_z);
    dopf::verify::add_model_check(model, final_x, &invariants);

    // 3. Optional: KKT stationarity/objective gap vs the centralized
    //    interior-point reference, plus the physics-level validation.
    dopf::verify::InvariantOptions inv_options;
    inv_options.kkt_tol = tol;
    inv_options.objective_tol = tol;
    inv_options.consensus_tol = tol;
    inv_options.model_residual_tol = tol;
    if (reference) {
      const dopf::solver::LpSolution ref = dopf::solver::reference_solve(model);
      if (ref.status != dopf::solver::LpStatus::kOptimal) {
        std::fprintf(stderr, "reference solve failed: %s\n",
                     dopf::solver::to_string(ref.status));
        return 1;
      }
      dopf::verify::add_reference_check(model, final_x, ref, &invariants);
      const dopf::opf::ValidationReport physics =
          dopf::opf::validate_solution(net, model, final_x);
      std::printf("physics validation: worst %.3e (%s at %s)\n",
                  physics.worst(), physics.worst_check().c_str(),
                  physics.worst_site.c_str());
      if (!physics.ok(inv_options.model_residual_tol)) {
        std::fprintf(stderr,
                     "INVARIANT VIOLATION: physics %s residual %.3e at %s "
                     "exceeds tolerance %.1e\n",
                     physics.worst_check().c_str(), physics.worst(),
                     physics.worst_site.c_str(),
                     inv_options.model_residual_tol);
        verdict = 2;
      }
    }
    std::printf("%s", invariants.to_string().c_str());
    const auto failures = invariants.failures(inv_options);
    for (const std::string& f : failures) {
      std::fprintf(stderr, "INVARIANT VIOLATION: %s\n", f.c_str());
    }
    if (!failures.empty()) verdict = 2;

    if (verdict == 0) {
      std::printf("VERIFIED: %s on %s matches golden and satisfies all "
                  "invariants\n",
                  backend_label.c_str(), label.c_str());
    }
    return verdict;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

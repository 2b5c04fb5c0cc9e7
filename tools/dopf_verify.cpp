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
//   --network NAME|FILE   builtin (runtime::is_builtin) or a feeder file
//                         (default ieee13); a bare name that is no file is
//                         read as a builtin
//   --backend B           serial (default) | threaded | simt | multigpu
//   --threads N           worker threads for --backend threaded or for the
//                         threaded leg of --fuzz (default 4)
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
//   --tol T               tolerance for --reference checks, finite and > 0
//                         (default 5e-2)
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
#include <optional>
#include <string>
#include <sys/stat.h>

#include "cli.hpp"
#include "core/admm.hpp"
#include "core/scenario_binding.hpp"
#include "core/solve_model.hpp"
#include "core/solve_session.hpp"
#include "opf/validate.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fault.hpp"
#include "runtime/instances.hpp"
#include "simt/backend_builder.hpp"
#include "robust/preflight.hpp"
#include "solver/reference.hpp"
#include "verify/adversarial.hpp"
#include "verify/fuzzer.hpp"
#include "verify/invariants.hpp"
#include "verify/mutation.hpp"
#include "verify/trace.hpp"

namespace {

constexpr char kUsage[] =
    " [options]\n"
    "  --network NAME|FILE  --backend serial|threaded|simt|multigpu\n"
    "  --threads N  --devices N\n"
    "  --faults SPEC  --no-recovery  --checkpoint-every N\n"
    "  --degrade  --staleness-bound S  --watchdog\n"
    "  --resume FILE  --record-checkpoint K\n"
    "  --golden FILE | --golden-dir DIR  --record\n"
    "  --reference  --tol T  --mutate\n"
    "  --fuzz N  --adversarial N  --seed S\n"
    "  --preflight off|warn|auto|strict  --session\n";

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
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

}  // namespace

int main(int argc, char** argv) {
  std::string network = "ieee13";
  dopf::simt::BackendSpec backend;
  backend.threads = 4;
  backend.devices = 3;
  // As given: unset leaves the defaults above, and a value for a run that
  // would ignore it is refused.
  std::optional<int> threads, devices;
  std::string golden_file, golden_dir;
  std::string resume_file;
  int checkpoint_every = 0;
  int record_checkpoint_at = 0;
  bool record = false, reference = false, mutate = false, watchdog = false;
  int fuzz_cases = 0;
  int adversarial_cases = 0;
  std::uint64_t seed = 20250807;
  bool seed_set = false;
  dopf::robust::PreflightMode preflight =
      dopf::robust::PreflightPolicy::kWarn;
  bool session = false;
  double tol = 5e-2;

  try {
    dopf::cli::Args args(argc, argv);
    while (args.next()) {
      const std::string& arg = args.flag();
      if (arg == "--network") {
        network = args.value();
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
        watchdog = true;
      } else if (arg == "--checkpoint-every") {
        checkpoint_every = args.integer(0);
      } else if (arg == "--resume") {
        resume_file = args.value();
      } else if (arg == "--record-checkpoint") {
        record_checkpoint_at = args.integer(0);
      } else if (arg == "--golden") {
        golden_file = args.value();
      } else if (arg == "--golden-dir") {
        golden_dir = args.value();
      } else if (arg == "--record") {
        record = true;
      } else if (arg == "--reference") {
        reference = true;
      } else if (arg == "--tol") {
        tol = args.real([](double t) { return t > 0.0; }, "> 0");
      } else if (arg == "--mutate") {
        mutate = true;
      } else if (arg == "--fuzz") {
        fuzz_cases = args.integer(0);
      } else if (arg == "--adversarial") {
        adversarial_cases = args.integer(0);
      } else if (arg == "--preflight") {
        preflight = args.preflight();
      } else if (arg == "--session") {
        session = true;
      } else if (arg == "--seed") {
        seed = args.integer<std::uint64_t>(0);
        seed_set = true;
      } else {
        args.unknown();
      }
    }
    dopf::cli::check({
        {dopf::simt::breaks_multigpu_only(backend), dopf::simt::kMultigpuOnly},
        {session && !resume_file.empty(),
         "--session is not supported with --resume"},
        {threads && backend.name != "threaded" && fuzz_cases == 0,
         "--threads requires --backend threaded or --fuzz"},
        {devices && backend.name != "multigpu",
         "--devices requires --backend multigpu"},
    });
    if (threads) backend.threads = *threads;
    if (devices) backend.devices = *devices;
  } catch (const dopf::cli::UsageError& e) {
    return dopf::cli::refuse(argv[0], e, kUsage);
  }

  try {
    if (fuzz_cases > 0) {
      dopf::verify::FuzzOptions options;
      options.num_cases = fuzz_cases;
      options.base_seed = seed;
      options.threads = backend.threads;
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
    // A builtin name, or a feeder file labelled by its base name. A bare
    // name that is no file is taken as a builtin, so make_network names
    // the builtins when it is unknown.
    const bool builtin =
        dopf::runtime::is_builtin(network) ||
        (network.find('/') == std::string::npos && !file_exists(network));
    const dopf::network::Network net = dopf::runtime::load_network(
        builtin ? "builtin:" + network : network);
    const std::string label = network.substr(network.find_last_of('/') + 1);

    // Preflight gate (default warn): an input failing sanitation or — under
    // strict — conditioning never reaches the golden comparison; that is an
    // input error, not a verification failure. Under warn/strict the
    // prepared decomposition is identical to a plain decompose(), so golden
    // traces stay byte-for-byte; under auto the run also gets the remediated
    // projector options, as in dopf_solve.
    const auto prepared = dopf::robust::prepare(net, preflight);
    const dopf::opf::OpfModel& model = prepared.model;
    const dopf::opf::DistributedProblem& problem = prepared.problem;

    if (golden_dir.empty()) golden_dir = default_golden_dir();
    if (golden_file.empty()) golden_file = golden_dir + "/" + label + ".trace";

    dopf::core::AdmmOptions profile = dopf::verify::golden_profile();
    profile.projector = prepared.projector;

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
    std::string backend_label;
    dopf::core::AdmmOptions run_profile = profile;
    run_profile.watchdog = watchdog;
    // The restart point a device failover rewinds to is refreshed at the
    // checkpoint cadence (kept in memory only).
    if (checkpoint_every == 0 && !backend.faults.empty()) checkpoint_every = 50;
    auto attach_backend = [&](dopf::core::SolverFreeAdmm& admm) {
      auto exec = dopf::simt::make_backend(backend, admm.packed(),
                                           &backend_label);
      if (mutate) {
        exec = dopf::verify::make_mutant_backend(std::move(exec));
        backend_label = "mutant(" + backend_label + ")";
      }
      admm.set_backend(std::move(exec));
      if (checkpoint_every > 0) admm.set_checkpoint_hook(checkpoint_every, {});
    };
    // Fault/degrade counters, printed while the backend is still alive.
    auto report_faults = [&](const dopf::core::SolverFreeAdmm& admm) {
      if (!backend.faults.empty()) {
        std::printf("faults injected: %s\n",
                    backend.faults.to_string().c_str());
      }
      std::printf("%s", admm.backend().fault_report().c_str());
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
      report_faults(sess.solver());
      final_x.assign(sess.solver().x().begin(), sess.solver().x().end());
      final_z.assign(sess.solver().z().begin(), sess.solver().z().end());
    } else {
      dopf::core::SolverFreeAdmm admm(problem, run_profile);
      attach_backend(admm);
      if (!resume_file.empty()) resume_ck.restore(&admm);
      result = admm.solve();
      report_faults(admm);
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
      if (!backend.faults.empty() || resume_from > 0) {
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
    if (backend.degrade) {
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
  } catch (const dopf::robust::PreflightError& e) {
    // A rejected golden input is an input error, reported in full.
    std::fprintf(stderr, "%s", e.report().summary().c_str());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

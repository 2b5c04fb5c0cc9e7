// cold-8500: one cold solve of builtin ieee8500 at the paper defaults on
// the serial backend, along the library path dopf_solve takes:
// feeder -> opf::build_model -> robust::run_preflight (warn) ->
// core::SolveModel -> core::ScenarioBinding -> core::SolveSession::solve.
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "common.hpp"
#include "core/solve_session.hpp"
#include "feeders/synthetic.hpp"
#include "opf/model.hpp"
#include "robust/preflight.hpp"
#include "runtime/scenario.hpp"
#include "verify/invariants.hpp"

namespace perfbench {

namespace {

constexpr int kSetups = 3;
/// A cold solve that takes longer than this misses (goodput_rps).
constexpr double kSolveLimitSeconds = 30.0;

struct Bound {
  std::optional<dopf::opf::OpfModel> model;
  dopf::opf::DistributedProblem problem;
  dopf::linalg::ProjectorOptions projector;
  std::unique_ptr<dopf::core::SolveModel> solve_model;
  std::unique_ptr<dopf::core::ScenarioBinding> binding;
};

dopf::runtime::Scenario load_scale(double f) {
  dopf::runtime::Scenario sc;
  sc.name = "seeded";
  dopf::runtime::ScenarioOverride ov;
  ov.kind = dopf::runtime::ScenarioOverride::Kind::kLoadScale;
  ov.target = "constant";
  ov.factor = f;
  sc.overrides.push_back(ov);
  return sc;
}

/// Feeder build to first bound model: what setup_s times.
void set_up(double f, Tracer& tr, Bound& b) {
  dopf::network::Network base, net;
  {
    Tracer::Scope s(tr, "feeders.build");
    base = dopf::feeders::synthetic_feeder(dopf::feeders::ieee8500_spec());
  }
  {
    Tracer::Scope s(tr, "runtime.apply_scenario");
    net = dopf::runtime::apply_scenario(base, load_scale(f));
  }
  {
    Tracer::Scope s(tr, "opf.build_model");
    b.model.emplace(dopf::opf::build_model(net));
  }
  {
    Tracer::Scope s(tr, "robust.preflight");
    dopf::robust::PreflightOptions popt;
    popt.policy = dopf::robust::PreflightPolicy::kWarn;
    const auto pre =
        dopf::robust::run_preflight(net, *b.model, &b.problem, popt);
    if (!pre.accepted) throw std::runtime_error("preflight: " + pre.rejection);
    b.projector = pre.projector_options();
  }
  {
    Tracer::Scope s(tr, "core.factorize");
    b.solve_model =
        std::make_unique<dopf::core::SolveModel>(b.problem, b.projector);
  }
  {
    Tracer::Scope s(tr, "core.bind");
    b.binding = std::make_unique<dopf::core::ScenarioBinding>(*b.solve_model);
  }
}

struct SolveRun {
  dopf::core::AdmmResult result;
  double seconds = 0.0;
  std::vector<double> iteration_ms;
  std::vector<double> final_z;
  std::vector<double> final_lambda;
};

SolveRun cold_solve(Bound& b, const dopf::core::AdmmOptions& opt,
                    Tracer* tracer) {
  SolveRun run;
  std::vector<std::int64_t> marks;
  dopf::core::SolveSession session(*b.binding, opt);
  const bool traced = tracer != nullptr && tracer->enabled();
  session.set_backend(std::make_unique<TimedBackend>(
      tracer, /*per_call_spans=*/true, nullptr, traced ? nullptr : &marks));
  const int span = traced ? tracer->open("core.solve") : -1;
  const std::int64_t t0 = now_ns();
  run.result = session.solve();
  const std::int64_t t1 = now_ns();
  if (traced) tracer->close(span);
  run.seconds = seconds_between(t0, t1);
  for (std::size_t i = 0; i < marks.size(); ++i) {
    const std::int64_t end = i + 1 < marks.size() ? marks[i + 1] : t1;
    run.iteration_ms.push_back((end - marks[i]) * 1e-6);
  }
  const auto z = session.solver().z();
  const auto lambda = session.solver().lambda();
  run.final_z.assign(z.begin(), z.end());
  run.final_lambda.assign(lambda.begin(), lambda.end());
  return run;
}

/// The correctness gate, outside every timed region: invariants of the
/// final iterate at the default InvariantOptions.
void check_solution(const Bound& b, const SolveRun& run, Record& rec) {
  if (!run.result.converged) {
    rec.fail("cold solve did not converge (" +
             std::string(dopf::core::to_string(run.result.status)) + ")");
    return;
  }
  auto report =
      dopf::verify::check_invariants(b.problem, run.result.x, run.final_z);
  dopf::verify::add_model_check(*b.model, run.result.x, &report);
  const dopf::verify::InvariantOptions defaults;
  for (const auto& f : report.failures(defaults)) rec.fail("invariant: " + f);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

void run_cold(const Args& args, Record& rec) {
  Rng rng(args.seed);
  const double f = 0.95 + 0.10 * rng.uniform();
  dopf::core::AdmmOptions opt;  // paper defaults: rho 100, eps_rel 1e-3
  opt.check_every = 10;         // dopf_solve's default cadence

  Tracer tracer(args.trace);
  Tracer off(false);
  Bound b;
  std::vector<double> setup_s;
  const int setups = args.trace ? 1 : kSetups;
  for (int k = 0; k < setups; ++k) {
    b.binding.reset();  // the binding refers to the model: release it first
    b.solve_model.reset();
    const std::int64_t t0 = now_ns();
    set_up(f, k + 1 == setups ? tracer : off, b);
    setup_s.push_back(seconds_between(t0, now_ns()));
  }
  opt.projector = b.projector;
  const auto& pack = b.binding->pack();
  const KernelCost cost = kernel_cost(pack);

  std::vector<SolveRun> runs;
  if (!args.trace) {
    const std::int64_t start = now_ns();
    do {
      runs.push_back(cold_solve(b, opt, nullptr));
    } while (seconds_between(start, now_ns()) < args.seconds);
  } else {
    runs.push_back(cold_solve(b, opt, nullptr));   // untraced reference
    runs.push_back(cold_solve(b, opt, &tracer));   // traced
  }

  // Gate: converged, invariants hold, and every solve repeats exactly.
  rec.attempted = static_cast<long long>(runs.size());
  check_solution(b, runs.front(), rec);
  for (const SolveRun& r : runs) {
    if (!r.result.converged ||
        r.result.iterations != runs.front().result.iterations ||
        !same_bits(r.result.objective, runs.front().result.objective)) {
      ++rec.failed;
    }
  }
  if (rec.failed > 0) rec.fail("cold solves did not repeat bit for bit");

  const int iterations = runs.front().result.iterations;
  rec.exact_counts["iterations"] = iterations;
  rec.exact_counts["core.pack_bytes"] = static_cast<long long>(pack.bytes());
  rec.exact_counts["core.global_bytes"] = std::llround(cost.global_bytes);
  rec.exact_counts["core.local_bytes"] = std::llround(cost.local_bytes);
  rec.exact_counts["core.dual_bytes"] = std::llround(cost.dual_bytes);
  rec.exact_counts["core.residual_bytes"] = std::llround(cost.residual_bytes);
  rec.exact_counts["core.refactorizations"] =
      b.solve_model->refactorizations();
  rec.exact_counts["core.rhs_rebinds"] = b.binding->lifetime().rhs_rebinds;

  if (!args.trace) {
    std::vector<double> solve_s, latency_ms, iteration_ms;
    double total_s = 0.0;
    int met = 0;
    for (const SolveRun& r : runs) {
      solve_s.push_back(r.seconds);
      latency_ms.push_back(r.seconds * 1e3);
      total_s += r.seconds;
      if (r.result.converged && r.seconds <= kSolveLimitSeconds) ++met;
      iteration_ms.insert(iteration_ms.end(), r.iteration_ms.begin(),
                          r.iteration_ms.end());
    }
    rec.set("setup_s", median(setup_s), "s");
    rec.set("solve_s", median(solve_s), "s");
    rec.set("iterations", iterations, "count");
    rec.set("steps_per_s", iterations / median(solve_s), "1/s");
    rec.set("step_p50_ms", percentile(iteration_ms, 0.5), "ms");
    rec.set("step_p90_ms", percentile(iteration_ms, 0.9), "ms");
    rec.set("latency_p50_ms", percentile(latency_ms, 0.5), "ms");
    rec.set("latency_p95_ms", percentile(latency_ms, 0.95), "ms");
    rec.set("goodput_rps", met / total_s, "1/s");
    rec.set("peak_rss_mb", self_peak_rss_mb(), "MB");
    rec.samples["setup_s"] = static_cast<long long>(setup_s.size());
    rec.samples["solves"] = static_cast<long long>(runs.size());
    rec.samples["iterations_timed"] =
        static_cast<long long>(iteration_ms.size());
    return;
  }

  // Traced run: per-kernel medians from the traced solve, the threaded
  // local update on the same pack, and the set-up spans.
  const SolveRun& traced = runs.back();
  const auto kernel_us = [&](const char* name) {
    return median(tracer.durations_ms(name)) * 1e3;
  };
  rec.set("core.global_us", kernel_us("core.global"), "us");
  rec.set("core.local_us", kernel_us("core.local"), "us");
  rec.set("core.dual_us", kernel_us("core.dual"), "us");
  rec.set("core.residual_us", kernel_us("core.residual"), "us");
  rec.samples["core.kernel_calls"] =
      static_cast<long long>(tracer.durations_ms("core.local").size());
  rec.set("core.global_bytes", cost.global_bytes, "B");
  rec.set("core.local_bytes", cost.local_bytes, "B");
  rec.set("core.dual_bytes", cost.dual_bytes, "B");
  rec.set("core.residual_bytes", cost.residual_bytes, "B");
  rec.set("core.local_flops", cost.local_flops, "flop");
  rec.set("core.pack_bytes", static_cast<double>(pack.bytes()), "B");
  rec.set("core.refactorizations", b.solve_model->refactorizations(), "count");
  rec.set("core.rhs_rebinds", b.binding->lifetime().rhs_rebinds, "count");
  for (const char* layer : {"feeders.build", "opf.build_model",
                            "robust.preflight", "core.factorize",
                            "core.bind"}) {
    rec.set(std::string(layer) + "_ms", median(tracer.durations_ms(layer)),
            "ms");
  }

  measure_threaded_local(pack, opt.rho, traced.result.x, traced.final_z,
                         traced.final_lambda, args.nproc, rec);

  rec.set("bench.gen_lag_p95_ms", 0.0, "ms");  // closed loop: never late
  rec.set("bench.trace_overhead_frac",
          (traced.seconds - runs.front().seconds) / runs.front().seconds,
          "ratio");
  rec.trace_file = args.out_dir + "/trace-cold-8500-" +
                   std::to_string(args.seed) + ".json";
  tracer.write(rec.trace_file, args);
}

}  // namespace perfbench

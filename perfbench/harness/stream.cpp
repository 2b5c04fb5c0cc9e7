// stream-123: the receding-horizon day on ieee123 through one long-lived
// SolveSession. The step loop below makes, in the same order, the calls
// stream::StreamDriver::run makes for a serial, preflight-warn run with
// durable checkpoints every few steps; the gate proves its step records are
// byte-identical to StreamDriver's on a stretch of the same profile. It is
// written out here so that each step, and each layer call inside it, can be
// timed from the benchmark's own code.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include "common.hpp"
#include "core/solve_session.hpp"
#include "feeders/synthetic.hpp"
#include "opf/model.hpp"
#include "robust/preflight.hpp"
#include "runtime/checkpoint.hpp"
#include "stream/driver.hpp"
#include "stream/profile.hpp"

namespace perfbench {

namespace {

constexpr int kSteps = 288;  // 24 h of 5-minute steps
constexpr int kSetups = 7;
constexpr int kCheckpointEverySteps = 12;
/// A step that takes longer than this misses (goodput_rps).
constexpr double kStepLimitSeconds = 2.0;
/// The switching events of the committed bench/streaming day.
constexpr int kSwitchSteps[2] = {96, 192};
const char* const kSwitchLines[2] = {"l17", "l43"};
constexpr double kSwitchFactors[2] = {2.0, 1.5};

/// The bench/streaming daily curve (double peak in [0.85, 1.10]) with a
/// seeded jitter of up to ±0.25% per step, rounded so it parses exactly.
std::string profile_text(std::uint64_t seed, int steps, const int switch_at[2]) {
  Rng rng(seed);
  std::ostringstream out;
  out << "profile day\nsteps " << steps << "\ndt 300\n";
  for (int k = 0; k < steps; ++k) {
    const double h = 24.0 * k / kSteps;
    const double morning = std::exp(-0.5 * std::pow((h - 8.5) / 2.5, 2.0));
    const double evening = std::exp(-0.5 * std::pow((h - 19.0) / 3.0, 2.0));
    const double curve = 0.85 + 0.18 * morning + 0.25 * evening;
    const double jitter = 1.0 + 0.005 * (rng.uniform() - 0.5);
    char factor[32];
    std::snprintf(factor, sizeof(factor), "%.3f",
                  std::round(curve * jitter * 1000.0) / 1000.0);
    out << "step " << k << "\n  load constant scale " << factor << "\n";
    // Blocks are absolute against base: an actuated switch repeats in
    // every later block.
    for (int s = 0; s < 2; ++s) {
      if (k >= switch_at[s]) {
        out << "  switch " << kSwitchLines[s] << " impedance-scale "
            << kSwitchFactors[s] << "\n";
      }
    }
  }
  return out.str();
}

/// Feeder, preflight and the bound base model the step loop runs on.
struct Bound {
  dopf::network::Network net;
  dopf::opf::DecomposeOptions decompose;
  dopf::linalg::ProjectorOptions projector;
  std::unique_ptr<dopf::core::SolveModel> solve_model;
  std::unique_ptr<dopf::core::ScenarioBinding> binding;
};

/// Feeder build to first bound model: dopf_solve's preflight, then the
/// base decomposition StreamDriver::run builds before its first step.
void set_up(Tracer& tr, Bound& b) {
  b.binding.reset();  // the binding refers to the model: release it first
  b.solve_model.reset();
  {
    Tracer::Scope s(tr, "feeders.build");
    b.net = dopf::feeders::synthetic_feeder(dopf::feeders::ieee123_spec());
  }
  std::optional<dopf::opf::OpfModel> model;
  {
    Tracer::Scope s(tr, "opf.build_model");
    model.emplace(dopf::opf::build_model(b.net));
  }
  {
    Tracer::Scope s(tr, "robust.preflight");
    dopf::opf::DistributedProblem preflighted;
    dopf::robust::PreflightOptions popt;
    const auto pre =
        dopf::robust::run_preflight(b.net, *model, &preflighted, popt);
    if (!pre.accepted) throw std::runtime_error("preflight: " + pre.rejection);
    b.projector = pre.projector_options();
    b.decompose.equilibrate_rows = pre.equilibrated;
  }
  dopf::opf::DistributedProblem base;
  {
    Tracer::Scope s(tr, "stream.base_decompose");
    base = dopf::opf::decompose(b.net, dopf::opf::build_model(b.net),
                                b.decompose);
  }
  {
    Tracer::Scope s(tr, "core.factorize");
    b.solve_model = std::make_unique<dopf::core::SolveModel>(base, b.projector);
  }
  {
    Tracer::Scope s(tr, "core.bind");
    b.binding = std::make_unique<dopf::core::ScenarioBinding>(*b.solve_model);
  }
}

struct Day {
  std::vector<std::string> records;  ///< stream::record_line per step
  std::vector<double> step_ms;
  double seconds = 0.0;
  long long iterations = 0;
  int refactorizations = 0;
  int rhs_rebinds = 0;
  long long checkpoint_bytes = 0;
};

Day run_day(Bound& b, const dopf::stream::StreamProfile& profile,
            const dopf::core::AdmmOptions& opt, const std::string& ckpt,
            Tracer& tr) {
  Day day;
  dopf::core::SolveSession session(*b.binding, opt);
  dopf::robust::PreflightOptions popt;
  popt.decompose = b.decompose;
  dopf::runtime::DurableOptions durable;  // fsync on: the default
  dopf::runtime::CheckpointStore store(ckpt, durable);
  // Start every day from empty slots, so each writes the same generations.
  std::remove(store.slot_a().c_str());
  std::remove(store.slot_b().c_str());
  const int refactorizations_before = b.solve_model->refactorizations();

  const std::int64_t day_start = now_ns();
  for (int k = 0; k < profile.num_steps; ++k) {
    const std::int64_t t0 = now_ns();
    const int step_span = tr.open("stream.step", k);
    dopf::stream::StreamStepRecord rec;
    rec.step = k;
    dopf::opf::DistributedProblem problem_k;
    {
      Tracer::Scope s(tr, "stream.step_build");
      const auto net_k = dopf::stream::network_at_step(b.net, profile, k);
      const auto model_k = dopf::opf::build_model(net_k);
      problem_k = dopf::opf::decompose(net_k, model_k, b.decompose);
    }
    {
      Tracer::Scope s(tr, "robust.scenario_preflight");
      const auto pre = dopf::robust::run_scenario_preflight(
          b.solve_model->problem(), problem_k, popt);
      rec.preflight_ran = true;
      rec.preflight_reused = pre.scenario_components_reused;
      if (!pre.accepted) {
        throw std::runtime_error("step " + std::to_string(k) +
                                 " preflight: " + pre.rejection);
      }
    }
    {
      const int span = tr.open("core.rebind");
      rec.rebind = session.rebind(problem_k);
      tr.close(span, rec.rebind.refactorizations > 0 ? "core.rebind_refactor"
                                                     : "core.rebind_rhs");
    }
    rec.switched = rec.rebind.refactorizations > 0;
    dopf::core::AdmmResult res;
    {
      const int span = tr.open("core.solve");
      res = session.solve();
      tr.close(span, res.warm_started ? "core.warm_solve" : "core.cold_solve");
    }
    rec.status = res.status;
    rec.converged = res.converged;
    rec.warm_started = res.warm_started;
    rec.iterations = res.iterations;
    rec.watchdog_stalls = res.watchdog.stalls;
    rec.objective = res.objective;
    rec.primal_residual = res.primal_residual;
    rec.dual_residual = res.dual_residual;
    rec.model_fp = b.binding->model_fingerprint();
    rec.scenario_fp = b.binding->scenario_fingerprint();
    {
      auto last_good = dopf::runtime::AdmmCheckpoint::capture(
          session.solver(), k, profile.name);
      if ((k + 1) % kCheckpointEverySteps == 0) {
        Tracer::Scope s(tr, "runtime.checkpoint_write");
        store.save(std::move(last_good));
      }
    }
    tr.close(step_span);
    day.step_ms.push_back((now_ns() - t0) * 1e-6);
    day.iterations += res.iterations;
    day.rhs_rebinds += rec.rebind.rhs_rebinds;
    day.records.push_back(dopf::stream::record_line(rec));
  }
  day.seconds = seconds_between(day_start, now_ns());
  day.refactorizations =
      b.solve_model->refactorizations() - refactorizations_before;
  struct stat st {};
  if (::stat(store.slot_a().c_str(), &st) == 0) day.checkpoint_bytes = st.st_size;
  return day;
}

/// Gate: the step loop above makes StreamDriver's calls. Both run the first
/// hour of the day with both switching events moved into it; their step
/// records must be identical.
void check_driver_equivalence(const Args& args, const Bound& proto,
                              const dopf::core::AdmmOptions& opt,
                              Record& rec) {
  const int switch_at[2] = {4, 8};
  std::istringstream text(profile_text(args.seed, 12, switch_at));
  const auto profile = dopf::stream::parse_profile(text);

  dopf::stream::StreamOptions sopt;
  sopt.admm = opt;
  sopt.decompose = proto.decompose;
  sopt.checkpoint_every_steps = kCheckpointEverySteps;
  sopt.checkpoint_path = args.out_dir + "/stream-driver.ckpt";
  const auto driver_result =
      dopf::stream::StreamDriver(proto.net, profile, sopt).run();

  Tracer off(false);
  Bound b;
  set_up(off, b);
  const Day day =
      run_day(b, profile, opt, args.out_dir + "/stream-replica.ckpt", off);
  bool same = driver_result.steps.size() == day.records.size();
  for (std::size_t k = 0; same && k < day.records.size(); ++k) {
    same = dopf::stream::record_line(driver_result.steps[k]) == day.records[k];
  }
  if (!same) rec.fail("step loop diverged from stream::StreamDriver records");
}

}  // namespace

void run_stream(const Args& args, Record& rec) {
  const int switch_at[2] = {kSwitchSteps[0], kSwitchSteps[1]};
  std::istringstream text(profile_text(args.seed, kSteps, switch_at));
  const auto profile = dopf::stream::parse_profile(text);
  dopf::core::AdmmOptions opt;  // paper defaults: rho 100, eps_rel 1e-3
  opt.check_every = 10;
  const std::string ckpt = args.out_dir + "/stream-day.ckpt";

  Tracer tracer(args.trace);
  Tracer off(false);
  Bound b;
  std::vector<double> setup_s;
  std::vector<Day> days;
  auto set_up_timed = [&](Tracer& tr) {
    const std::int64_t t0 = now_ns();
    set_up(tr, b);
    setup_s.push_back(seconds_between(t0, now_ns()));
  };
  // Each day starts from a fresh bound model, so every day repeats the
  // same refactorizations and iterations.
  if (!args.trace) {
    // Whole days until --seconds, never starting one that would end more
    // than half a day past it.
    const std::int64_t start = now_ns();
    do {
      set_up_timed(off);
      opt.projector = b.projector;
      days.push_back(run_day(b, profile, opt, ckpt, off));
    } while (seconds_between(start, now_ns()) + days.back().seconds / 2 <
             args.seconds);
    while (setup_s.size() < static_cast<std::size_t>(kSetups)) {
      set_up_timed(off);
    }
  } else {
    // Untraced and traced days alternate so the host's drift cancels out
    // of the tracing overhead.
    for (int d = 0; d < 4; ++d) {
      Tracer& tr = d % 2 == 1 ? tracer : off;
      set_up_timed(tr);
      opt.projector = b.projector;
      days.push_back(run_day(b, profile, opt, ckpt, tr));
    }
  }

  // Gate: every step converges, refactorizations equal the switched
  // components, the days repeat exactly, and the loop matches StreamDriver.
  const Day& first = days.front();
  const int switched = static_cast<int>(std::size(kSwitchLines));
  for (const Day& d : days) {
    rec.attempted += static_cast<long long>(d.records.size());
    for (const std::string& line : d.records) {
      if (line.find(" converged 1 ") == std::string::npos) ++rec.failed;
    }
    if (d.refactorizations != switched) {
      rec.fail("refactorizations " + std::to_string(d.refactorizations) +
               " != switched components " + std::to_string(switched));
    }
    if (d.records != first.records) rec.fail("days did not repeat exactly");
  }
  if (rec.failed > 0) rec.fail("steps did not converge");
  check_driver_equivalence(args, b, opt, rec);

  rec.exact_counts["iterations"] = first.iterations;
  rec.exact_counts["core.refactorizations"] = first.refactorizations;
  rec.exact_counts["core.rhs_rebinds"] = first.rhs_rebinds;
  rec.exact_counts["core.pack_bytes"] =
      static_cast<long long>(b.binding->pack().bytes());

  if (!args.trace) {
    // Rates are per day, then the median over the days; each step of the
    // day is timed by the median of its repeats over the days. A spell of
    // the host's speed during one day moves neither the way it moves a
    // pooled rate or percentile.
    std::vector<double> day_s, day_steps_per_s, day_goodput;
    long long steps = 0;
    for (const Day& d : days) {
      long long met = 0;
      for (std::size_t k = 0; k < d.step_ms.size(); ++k) {
        if (d.records[k].find(" converged 1 ") != std::string::npos &&
            d.step_ms[k] <= kStepLimitSeconds * 1e3) {
          ++met;
        }
      }
      steps += static_cast<long long>(d.step_ms.size());
      day_s.push_back(d.seconds);
      day_steps_per_s.push_back(static_cast<double>(d.step_ms.size()) /
                                d.seconds);
      day_goodput.push_back(static_cast<double>(met) / d.seconds);
    }
    std::vector<double> step_ms;
    for (std::size_t k = 0; k < first.step_ms.size(); ++k) {
      std::vector<double> repeats;
      for (const Day& d : days) repeats.push_back(d.step_ms[k]);
      step_ms.push_back(median(repeats));
    }
    rec.set("setup_s", median(setup_s), "s");
    rec.set("solve_s", median(day_s), "s");
    rec.set("iterations", static_cast<double>(first.iterations), "count");
    rec.set("steps_per_s", median(day_steps_per_s), "1/s");
    rec.set("step_p50_ms", percentile(step_ms, 0.5), "ms");
    rec.set("step_p90_ms", percentile(step_ms, 0.9), "ms");
    rec.set("latency_p50_ms", percentile(step_ms, 0.5), "ms");
    rec.set("latency_p95_ms", percentile(step_ms, 0.95), "ms");
    rec.set("goodput_rps", median(day_goodput), "1/s");
    rec.set("peak_rss_mb", self_peak_rss_mb(), "MB");
    rec.samples["setup_s"] = static_cast<long long>(setup_s.size());
    rec.samples["days"] = static_cast<long long>(days.size());
    rec.samples["steps"] = steps;
    return;
  }

  const Day& traced = days.back();
  for (const char* layer : {"feeders.build", "opf.build_model",
                            "robust.preflight", "core.factorize", "core.bind",
                            "stream.step_build", "robust.scenario_preflight",
                            "core.rebind_rhs", "core.rebind_refactor",
                            "core.warm_solve", "runtime.checkpoint_write"}) {
    const auto d = tracer.durations_ms(layer);
    rec.set(std::string(layer) + "_ms", median(d), "ms");
    rec.samples[std::string(layer) + "_ms"] = static_cast<long long>(d.size());
  }
  std::vector<double> warm_iterations;
  for (const std::string& line : traced.records) {
    if (line.find(" warm 1 ") == std::string::npos) continue;
    const auto pos = line.find(" iterations ");
    warm_iterations.push_back(std::stod(line.substr(pos + 12)));
  }
  rec.set("core.warm_iterations", median(warm_iterations), "count");
  rec.set("core.rhs_rebinds", traced.rhs_rebinds, "count");
  rec.set("core.refactorizations", traced.refactorizations, "count");
  rec.set("core.pack_bytes", static_cast<double>(b.binding->pack().bytes()),
          "B");
  rec.set("runtime.checkpoint_bytes",
          static_cast<double>(traced.checkpoint_bytes), "B");
  {
    // The threaded backend's local update on the same pack, from a
    // converged iterate of the last step's scenario.
    dopf::core::SolveSession session(*b.binding, opt);
    session.solve();
    measure_threaded_local(b.binding->pack(), opt.rho, session.solver().x(),
                           session.solver().z(), session.solver().lambda(),
                           args.nproc, rec);
  }
  rec.set("bench.gen_lag_p95_ms", 0.0, "ms");  // closed loop: never late
  const double untraced_s = days[0].seconds + days[2].seconds;
  const double traced_s = days[1].seconds + days[3].seconds;
  rec.set("bench.trace_overhead_frac", (traced_s - untraced_s) / untraced_s,
          "ratio");
  rec.trace_file = args.out_dir + "/trace-stream-123-" +
                   std::to_string(args.seed) + ".json";
  tracer.write(rec.trace_file, args);
}

}  // namespace perfbench

/// Deterministic session-reuse replay: a 10-scenario load-only sweep on
/// ieee123 through ONE SolveSession, run by the stream driver as the
/// sweep's profile (stream::profile_from_scenarios: step 0 is the base,
/// step k scenario k) with cold comparisons on. The point under
/// measurement is the session architecture's contract:
///   - exactly one full topology precompute for the whole sweep
///     (counter-verified: every scenario solve is a precompute reuse),
///   - zero refactorizations (constant-power load scaling is rhs-only and
///     flows through the cached Cholesky factors),
///   - warm-started scenario solves converge in measurably fewer
///     iterations than the same scenarios solved cold.
/// The run is fully deterministic (serial backend, fixed factors), so the
/// emitted JSON is committable; the binary exits non-zero if any contract
/// line fails, making it usable as a CI gate.
///
/// Usage: session_reuse [output.json]   (default BENCH_session_reuse.json)

#include <cstdio>
#include <string>
#include <vector>

#include "runtime/instances.hpp"
#include "runtime/scenario.hpp"
#include "stream/driver.hpp"
#include "stream/profile.hpp"

namespace {

constexpr int kNumScenarios = 10;

double load_factor(int k) { return 0.90 + 0.02 * k; }

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_session_reuse.json";

  const auto net = dopf::runtime::make_network("ieee123");
  std::vector<dopf::runtime::Scenario> scenarios;
  for (int k = 0; k < kNumScenarios; ++k) {
    scenarios.push_back(
        {"sweep" + std::to_string(k),
         {{dopf::runtime::ScenarioOverride::Kind::kLoadScale, "constant",
           load_factor(k)}}});
  }
  const auto profile = dopf::stream::profile_from_scenarios(scenarios);

  dopf::stream::StreamOptions sopt;
  sopt.admm.check_every = 10;
  sopt.preflight = "off";
  sopt.cold_compare = true;
  const auto result = dopf::stream::StreamDriver(net, profile, sopt).run();

  const auto& base = result.steps[0];
  std::printf("base: %s in %d iterations, objective %.8f\n",
              dopf::core::to_string(base.status), base.iterations,
              base.objective);
  // all_converged covers the base, every warm solve and every cold one.
  bool ok = result.all_converged;
  for (int k = 0; k < kNumScenarios; ++k) {
    const auto& rec = result.steps[k + 1];
    ok = ok && rec.warm_started;
    std::printf(
        "%s (x%.2f): warm %d vs cold %d iterations, objective %.8f "
        "[%d refactorization(s), %d rhs rebind(s)]\n",
        scenarios[k].name.c_str(), load_factor(k), rec.iterations,
        rec.cold_iterations, rec.objective, rec.rebind.refactorizations,
        rec.rebind.rhs_rebinds);
  }

  const auto& st = result.session;
  const long long warm_total = result.warm_iterations;
  const long long cold_total = result.cold_iterations;
  std::printf(
      "session: %d solve(s), %d precompute reuse(s), %d refactorization(s), "
      "%d rhs rebind(s); warm %lld vs cold %lld total iterations\n",
      st.solves, st.precompute_reuses, st.refactorizations, st.rhs_rebinds,
      warm_total, cold_total);

  // The contract the committed JSON certifies.
  if (st.precompute_reuses != kNumScenarios) {
    std::fprintf(stderr,
                 "FAIL: expected every scenario solve to reuse the "
                 "precompute (%d/%d)\n",
                 st.precompute_reuses, kNumScenarios);
    ok = false;
  }
  if (st.refactorizations != 0 || result.refactorizations != 0) {
    std::fprintf(stderr, "FAIL: load-only sweep refactorized (%d)\n",
                 st.refactorizations);
    ok = false;
  }
  if (warm_total >= cold_total) {
    std::fprintf(stderr,
                 "FAIL: warm-started sweep not faster (%lld vs %lld "
                 "iterations)\n",
                 warm_total, cold_total);
    ok = false;
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"session_reuse\",\n"
               "  \"instance\": \"ieee123\",\n"
               "  \"num_scenarios\": %d,\n"
               "  \"base_iterations\": %d,\n  \"scenarios\": [\n",
               kNumScenarios, base.iterations);
  for (int k = 0; k < kNumScenarios; ++k) {
    const auto& r = result.steps[k + 1];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"load_factor\": %.2f, "
                 "\"warm_iterations\": %d, \"cold_iterations\": %d, "
                 "\"objective\": %.12g, \"refactorizations\": %d, "
                 "\"rhs_rebinds\": %d}%s\n",
                 scenarios[k].name.c_str(), load_factor(k), r.iterations,
                 r.cold_iterations, r.objective, r.rebind.refactorizations,
                 r.rebind.rhs_rebinds, k + 1 < kNumScenarios ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"totals\": {\"warm_iterations\": %lld, "
               "\"cold_iterations\": %lld, \"warm_over_cold\": %.4f},\n"
               "  \"session\": {\"solves\": %d, \"full_precomputes\": 1, "
               "\"precompute_reuses\": %d, \"refactorizations\": %d, "
               "\"rhs_rebinds\": %d},\n  \"verified\": %s\n}\n",
               warm_total, cold_total,
               static_cast<double>(warm_total) /
                   static_cast<double>(cold_total),
               st.solves, st.precompute_reuses, st.refactorizations,
               st.rhs_rebinds, ok ? "true" : "false");
  std::fclose(out);
  std::printf("%s written to %s\n", ok ? "VERIFIED" : "FAILED",
              out_path.c_str());
  return ok ? 0 : 2;
}

/// Deterministic streaming replay: a 288-step (24h of 5-minute steps)
/// receding-horizon day on ieee123 through ONE SolveSession. The profile is
/// generated as text and fed through the real parser (the bench exercises
/// the same path as `dopf_solve --stream`): a smooth daily load curve of
/// per-step load blocks plus two switching events (impedance re-rates on
/// two distinct lines at steps 96 and 192). The contract the committed
/// JSON certifies:
///   - exactly one full topology precompute for the whole day (every
///     non-switching warm solve is a precompute reuse),
///   - component refactorizations == switched-component count (2): load
///     steps are rhs-only, each switch event refreshes exactly the one
///     component owning the re-rated line,
///   - warm-started steps converge in <= 0.6x the iterations of the same
///     steps solved cold.
/// Fully deterministic (serial backend, fixed curve), so the JSON is
/// committable; exits non-zero if any contract line fails.
///
/// Usage: streaming [output.json]   (default BENCH_streaming.json)

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>

#include "core/admm.hpp"
#include "runtime/instances.hpp"
#include "stream/driver.hpp"
#include "stream/profile.hpp"

namespace {

constexpr int kSteps = 288;          // 24h at 5-minute resolution
constexpr int kSwitchSteps[2] = {96, 192};
const char* const kSwitchLines[2] = {"l17", "l43"};
constexpr double kSwitchFactors[2] = {2.0, 1.5};

/// Smooth double-peak daily load curve in [0.85, 1.10] — morning and
/// evening peaks, deterministic in the step index only.
double load_factor(int step) {
  const double h = 24.0 * step / kSteps;
  const double morning = std::exp(-0.5 * std::pow((h - 8.5) / 2.5, 2.0));
  const double evening = std::exp(-0.5 * std::pow((h - 19.0) / 3.0, 2.0));
  const double f = 0.85 + 0.18 * morning + 0.25 * evening;
  return std::round(f * 1000.0) / 1000.0;  // 3 decimals, parses exactly
}

std::string make_profile_text() {
  std::ostringstream out;
  out << "profile day\nsteps " << kSteps << "\ndt 300\n";
  for (int k = 0; k < kSteps; ++k) {
    char factor[32];
    std::snprintf(factor, sizeof(factor), "%.3f", load_factor(k));
    out << "step " << k << "\n  load constant scale " << factor << "\n";
    // Blocks are ABSOLUTE against base, so an actuated switch must appear
    // in every later block or the next block would revert it (and pay a
    // second refactorization flipping the line back).
    for (int s = 0; s < 2; ++s) {
      if (k >= kSwitchSteps[s]) {
        out << "  switch " << kSwitchLines[s] << " impedance-scale "
            << kSwitchFactors[s] << "\n";
      }
    }
  }
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_streaming.json";

  const auto net = dopf::runtime::make_network("ieee123");
  std::istringstream profile_text(make_profile_text());
  const auto profile = dopf::stream::parse_profile(profile_text);
  std::printf("profile '%s': %d steps, %zu blocks\n", profile.name.c_str(),
              profile.num_steps, profile.blocks.size());

  dopf::stream::StreamOptions sopt;
  sopt.admm.check_every = 10;
  sopt.cold_compare = true;
  dopf::stream::StreamDriver driver(net, profile, sopt);
  const auto result = driver.run();

  // The driver totals warm and cold iterations over the warm-started steps
  // only (step 0 is the cold start and gets no cold comparison).
  const long long warm_total = result.warm_iterations;
  const long long cold_total = result.cold_iterations;
  int switched_steps = 0;
  bool ok = result.all_converged;
  for (const auto& rec : result.steps) {
    if (rec.switched) {
      ++switched_steps;
      std::printf(
          "switch step %d: warm %d vs cold %d iterations "
          "[%d refactorization(s), %d rhs rebind(s)]\n",
          rec.step, rec.iterations, rec.cold_iterations,
          rec.rebind.refactorizations, rec.rebind.rhs_rebinds);
    }
  }
  const double ratio =
      static_cast<double>(warm_total) / static_cast<double>(cold_total);
  const auto& st = result.session;
  std::printf(
      "day: %zu steps, %d switch event(s); session %d solve(s) "
      "(%d cold, %d warm), %d precompute reuse(s), "
      "%d refactorization(s), %d rhs rebind(s)\n"
      "warm %lld vs cold %lld iterations over warm steps (ratio %.3f)\n",
      result.steps.size(), switched_steps, st.solves, st.cold_solves,
      st.warm_solves, st.precompute_reuses, st.refactorizations,
      st.rhs_rebinds, warm_total, cold_total, ratio);

  // The contract the committed JSON certifies.
  if (st.cold_solves != 1) {
    std::fprintf(stderr, "FAIL: expected exactly one cold solve (%d)\n",
                 st.cold_solves);
    ok = false;
  }
  if (st.precompute_reuses != kSteps - 1 - 2) {
    std::fprintf(stderr,
                 "FAIL: every non-switching warm step must reuse the "
                 "precompute (%d/%d)\n",
                 st.precompute_reuses, kSteps - 1 - 2);
    ok = false;
  }
  if (result.refactorizations != 2 || st.refactorizations != 2 ||
      switched_steps != 2) {
    std::fprintf(stderr,
                 "FAIL: 2 switch events must cost exactly 2 component "
                 "refactorizations (model %d, session %d, %d switched "
                 "steps)\n",
                 result.refactorizations, st.refactorizations,
                 switched_steps);
    ok = false;
  }
  if (ratio > 0.6) {
    std::fprintf(stderr,
                 "FAIL: warm stream must need <= 0.6x cold iterations "
                 "(ratio %.3f)\n",
                 ratio);
    ok = false;
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"bench\": \"streaming\",\n"
               "  \"instance\": \"ieee123\",\n"
               "  \"num_steps\": %d,\n  \"dt_seconds\": %.0f,\n"
               "  \"switch_steps\": [%d, %d],\n"
               "  \"switch_lines\": [\"%s\", \"%s\"],\n",
               kSteps, profile.dt_seconds, kSwitchSteps[0], kSwitchSteps[1],
               kSwitchLines[0], kSwitchLines[1]);
  std::fprintf(out, "  \"warm_iterations_per_step\": [");
  for (std::size_t i = 0; i < result.steps.size(); ++i) {
    std::fprintf(out, "%s%d", i == 0 ? "" : ",", result.steps[i].iterations);
  }
  std::fprintf(out, "],\n  \"cold_iterations_per_step\": [");
  for (std::size_t i = 0; i < result.steps.size(); ++i) {
    std::fprintf(out, "%s%d", i == 0 ? "" : ",",
                 result.steps[i].cold_iterations);
  }
  std::fprintf(out,
               "],\n  \"totals\": {\"warm_iterations\": %lld, "
               "\"cold_iterations\": %lld, \"warm_over_cold\": %.4f},\n"
               "  \"session\": {\"solves\": %d, \"cold_solves\": %d, "
               "\"warm_solves\": %d, \"full_precomputes\": 1, "
               "\"precompute_reuses\": %d, \"refactorizations\": %d, "
               "\"rhs_rebinds\": %d},\n"
               "  \"model_refactorizations\": %d,\n"
               "  \"all_converged\": %s,\n  \"verified\": %s\n}\n",
               warm_total, cold_total, ratio, st.solves, st.cold_solves,
               st.warm_solves, st.precompute_reuses, st.refactorizations,
               st.rhs_rebinds, result.refactorizations,
               result.all_converged ? "true" : "false", ok ? "true" : "false");
  std::fclose(out);
  std::printf("%s written to %s\n", ok ? "VERIFIED" : "FAILED",
              out_path.c_str());
  return ok ? 0 : 2;
}

#include "verify/trace.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "verify/codec.hpp"

namespace dopf::verify {

using dopf::core::AdmmOptions;
using dopf::core::AdmmResult;
using dopf::core::IterationRecord;

namespace {

/// Exact decimal-free rendering (shared codec; round-trips every bit).
std::string hex(double v) { return hex_double(v); }

double parse_number(const std::string& token, int line_no) {
  double v = 0.0;
  if (!parse_double_token(token, &v)) {
    throw TraceError("trace line " + std::to_string(line_no) +
                     ": bad number '" + token + "'");
  }
  return v;
}

class Lines {
 public:
  explicit Lines(std::istream& in) : in_(in) {}

  /// Next non-empty line split into tokens; empty result at EOF.
  std::vector<std::string> next() {
    std::string raw;
    while (std::getline(in_, raw)) {
      ++no_;
      std::istringstream ss(raw);
      std::vector<std::string> tokens;
      std::string t;
      while (ss >> t) tokens.push_back(t);
      if (!tokens.empty()) return tokens;
    }
    return {};
  }

  int line_no() const { return no_; }

 private:
  std::istream& in_;
  int no_ = 0;
};

bool matches(double golden, double candidate, double tol) {
  if (tol == 0.0) {
    // Bitwise: distinguishes -0.0/0.0 and compares NaNs sanely.
    return std::bit_cast<std::uint64_t>(golden) ==
           std::bit_cast<std::uint64_t>(candidate);
  }
  if (std::isnan(golden) || std::isnan(candidate)) return false;
  return std::abs(golden - candidate) <=
         tol * std::max({1.0, std::abs(golden), std::abs(candidate)});
}

std::string value_pair(double golden, double candidate) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "golden %.17g (%a), got %.17g (%a)", golden,
                golden, candidate, candidate);
  return buf;
}

void fnv(std::uint64_t* h, double v) { fnv1a(*h, &v, sizeof(v)); }

}  // namespace

Trace Trace::from_result(const AdmmResult& result, const AdmmOptions& options,
                         std::string network, std::string backend,
                         std::string algorithm) {
  Trace t;
  t.network = std::move(network);
  t.backend = std::move(backend);
  t.algorithm = std::move(algorithm);
  t.rho = options.rho;
  t.eps_rel = options.eps_rel;
  t.check_every = options.check_every;
  t.record_every = options.record_every;
  t.iterations = result.iterations;
  t.status = dopf::core::to_string(result.status);
  t.objective = result.objective;
  t.history = result.history;
  t.x = result.x;
  return t;
}

void write_trace(const Trace& trace, std::ostream& out) {
  out << "dopf-trace v1\n";
  out << "network " << trace.network << '\n';
  out << "algorithm " << trace.algorithm << '\n';
  out << "backend " << trace.backend << '\n';
  out << "rho " << hex(trace.rho) << '\n';
  out << "eps_rel " << hex(trace.eps_rel) << '\n';
  out << "check_every " << trace.check_every << '\n';
  out << "record_every " << trace.record_every << '\n';
  out << "iterations " << trace.iterations << '\n';
  out << "status " << trace.status << '\n';
  out << "objective " << hex(trace.objective) << '\n';
  out << "history " << trace.history.size() << '\n';
  for (const IterationRecord& r : trace.history) {
    out << "h " << r.iteration << ' ' << hex(r.primal_residual) << ' '
        << hex(r.dual_residual) << ' ' << hex(r.eps_primal) << ' '
        << hex(r.eps_dual) << ' ' << hex(r.rho) << '\n';
  }
  out << "x " << trace.x.size() << '\n';
  for (double v : trace.x) out << "v " << hex(v) << '\n';
  out << "end\n";
}

Trace read_trace(std::istream& in) {
  Lines lines(in);
  auto expect = [&](const std::vector<std::string>& tokens, const char* key,
                    std::size_t count) {
    if (tokens.empty() || tokens[0] != key || tokens.size() != count + 1) {
      throw TraceError("trace line " + std::to_string(lines.line_no()) +
                       ": expected '" + key + "' with " +
                       std::to_string(count) + " value(s)");
    }
  };

  const auto header = lines.next();
  if (header.size() != 2 || header[0] != "dopf-trace" || header[1] != "v1") {
    throw TraceError("not a dopf-trace v1 file");
  }

  Trace t;
  auto tokens = lines.next();
  expect(tokens, "network", 1);
  t.network = tokens[1];
  tokens = lines.next();
  expect(tokens, "algorithm", 1);
  t.algorithm = tokens[1];
  tokens = lines.next();
  expect(tokens, "backend", 1);
  t.backend = tokens[1];
  tokens = lines.next();
  expect(tokens, "rho", 1);
  t.rho = parse_number(tokens[1], lines.line_no());
  tokens = lines.next();
  expect(tokens, "eps_rel", 1);
  t.eps_rel = parse_number(tokens[1], lines.line_no());
  tokens = lines.next();
  expect(tokens, "check_every", 1);
  t.check_every = static_cast<int>(parse_number(tokens[1], lines.line_no()));
  tokens = lines.next();
  expect(tokens, "record_every", 1);
  t.record_every = static_cast<int>(parse_number(tokens[1], lines.line_no()));
  tokens = lines.next();
  expect(tokens, "iterations", 1);
  t.iterations = static_cast<int>(parse_number(tokens[1], lines.line_no()));
  tokens = lines.next();
  expect(tokens, "status", 1);
  t.status = tokens[1];
  tokens = lines.next();
  expect(tokens, "objective", 1);
  t.objective = parse_number(tokens[1], lines.line_no());

  tokens = lines.next();
  expect(tokens, "history", 1);
  const auto hist_count =
      static_cast<std::size_t>(parse_number(tokens[1], lines.line_no()));
  t.history.reserve(hist_count);
  for (std::size_t k = 0; k < hist_count; ++k) {
    tokens = lines.next();
    expect(tokens, "h", 6);
    IterationRecord r;
    r.iteration = static_cast<int>(parse_number(tokens[1], lines.line_no()));
    r.primal_residual = parse_number(tokens[2], lines.line_no());
    r.dual_residual = parse_number(tokens[3], lines.line_no());
    r.eps_primal = parse_number(tokens[4], lines.line_no());
    r.eps_dual = parse_number(tokens[5], lines.line_no());
    r.rho = parse_number(tokens[6], lines.line_no());
    t.history.push_back(r);
  }

  tokens = lines.next();
  expect(tokens, "x", 1);
  const auto x_count =
      static_cast<std::size_t>(parse_number(tokens[1], lines.line_no()));
  t.x.reserve(x_count);
  for (std::size_t i = 0; i < x_count; ++i) {
    tokens = lines.next();
    expect(tokens, "v", 1);
    t.x.push_back(parse_number(tokens[1], lines.line_no()));
  }

  tokens = lines.next();
  if (tokens.empty() || tokens[0] != "end") {
    throw TraceError("trace line " + std::to_string(lines.line_no()) +
                     ": missing 'end' terminator (truncated trace?)");
  }
  return t;
}

void save_trace(const Trace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw TraceError("cannot open for writing: " + path);
  write_trace(trace, out);
  if (!out) throw TraceError("write failed: " + path);
}

Trace load_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw TraceError("cannot open: " + path);
  return read_trace(in);
}

TraceDiff compare_traces(const Trace& golden, const Trace& candidate,
                         double tol) {
  TraceDiff diff;
  auto fail = [&](const std::string& message) {
    diff.identical = false;
    diff.message = message;
    return diff;
  };

  // Profile metadata must agree exactly; a mismatch means the candidate was
  // not produced under the golden profile, which is a setup error rather
  // than a numeric divergence.
  if (golden.network != candidate.network) {
    return fail("network mismatch: golden '" + golden.network + "', got '" +
                candidate.network + "'");
  }
  if (golden.algorithm != candidate.algorithm) {
    return fail("algorithm mismatch: golden '" + golden.algorithm +
                "', got '" + candidate.algorithm + "'");
  }
  if (golden.rho != candidate.rho || golden.eps_rel != candidate.eps_rel ||
      golden.check_every != candidate.check_every ||
      golden.record_every != candidate.record_every) {
    return fail("solve profile mismatch (rho/eps_rel/check_every/"
                "record_every): candidate was not run under the golden "
                "profile");
  }

  if (golden.status != candidate.status) {
    return fail("status mismatch: golden '" + golden.status + "', got '" +
                candidate.status + "'");
  }
  if (golden.iterations != candidate.iterations) {
    return fail("iteration count mismatch: golden " +
                std::to_string(golden.iterations) + ", got " +
                std::to_string(candidate.iterations));
  }
  if (golden.history.size() != candidate.history.size()) {
    return fail("history length mismatch: golden " +
                std::to_string(golden.history.size()) + ", got " +
                std::to_string(candidate.history.size()));
  }
  for (std::size_t k = 0; k < golden.history.size(); ++k) {
    const IterationRecord& g = golden.history[k];
    const IterationRecord& c = candidate.history[k];
    if (g.iteration != c.iteration) {
      return fail("history[" + std::to_string(k) +
                  "] iteration mismatch: golden " +
                  std::to_string(g.iteration) + ", got " +
                  std::to_string(c.iteration));
    }
    struct Field {
      const char* name;
      double g, c;
    };
    for (const Field& f : {Field{"primal_residual", g.primal_residual,
                                 c.primal_residual},
                           Field{"dual_residual", g.dual_residual,
                                 c.dual_residual},
                           Field{"eps_primal", g.eps_primal, c.eps_primal},
                           Field{"eps_dual", g.eps_dual, c.eps_dual},
                           Field{"rho", g.rho, c.rho}}) {
      if (!matches(f.g, f.c, tol)) {
        return fail("first divergence at iteration " +
                    std::to_string(g.iteration) + ": " + f.name + " " +
                    value_pair(f.g, f.c));
      }
    }
  }
  if (golden.x.size() != candidate.x.size()) {
    return fail("iterate size mismatch: golden " +
                std::to_string(golden.x.size()) + ", got " +
                std::to_string(candidate.x.size()));
  }
  for (std::size_t i = 0; i < golden.x.size(); ++i) {
    if (!matches(golden.x[i], candidate.x[i], tol)) {
      return fail("final iterate diverges at x[" + std::to_string(i) +
                  "]: " + value_pair(golden.x[i], candidate.x[i]));
    }
  }
  if (!matches(golden.objective, candidate.objective, tol)) {
    return fail("objective diverges: " +
                value_pair(golden.objective, candidate.objective));
  }
  return diff;
}

Trace trace_suffix(const Trace& trace, int after_iteration) {
  Trace t = trace;
  t.history.clear();
  for (const IterationRecord& r : trace.history) {
    if (r.iteration > after_iteration) t.history.push_back(r);
  }
  return t;
}

std::uint64_t trace_digest(const Trace& trace) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const IterationRecord& r : trace.history) {
    fnv(&h, static_cast<double>(r.iteration));
    fnv(&h, r.primal_residual);
    fnv(&h, r.dual_residual);
    fnv(&h, r.eps_primal);
    fnv(&h, r.eps_dual);
    fnv(&h, r.rho);
  }
  for (double v : trace.x) fnv(&h, v);
  fnv(&h, trace.objective);
  return h;
}

AdmmOptions golden_profile() {
  AdmmOptions opt;
  opt.rho = 100.0;
  opt.eps_rel = 1e-3;
  opt.max_iterations = 50000;
  opt.check_every = 10;
  opt.record_every = 1;
  return opt;
}

}  // namespace dopf::verify

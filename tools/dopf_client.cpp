// dopf_client — driver for the dopf_serve solve server.
//
// Usage:
//   dopf_client --socket PATH [options]
//
//   --ping                liveness probe (pong round-trip), then exit
//   --feeder F            single request: "builtin:NAME" or a feeder path
//   --override "L"        scenario override line (repeatable, composed in
//                         order; runtime/scenario.hpp grammar)
//   --requests FILE       batch mode: one request per line,
//                         "feeder|ovr1;ovr2|deadline_ms|resume" ('#'
//                         comments; trailing fields optional)
//   --repeat N            submit each request N times (distinct ids,
//                         identical content — exercises coalescing)
//   --concurrency C       client lanes, one connection each (default 1)
//   --id N                base request id (default 1)
//   --deadline-ms N       per-request deadline, armed at server admission
//   --resume              ask the server to resume from its drain
//                         checkpoint of this exact request
//   --rho R --eps E --max-iters N --check-every N
//                         solver options (dopf_solve defaults)
//   --preflight MODE      off | warn | auto | strict (default warn)
//   --retries N           retry budget for transport faults / shedding
//   --backoff-ms N        jittered exponential backoff base (default 20)
//   --timeout-ms N        response wait per attempt (default 120000)
//   --seed S              jitter seed (deterministic storms)
//
// Output: one line per request, in request-id order:
//   response id=... status=... iterations=... objective=0x1.…p+… ...
//   reject id=... code=... msg=...
// Response lines are byte-identical for identical requests — the property
// tools/serve_fault_check.sh asserts under injected transport faults.
//
// Exit codes (worst across requests): 0 all converged; 1 usage; 2 a
// response did not converge; 4 bad-request/internal reject; 5 preflight
// reject; 6 deadline/drained/shutting-down reject; 7 shed-by-overload
// retry budget exhausted; 8 connect/transport retry budget exhausted;
// 9 quarantined (the request's content crashed solve workers twice —
// retrying before the quarantine TTL expires returns the same reject).

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli.hpp"
#include "core/admm.hpp"
#include "serve/client.hpp"
#include "verify/codec.hpp"

namespace {

constexpr char kUsage[] =
    " --socket PATH (--ping | --feeder F [--override L]... |\n"
    "  --requests FILE) [--repeat N] [--concurrency C] [--id N]\n"
    "  [--deadline-ms N] [--resume] [--rho R] [--eps E] [--max-iters N]\n"
    "  [--check-every N] [--preflight MODE] [--retries N]\n"
    "  [--backoff-ms N] [--timeout-ms N] [--seed S]\n";

/// Parse one --requests line: "feeder|ovr1;ovr2|deadline_ms|resume".
/// Empty trailing fields are optional; ';' in the scenario field becomes a
/// newline (the wire scenario format).
dopf::serve::SolveRequest parse_request_line(
    const dopf::serve::SolveRequest& defaults, const std::string& line,
    int line_no) {
  std::vector<std::string> fields;
  std::string cur;
  for (char c : line) {
    if (c == '|') {
      fields.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  fields.push_back(cur);
  dopf::serve::SolveRequest req = defaults;
  const std::string where = "requests file line " + std::to_string(line_no);
  if (fields.empty() || fields[0].empty()) {
    throw std::runtime_error(where + ": empty feeder field");
  }
  req.feeder = fields[0];
  if (fields.size() > 1) {
    std::string sc = fields[1];
    std::replace(sc.begin(), sc.end(), ';', '\n');
    req.scenario = sc;
  }
  if (fields.size() > 2 && !fields[2].empty()) {
    req.deadline_ms = dopf::cli::integer<std::uint32_t>(
        fields[2], "the deadline_ms field of " + where, 0);
  }
  if (fields.size() > 3 && !fields[3].empty()) {
    const std::string& r = fields[3];
    if (r != "0" && r != "1" && r != "false" && r != "true") {
      throw std::runtime_error(where + ": resume field '" + r +
                               "' is not 0, 1, true or false");
    }
    req.resume = r == "1" || r == "true";
  }
  if (fields.size() > 4) {
    throw std::runtime_error(where + ": too many '|' fields");
  }
  return req;
}

std::string format_outcome(const dopf::serve::Outcome& out) {
  char buf[512];
  if (out.kind == dopf::serve::Outcome::Kind::kResponse) {
    const auto& r = out.response;
    std::snprintf(
        buf, sizeof(buf),
        "response id=%" PRIu64
        " status=%s converged=%d iterations=%u objective=%s primal=%s "
        "dual=%s model_fp=%016" PRIx64 " scenario_fp=%016" PRIx64,
        r.request_id,
        dopf::core::to_string(static_cast<dopf::core::AdmmStatus>(r.status)),
        r.converged ? 1 : 0, r.iterations,
        dopf::verify::hex_double(r.objective).c_str(),
        dopf::verify::hex_double(r.primal_residual).c_str(),
        dopf::verify::hex_double(r.dual_residual).c_str(), r.model_fp,
        r.scenario_fp);
  } else {
    const auto& rej = out.reject;
    std::snprintf(buf, sizeof(buf), "reject id=%" PRIu64 " code=%s msg=%s",
                  rej.request_id, dopf::serve::to_string(rej.code),
                  rej.message.c_str());
  }
  return buf;
}

int outcome_exit_code(const dopf::serve::Outcome& out) {
  using dopf::serve::RejectCode;
  if (out.kind == dopf::serve::Outcome::Kind::kResponse) {
    return out.response.converged ? 0 : 2;
  }
  switch (out.reject.code) {
    case RejectCode::kPreflight: return 5;
    case RejectCode::kDeadline:
    case RejectCode::kDrained:
    case RejectCode::kShuttingDown: return 6;
    case RejectCode::kQuarantined: return 9;
    default: return 4;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string requests_file;
  dopf::serve::SolveRequest base;
  std::vector<std::string> overrides;
  dopf::serve::ClientOptions copts;
  bool ping = false;
  int repeat = 1, concurrency = 1;
  std::uint64_t base_id = 1;

  try {
    dopf::cli::Args args(argc, argv);
    while (args.next()) {
      const std::string& arg = args.flag();
      if (arg == "--socket") {
        copts.socket_path = args.value();
      } else if (arg == "--ping") {
        ping = true;
      } else if (arg == "--feeder") {
        base.feeder = args.value();
      } else if (arg == "--override") {
        overrides.push_back(args.value());
      } else if (arg == "--requests") {
        requests_file = args.value();
      } else if (arg == "--repeat") {
        repeat = args.integer(1);
      } else if (arg == "--concurrency") {
        concurrency = args.integer(1);
      } else if (arg == "--id") {
        base_id = args.integer<std::uint64_t>(0);
      } else if (arg == "--deadline-ms") {
        base.deadline_ms = args.integer<std::uint32_t>(0);
      } else if (arg == "--resume") {
        base.resume = true;
      } else if (arg == "--rho") {
        base.rho = args.real(dopf::core::admissible_parameter, "> 0");
      } else if (arg == "--eps") {
        base.eps_rel = args.real(dopf::core::admissible_parameter, "> 0");
      } else if (arg == "--max-iters") {
        base.max_iterations = args.integer<std::uint32_t>(0);
      } else if (arg == "--check-every") {
        base.check_every = args.integer<std::uint32_t>(0);
      } else if (arg == "--preflight") {
        base.preflight = args.value();
      } else if (arg == "--retries") {
        copts.retries = args.integer(0);
      } else if (arg == "--backoff-ms") {
        copts.backoff_base_ms = args.integer(0);
      } else if (arg == "--timeout-ms") {
        copts.response_timeout_ms = args.integer(0);
      } else if (arg == "--seed") {
        copts.seed = args.integer<std::uint64_t>(0);
      } else {
        args.unknown();
      }
    }
    dopf::cli::check({
        {copts.socket_path.empty(), "--socket PATH is required"},
        {!ping && base.feeder.empty() && requests_file.empty(),
         "need --ping, --feeder or --requests"},
    });
  } catch (const dopf::cli::UsageError& e) {
    return dopf::cli::refuse(argv[0], e, kUsage);
  }

  if (ping) {
    dopf::serve::Client client(copts);
    if (client.ping(base_id)) {
      std::printf("pong id=%" PRIu64 "\n", base_id);
      return 0;
    }
    std::fprintf(stderr, "%s: no pong from %s\n", argv[0],
                 copts.socket_path.c_str());
    return 8;
  }

  // Assemble the request list.
  std::vector<dopf::serve::SolveRequest> jobs;
  try {
    if (!requests_file.empty()) {
      std::ifstream in(requests_file);
      if (!in) {
        std::fprintf(stderr, "%s: cannot open %s\n", argv[0],
                     requests_file.c_str());
        return 1;
      }
      std::string line;
      int line_no = 0;
      while (std::getline(in, line)) {
        ++line_no;
        std::string trimmed = line;
        trimmed.erase(0, trimmed.find_first_not_of(" \t"));
        if (trimmed.empty() || trimmed[0] == '#') continue;
        jobs.push_back(parse_request_line(base, trimmed, line_no));
      }
    } else {
      dopf::serve::SolveRequest req = base;
      std::string sc;
      for (const auto& ovr : overrides) {
        sc += ovr;
        sc += '\n';
      }
      req.scenario = sc;
      jobs.push_back(req);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }

  // Expand repeats and assign ids.
  std::vector<dopf::serve::SolveRequest> expanded;
  for (int r = 0; r < repeat; ++r) {
    for (const auto& j : jobs) expanded.push_back(j);
  }
  for (std::size_t i = 0; i < expanded.size(); ++i) {
    expanded[i].request_id = base_id + i;
  }

  std::vector<std::string> lines(expanded.size());
  std::vector<int> codes(expanded.size(), 0);

  const int lanes =
      std::min<int>(concurrency, static_cast<int>(expanded.size()));
  auto run_lane = [&](int lane) {
    dopf::serve::ClientOptions lane_opts = copts;
    lane_opts.seed = copts.seed + static_cast<std::uint64_t>(lane);
    dopf::serve::Client client(lane_opts);
    for (std::size_t i = static_cast<std::size_t>(lane); i < expanded.size();
         i += static_cast<std::size_t>(lanes)) {
      try {
        const auto out = client.submit(expanded[i]);
        lines[i] = format_outcome(out);
        codes[i] = outcome_exit_code(out);
        if (out.attempts > 1) {
          std::fprintf(stderr, "request %" PRIu64 ": %d attempt(s)\n",
                       expanded[i].request_id, out.attempts);
        }
      } catch (const dopf::serve::ClientError& e) {
        lines[i] = "error id=" + std::to_string(expanded[i].request_id) +
                   " msg=" + e.what();
        codes[i] =
            e.kind() == dopf::serve::ClientError::Kind::kOverloaded ? 7 : 8;
      }
    }
  };

  if (lanes <= 1) {
    run_lane(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(lanes));
    for (int lane = 0; lane < lanes; ++lane) {
      threads.emplace_back(run_lane, lane);
    }
    for (auto& th : threads) th.join();
  }

  int code = 0;
  for (std::size_t i = 0; i < expanded.size(); ++i) {
    std::printf("%s\n", lines[i].c_str());
    code = std::max(code, codes[i]);
  }
  return code;
}

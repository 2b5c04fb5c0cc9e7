// perfbench_harness: runs one benchmark workload and prints its result
// record as one JSON line. perfbench/run.py builds and drives it.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     --out-dir DIR [--serve-bin PATH] [--nproc N]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", a.c_str());
      return 2;
    }
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::stoull(v);
    } else if (a == "--seconds") {
      args.seconds = std::stod(v);
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--out-dir") {
      args.out_dir = v;
    } else if (a == "--serve-bin") {
      args.serve_bin = v;
    } else if (a == "--nproc") {
      args.nproc = std::max(1, std::atoi(v.c_str()));
    } else {
      std::fprintf(stderr, "unknown argument %s\n", a.c_str());
      return 2;
    }
  }
  if (args.out_dir.empty() || args.seconds <= 0.0) {
    std::fprintf(stderr, "--out-dir and a positive --seconds are required\n");
    return 2;
  }

  perfbench::Record rec;
  try {
    if (args.workload == "cold-8500") {
      perfbench::run_cold(args, rec);
    } else if (args.workload == "stream-123") {
      perfbench::run_stream(args, rec);
    } else if (args.workload == "serve-mix" ||
               args.workload == "serve-capacity") {
      perfbench::run_serve(args, rec);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  if (args.trace) perfbench::finish_per_layer(rec);
  std::printf("%s\n", rec.to_json(args).c_str());
  return rec.correct ? 0 : 3;
}

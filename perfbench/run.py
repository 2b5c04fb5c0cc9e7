#!/usr/bin/env python3
"""Benchmark entry point: build the repository and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
repository (Release) and the harness under .bench_build/; later runs reuse
that build. The harness prints one result record; this script adds the host
fingerprint, checks the counts that must repeat exactly for one seed, and
prints two lines: the full record, then the summary line
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics, with --trace 1 the per-layer ones. A failed
correctness gate prints the result with "correct": false and exits 1; a
missing source tree or a failed build exits 2 without a result.

Workloads: stream-123, serve-mix (the gated ones, see BENCHMARK.json),
cold-8500 (kept runnable, not gated: see README.md) and serve-capacity (the
closed-loop capacity measurement the serve-mix rates were frozen from).
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys

WORKLOADS = ("stream-123", "serve-mix", "cold-8500", "serve-capacity")
BUILD_DIR = ".bench_build"
OUT_DIR = os.path.join(BUILD_DIR, "perfbench-out")
HARNESS_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_logged(cmd, log_path):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        with open(log_path) as log:
            tail = log.read()[-4000:]
        die("command failed: %s\n%s" % (" ".join(cmd), tail))


def build(root):
    """Configure (once) and build the repository and the harness."""
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        die("no dopf source tree at %s" % root)
    os.makedirs(OUT_DIR, exist_ok=True)
    log = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(4, nproc()))
    dopf_dir = os.path.join(BUILD_DIR, "dopf")
    harness_dir = os.path.join(BUILD_DIR, "harness")
    if not os.path.isfile(os.path.join(dopf_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ".", "-B", dopf_dir,
                    "-DCMAKE_BUILD_TYPE=Release", "-DDOPF_BUILD_TESTS=OFF",
                    "-DDOPF_BUILD_BENCH=OFF", "-DDOPF_BUILD_EXAMPLES=OFF"], log)
    run_logged(["cmake", "--build", dopf_dir, "-j", jobs], log)
    if not os.path.isfile(os.path.join(harness_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", "perfbench", "-B", harness_dir,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DDOPF_BUILD_DIR=" + os.path.abspath(dopf_dir)], log)
    run_logged(["cmake", "--build", harness_dir, "-j", jobs], log)
    return (os.path.join(harness_dir, "perfbench_harness"),
            os.path.join(dopf_dir, "tools", "dopf_serve"))


def cmake_cache(key):
    path = os.path.join(BUILD_DIR, "dopf", "CMakeCache.txt")
    with open(path) as f:
        for line in f:
            if line.startswith(key + ":"):
                return line.split("=", 1)[1].strip()
    return ""


def host_fingerprint():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {"cpu": cpu, "nproc": nproc(), "compiler": version,
            "build_type": cmake_cache("CMAKE_BUILD_TYPE")}


def source_digest(root):
    """Digest of everything the measured program and harness are built from."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, names in os.walk(path) for n in names)
        for name in files:
            h.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def check_exact_counts(record, digest):
    """Counts must repeat exactly across runs of one seed and run length on
    one source."""
    path = os.path.join(OUT_DIR, "counts-%s-%d-%g-%s.json" % (
        record["workload"], record["seed"], record["seconds"], digest))
    counts = record["exact_counts"]
    if os.path.isfile(path):
        with open(path) as f:
            earlier = json.load(f)
        for name in sorted(set(earlier) & set(counts)):
            if earlier[name] != counts[name]:
                return "%s was %d in an earlier run of this seed, now %d" % (
                    name, earlier[name], counts[name])
        counts = dict(earlier, **counts)
    with open(path, "w") as f:
        json.dump(counts, f, sort_keys=True)
    return None


def declared_metrics(root, workload, trace):
    """The metric names BENCHMARK.json declares, if it gates `workload`."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    if workload not in [w["name"] for w in spec["workloads"]]:
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    harness, serve_bin = build(root)
    fingerprint = host_fingerprint()
    if fingerprint["build_type"] != "Release":
        print("perfbench: WARNING: %s build; do not compare its numbers "
              "with Release runs" % (fingerprint["build_type"] or "untyped"),
              file=sys.stderr)

    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--serve-bin", serve_bin,
           "--nproc", str(nproc())]
    # Its own process group, so a timeout also stops the server and workers
    # the harness started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("harness timed out after %d s" % HARNESS_TIMEOUT_S)
    lines = stdout.strip().splitlines()
    if proc.returncode not in (0, 3) or not lines:
        die("harness failed with exit code %d" % proc.returncode)
    record = json.loads(lines[-1])
    record["host"] = fingerprint
    record["source_digest"] = source_digest(root)
    record["release_build"] = fingerprint["build_type"] == "Release"

    mismatch = check_exact_counts(record, record["source_digest"])
    if mismatch:
        record["correct"] = False
        record["gate_failures"].append("exact count: " + mismatch)
    declared = declared_metrics(root, args.workload, args.trace)
    if declared is not None:
        missing = [m for m in declared if m not in record["metrics"]]
        if missing:
            die("harness did not report %s" % ", ".join(missing))
        record["metrics"] = {m: record["metrics"][m] for m in declared}

    with open(os.path.join(OUT_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))
    for failure in record["gate_failures"]:
        print("perfbench: GATE FAILED: " + failure, file=sys.stderr)
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

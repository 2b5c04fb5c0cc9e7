#!/usr/bin/env python3
"""Paired A/B runs of two checkouts: perfbench workloads and microbenchmarks.

Compares a parent checkout with a change checkout on a host whose speed
drifts: every pair runs both sides back to back, and the side that goes
first alternates (parent first on even pairs, change first on odd ones), so
drift shows up as spread rather than as a bias. Writes one JSON file in the
schema of BENCH_kernel_schedule.json and prints, per metric, the median
ratio and how many pairs the change won.

  python3 tools/ab_pairs.py --parent ../parent --change . \\
      --workload stream-123 --pairs 10 --seconds 45 \\
      --microbench build/bench/update_microbench ../parent/build/bench/update_microbench \\
      --rounds 10 --cpu 2 --out BENCH_x.json --topic "what changed"

The perfbench side runs `python3 perfbench/run.py` inside each checkout
(run.py builds each one into its own .bench_build/). The microbench side
runs two already-built update_microbench binaries, given change first.
Metric directions come from BENCHMARK.json in the change checkout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

# BM_ row names and the phase each stands for, per instance.
MICRO_PHASES = {
    "global": "BM_GlobalUpdate/{arg}",
    "local": "BM_SolverFreeLocalUpdate/{arg}",
    "dual": "BM_DualUpdate/{arg}",
    "iteration_no_check": "BM_IterationNoCheck/{name}",
    "iteration_check": "BM_Iteration/{name}",
}
MICRO_INSTANCES = {"ieee13": 0, "ieee123": 1, "ieee8500": 2}
MICRO_FILTER = ("^BM_(SolverFreeLocalUpdate|GlobalUpdate|DualUpdate)/[012]$"
                "|^BM_Iteration(NoCheck)?/")


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [float(f"{v:.4g}") for v in (q[0], statistics.median(values), q[2])]


def order(pair):
    return ("parent", "change") if pair % 2 == 0 else ("change", "parent")


def run_perfbench(checkout, workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = [l for l in out.stdout.splitlines() if l.startswith("{")]
    if len(lines) < 2:
        sys.exit(f"perfbench in {checkout} printed no result:\n{out.stderr}")
    record, result = json.loads(lines[-2]), json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics.update(failed=result["failed"], attempted=result["attempted"],
                   correct=result["correct"])
    return metrics, record


def directions(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["better"] for m in bench["end_to_end"]}


def summarize(parent, change, better):
    """Quartiles of both sides, the median change/parent ratio oriented so
    that > 1 is better, and the pairs the change won."""
    gain = [(p / c if better == "lower" else c / p) if p and c else 1.0
            for p, c in zip(parent, change)]
    won = sum(1 for g in gain if g > 1.0)
    return {"parent_quartiles": quartiles(parent),
            "change_quartiles": quartiles(change),
            "median_gain": round(statistics.median(gain), 3),
            "change_better_in": f"{won} of {len(gain)}"}


def perfbench_pairs(args, workload, better):
    pairs, host = [], None
    for i in range(args.pairs):
        seed = args.seed + i
        row = {"seed": seed, "first": order(i)[0]}
        counts = {}
        for side in order(i):
            checkout = args.parent if side == "parent" else args.change
            metrics, record = run_perfbench(checkout, workload, seed,
                                            args.seconds)
            row[side] = metrics
            counts[side] = record.get("exact_counts", {})
            host = host or record.get("host")
        row["exact_counts"] = counts
        pairs.append(row)
        print(f"{workload} pair {i + 1}/{args.pairs}: " + ", ".join(
            f"{s} steps_per_s={row[s].get('steps_per_s', 0):.2f}"
            for s in ("parent", "change")), file=sys.stderr)
    summary = {}
    for name, way in better.items():
        if all(name in p["parent"] and name in p["change"] for p in pairs):
            summary[name] = summarize([p["parent"][name] for p in pairs],
                                      [p["change"][name] for p in pairs], way)
    return {"pairs": pairs, "summary": summary}, host


def run_micro(binary, min_time, cpu):
    pin = ["taskset", "-c", cpu] if cpu else []
    out = subprocess.run(
        pin + [binary, f"--benchmark_filter={MICRO_FILTER}",
               f"--benchmark_min_time={min_time}", "--benchmark_format=json"],
        capture_output=True, text=True, check=True)
    rows = json.loads(out.stdout)["benchmarks"]
    scale = {"ns": 1e-3, "us": 1.0, "ms": 1e3}
    return {r["name"]: r["real_time"] * scale[r["time_unit"]] for r in rows}


def micro_rounds(args):
    change_bin, parent_bin = args.microbench
    runs = {"parent": [], "change": []}
    for i in range(args.rounds):
        for side in order(i):
            runs[side].append(run_micro(
                parent_bin if side == "parent" else change_bin, args.min_time,
                args.cpu))
        print(f"microbench round {i + 1}/{args.rounds}", file=sys.stderr)
    results = {}
    for name, arg in MICRO_INSTANCES.items():
        results[name] = {}
        for phase, pattern in MICRO_PHASES.items():
            bench = pattern.format(arg=arg, name=name)
            if bench not in runs["parent"][0] or bench not in runs["change"][0]:
                continue
            p = [round(r[bench], 3) for r in runs["parent"]]
            c = [round(r[bench], 3) for r in runs["change"]]
            ratio = [a / b for a, b in zip(p, c)]
            results[name][phase] = {
                "benchmark": bench, "parent_us": p, "change_us": c,
                "parent_quartiles_us": quartiles(p),
                "change_quartiles_us": quartiles(c),
                "ratio_quartiles": quartiles(ratio),
                "change_faster_in":
                    f"{sum(1 for r in ratio if r > 1.0)} of {len(ratio)}"}
    return {"unit": "us per call (google-benchmark real_time)",
            "rounds": args.rounds,
            "order": "A/B alternating: even rounds run parent then change, "
                     "odd rounds change then parent",
            "command": (f"taskset -c {args.cpu} " if args.cpu else "") +
                       f"update_microbench --benchmark_filter='{MICRO_FILTER}' "
                       f"--benchmark_min_time={args.min_time}",
            "results": results}


def git_head(checkout):
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                         capture_output=True, text=True, check=False)
    return out.stdout.strip()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent checkout")
    parser.add_argument("--change", required=True, help="change checkout")
    parser.add_argument("--workload", action="append", default=[],
                        help="perfbench workload (repeatable)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of pair 0; pair i runs seed + i")
    parser.add_argument("--microbench", nargs=2, metavar=("CHANGE", "PARENT"),
                        help="update_microbench binaries")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--min-time", default="0.5")
    parser.add_argument("--cpu", default="",
                        help="pin the microbenchmarks to this CPU (taskset)")
    parser.add_argument("--topic", default="")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    doc = {"label": "measured", "topic": args.topic,
           "parent": git_head(args.parent)}
    host = None
    if args.microbench:
        doc["microbench"] = micro_rounds(args)
    if args.workload:
        better = directions(args.change)
        doc["perfbench"] = {
            "command": f"python3 perfbench/run.py --workload W --seed N "
                       f"--seconds {args.seconds:g} --trace 0 "
                       "(one checkout per side, built by run.py)",
            "order": "pairs alternate which side runs first, starting with "
                     "the parent"}
        for workload in args.workload:
            doc["perfbench"][workload], host = perfbench_pairs(
                args, workload, better)
        for workload in args.workload:
            pairs = doc["perfbench"][workload]["pairs"]
            doc.setdefault("pack_bytes", {})[workload] = {
                side: pairs[0]["exact_counts"][side].get("core.pack_bytes")
                for side in ("parent", "change")}
    doc["host"] = dict(host or {}, kernel=platform.release())
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    for workload in args.workload:
        for name, s in doc["perfbench"][workload]["summary"].items():
            print(f"{workload} {name}: median gain {s['median_gain']}, "
                  f"change better in {s['change_better_in']}")
    if args.microbench:
        for name, phases in doc["microbench"]["results"].items():
            for phase, r in phases.items():
                print(f"{r['benchmark']}: ratio quartiles "
                      f"{r['ratio_quartiles']}, change faster in "
                      f"{r['change_faster_in']}")


if __name__ == "__main__":
    main()

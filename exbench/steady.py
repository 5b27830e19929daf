#!/usr/bin/env python3
"""Steadiness check: two sets of N runs of one build.

Runs the command from BENCHMARK.json (from the root of the checkout this
script is in) N times per set, each run with its own seed, and reports for
every end-to-end metric each set's median, quartiles and spread (interquartile
distance over the median). The sets agree when every spread except setup_s's
stays within the metric's bound, the second median is not worse than the
first by more than the bound, and the share of failed operations is the same.
Exits 1 when they do not.

setup_s's spread is printed but not held to its bound. Its bound is there to
catch work moved into set-up, which shows as a worse median; a run sets up
only three times, in its first second or two, so its spread carries more of
the host's moment-to-moment speed than the measured loops do.

    python3 exbench/steady.py --workload contended --runs 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(bench, workload, seed, seconds, trace=0):
    """Runs the benchmark command once; returns the parsed result line."""
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"run failed: {' '.join(cmd)} (exit {proc.returncode})")
    return json.loads(lines[-1])


def summary(values):
    """Median, first and third quartile, and spread of a list of values."""
    if len(values) < 2:
        v = values[0]
        return v, v, v, 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--seconds", type=int, help="default: run_seconds")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bench = load_benchmark()
    seconds = args.seconds or bench["run_seconds"]
    sets = []
    for s in range(2):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            result = run_once(bench, args.workload, seed, seconds)
            if not result["correct"]:
                raise SystemExit(f"seed {seed}: outputs were not correct")
            results.append(result)
            print(f"set {s + 1} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        sets.append(results)

    agree = True
    print(f"\n{args.workload}: {args.runs} runs per set, {seconds} s each")
    print(f"{'metric':<18} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for s, results in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, spread = summary(values)
            medians.append(med)
            flag = ""
            if name != "setup_s" and spread > bound:
                flag, agree = " SPREAD", False
            print(f"{name:<18} {s + 1:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound:>6}{flag}")
        drift = worse_by(medians[0], medians[1], metric["better"])
        if drift > bound:
            agree = False
            print(f"{name:<18} second median worse by {drift:.4f} > {bound}")
    shares = {r["failed"] / r["attempted"] for results in sets for r in results}
    if len(shares) > 1:
        agree = False
    print(f"failed share per run: {sorted(shares)}")
    print("sets agree" if agree else "sets DO NOT agree")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())

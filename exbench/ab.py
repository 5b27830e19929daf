#!/usr/bin/env python3
"""Interleaved same-box A/B of two commits.

Exports each commit's tree with `git archive` into its own directory under
--workdir, puts this checkout's benchmark directory and BENCHMARK.json into
both (so the two sides run identical benchmark code), builds each once, and
then runs pairs of runs, alternating which side goes first. For every
end-to-end metric it prints each side's median and quartiles, the share of
pairs the head side won (ties count for neither), and whether the gap between
the medians exceeds the base side's own interquartile distance.

    python3 exbench/ab.py --base HEAD~1 --head HEAD --workload contended \\
        --pairs 10 --workdir ../ab-work
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def export(rev, dest):
    """Places the tree of commit `rev` at `dest`."""
    if os.path.exists(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def install_benchmark(dest):
    """Copies this checkout's benchmark into an exported tree."""
    target = os.path.join(dest, os.path.basename(BENCH_DIR))
    if os.path.exists(target):
        shutil.rmtree(target)
    shutil.copytree(BENCH_DIR, target, ignore=shutil.ignore_patterns("target", "__pycache__"))
    shutil.copy2(os.path.join(ROOT, "BENCHMARK.json"), os.path.join(dest, "BENCHMARK.json"))


def build(dest, target_dir):
    """Builds the benchmark in an exported tree; returns the executable."""
    manifest = os.path.join(dest, os.path.basename(BENCH_DIR), "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    subprocess.run(["cargo", "build", "--release", "--offline", "--manifest-path", manifest],
                   cwd=dest, env=env, check=True)
    return os.path.join(target_dir, "release", "exbench")


def run(exe, dest, target_dir, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    proc = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=dest, env=env, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{exe} failed on seed {seed} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{exe}: outputs not correct on seed {seed}")
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base commit")
    parser.add_argument("--head", required=True, help="head commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, help="default: run_seconds")
    parser.add_argument("--first-seed", type=int, default=1000,
                        help="seeds first-seed, first-seed+1, ... (default: held-out 1000)")
    parser.add_argument("--workdir", required=True, help="directory for the two trees and builds")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workdir = os.path.abspath(args.workdir)
    sides = {}
    for name, rev in (("base", args.base), ("head", args.head)):
        dest = os.path.join(workdir, name)
        target_dir = os.path.join(workdir, name + "-build")
        export(rev, dest)
        install_benchmark(dest)
        sides[name] = (build(dest, target_dir), dest, target_dir)

    results = {"base": [], "head": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for name in order:
            results[name].append(run(*sides[name], args.workload, seed, seconds))
        print(f"pair {i + 1}/{args.pairs} (seed {seed}, {order[0]} first) done", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs, {seconds} s per run, "
          f"base {args.base}, head {args.head}")
    print(f"{'metric':<18} {'side':<5} {'median':>12} {'q1':>12} {'q3':>12} {'head wins':>10} {'gap>IQR':>8}")
    for metric in bench["end_to_end"]:
        name, better = metric["name"], metric["better"]
        base = [r["metrics"][name]["value"] for r in results["base"]]
        head = [r["metrics"][name]["value"] for r in results["head"]]
        bq1, bmed, bq3 = quartiles(base)
        hq1, hmed, hq3 = quartiles(head)
        wins = sum((h < b) if better == "lower" else (h > b) for b, h in zip(base, head))
        gap = abs(hmed - bmed) > (bq3 - bq1)
        print(f"{name:<18} {'base':<5} {bmed:>12.6g} {bq1:>12.6g} {bq3:>12.6g}")
        print(f"{name:<18} {'head':<5} {hmed:>12.6g} {hq1:>12.6g} {hq3:>12.6g} "
              f"{wins / args.pairs:>10.2f} {str(gap):>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

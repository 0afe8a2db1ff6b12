#!/usr/bin/env python3
"""Paired parent/change comparison on the end-to-end benchmark.

    python3 bench/e2e/compare.py --parent ../parent --change . [--pairs 10]
                                 [--workload fig10-matrix ...] [--seconds N]

--parent and --change are checkout roots that each hold BENCHMARK.json and
bench/e2e/run.py.  For every workload it runs --pairs pairs of untraced runs,
pair i on seed i + 1 for both sides, alternating which side runs first.  Per
workload and end-to-end metric it prints each side's median and quartiles,
the change's wins, and a verdict:

    gain          the change is better in >= 9/10 of the pairs (ties count
                  for neither) and the medians differ by more than the
                  parent's inter-quartile spread; never when the change
                  failed more experiments than the parent
    regression    the change's median is worse than the parent's by more
                  than the metric's bound
    unresolved    the parent's spread exceeds the bound and the change does
                  not read better on every run than the parent on every run
    within bound  otherwise

Bounds and directions come from the parent's BENCHMARK.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(root, workload, seed, seconds):
    cmd = [sys.executable, "bench/e2e/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        sys.exit(f"compare.py: {root}: {workload} seed {seed} printed no result "
                 f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, parent, change, failed_more):
    lower = metric["better"] == "lower"
    better = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    worse_by = (cm - pm if lower else pm - cm) / pm
    if (not failed_more and wins >= 0.9 * len(parent) and better(cm, pm)
            and abs(cm - pm) > p3 - p1):
        return wins, "gain"
    dominates = all(better(c, p) for c in change for p in parent)
    if (p3 - p1) / pm > metric["bound"] and not dominates:
        return wins, "unresolved"
    if worse_by > metric["bound"]:
        return wins, "regression"
    return wins, "within bound"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    if args.pairs < 10:
        ap.error("--pairs must be at least 10")

    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    if json.loads((args.change / "BENCHMARK.json").read_text()) != bench:
        print("compare.py: warning: the two BENCHMARK.json files differ", file=sys.stderr)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]

    for workload in workloads:
        results = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                root = args.parent if side == "parent" else args.change
                results[side].append(run(root, workload, i + 1, seconds))
        failed = {side: sum(r["failed"] for r in rs) for side, rs in results.items()}
        incorrect = {side: sum(not r["correct"] for r in rs) for side, rs in results.items()}
        print(f"\n{workload}: {args.pairs} pairs; failed experiments parent {failed['parent']}"
              f", change {failed['change']}; incorrect runs parent {incorrect['parent']}"
              f", change {incorrect['change']}")
        print(f"  {'metric':<20} {'parent q1/med/q3':>32} {'change q1/med/q3':>32}"
              f" {'wins':>5}  verdict")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            parent = [r["metrics"][name]["value"] for r in results["parent"]]
            change = [r["metrics"][name]["value"] for r in results["change"]]
            wins, v = verdict(metric, parent, change, failed["change"] > failed["parent"])
            fmt = lambda qs: "/".join(f"{q:.4g}" for q in qs)
            print(f"  {name:<20} {fmt(quartiles(parent)):>32} {fmt(quartiles(change)):>32}"
                  f" {wins:>2}/{args.pairs:<2}  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 bench/e2e/run.py --workload fig10-matrix --seed 1 --seconds 20 --trace 0

Run from the repository root.  Builds bench/e2e (Release) into
.bench_build/e2e, runs e2e_bench, checks every experiment, echoes its
`name value unit` lines and prints one JSON object as the last line of
stdout:

    {"correct": true, "attempted": 152, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes .bench_build/e2e/trace-<workload>.json).  An
experiment fails when it throws, when a rerun does not reproduce it bit for
bit, or when it deviates from bench/e2e/reference/ beyond the tolerances
below.  The exit code is 1 when any check fails, 2 on a usage error.

Other modes:
    --smoke             every workload at scale 12 for 1 s, untraced and
                        traced; checks that every BENCHMARK.json metric is
                        printed with its unit and that nothing failed.
    --regen-reference   rewrite the reference CSVs (seeds 1 and 2).
"""
import argparse
import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HERE = ROOT / "bench" / "e2e"
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "e2e_bench"
REFERENCE = HERE / "reference"
REFERENCE_SEEDS = (1, 2)
SMOKE_SCALE = 12

# Deviation allowed against a reference row.
REL_TOL = {"exec_time_ms": 0.01, "pim_ops": 0.01, "link_raw_bytes": 0.01}
PEAK_TOL_C = 0.1
REF_FIELDS = ["workload", "scenario", "exec_time_ms", "pim_ops", "link_raw_bytes",
              "peak_dram_c", "shut_down"]

# Fig. 10 geomean speedups over non-offloading reported by the paper.
PAPER_SPEEDUP = {"Naive-Offloading": 1.00, "CoolPIM (SW)": 1.21, "CoolPIM (HW)": 1.25,
                 "Ideal Thermal": 1.36}
SPEEDUP_ERR_BOUND_PP = 0.25
COOLPIM_PEAK_LIMIT_C = 86.0


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    """Configure and build incrementally; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(BUILD), "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            sys.exit("run.py: building the benchmark failed")


def run_bench(workload, seed, seconds, trace, scale=None):
    """Runs e2e_bench; returns ({name: (value, unit)}, result rows, stdout lines)."""
    results = BUILD / f"results-{workload}.csv"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--results", str(results)]
    if trace:
        cmd += ["--trace-out", str(BUILD / f"trace-{workload}.json")]
    if scale is not None:
        cmd += ["--scale", str(scale)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"run.py: e2e_bench exited with code {proc.returncode}")
    lines = proc.stdout.splitlines()
    metrics = {}
    for line in lines:
        name, value, unit = line.split()
        metrics[name] = (float(value), unit)
    with results.open() as f:
        rows = list(csv.DictReader(f))
    return metrics, rows, lines


def reference_path(workload, scale, seed):
    return REFERENCE / f"{workload}-scale{scale}-seed{seed}.csv"


def load_reference(workload, scale, seed):
    path = reference_path(workload, scale, seed)
    if not path.exists():
        return None
    with path.open() as f:
        return {(r["workload"], r["scenario"]): r for r in csv.DictReader(f)}


def deviations(row, ref):
    """Names of the fields on which `row` deviates from its reference row."""
    out = [k for k, tol in REL_TOL.items()
           if abs(float(row[k]) - float(ref[k])) > tol * abs(float(ref[k]))]
    if abs(float(row["peak_dram_c"]) - float(ref["peak_dram_c"])) > PEAK_TOL_C:
        out.append("peak_dram_c")
    if row["shut_down"] != ref["shut_down"]:
        out.append("shut_down")
    return out


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def fig10_speedups(rows):
    """Geomean over workloads of non-offloading exec time / scenario exec time."""
    exec_ms = {(r["workload"], r["scenario"]): float(r["exec_time_ms"]) for r in rows}
    names = sorted({r["workload"] for r in rows})
    return {s: geomean([exec_ms[(w, "Non-Offloading")] / exec_ms[(w, s)] for w in names])
            for s in PAPER_SPEEDUP}


def speedup_err_pct(speedups):
    return 100.0 * sum(abs(speedups[s] - p) / p for s, p in PAPER_SPEEDUP.items()) / len(
        PAPER_SPEEDUP)


def fig10_shape_problems(rows, reference):
    """The paper's Fig. 10/13 shape, plus the accuracy bound where a reference exists."""
    problems = []
    peak = lambda scenarios: max(float(r["peak_dram_c"]) for r in rows
                                 if r["scenario"] in scenarios)
    coolpim_peak = peak({"CoolPIM (SW)", "CoolPIM (HW)"})
    naive_peak = peak({"Naive-Offloading"})
    if not coolpim_peak <= COOLPIM_PEAK_LIMIT_C < naive_peak:
        problems.append(f"peaks: CoolPIM {coolpim_peak:.2f} C, naive {naive_peak:.2f} C "
                        f"(need CoolPIM <= {COOLPIM_PEAK_LIMIT_C} < naive)")
    g = fig10_speedups(rows)
    hw, sw, naive = g["CoolPIM (HW)"], g["CoolPIM (SW)"], g["Naive-Offloading"]
    if not hw > sw > naive > 1.0:
        problems.append(f"geomean speedups HW {hw:.3f}, SW {sw:.3f}, naive {naive:.3f} "
                        "(need HW > SW > naive > 1)")
    err = speedup_err_pct(g)
    print(f"fig10_speedup_err_pct {err!r} %")
    if reference is not None:
        ref_err = speedup_err_pct(fig10_speedups(list(reference.values())))
        if err > ref_err + SPEEDUP_ERR_BOUND_PP:
            problems.append(f"fig10_speedup_err_pct {err:.3f} exceeds the reference "
                            f"{ref_err:.3f} by more than {SPEEDUP_ERR_BOUND_PP} pp")
    return problems


def check(workload, seed, metrics, rows, default_scale):
    """Returns (attempted, failed, problems)."""
    scale = int(metrics["scale"][0])
    reference = load_reference(workload, scale, seed) if default_scale else None
    attempted = failed = 0
    problems = []
    for row in rows:
        runs = int(row["runs"])
        attempted += runs
        why = []
        if row["threw"] == "1":
            why.append("threw")
        elif row["consistent"] == "0":
            why.append("reruns differ")
        elif reference is not None:
            why += deviations(row, reference[(row["workload"], row["scenario"])])
        if why:
            failed += runs
            problems.append(f"{row['workload']} / {row['scenario']}: {', '.join(why)}")
    if default_scale and workload == "fig10-matrix" and failed == 0:
        problems += fig10_shape_problems(rows, reference)
    if "span_coverage_pct" in metrics and metrics["span_coverage_pct"][0] < 95.0:
        problems.append("constructor, advance and step spans cover under 95% of the run")
    return attempted, failed, problems


def summary(bench, trace, metrics):
    """The JSON metrics block: exactly the metrics BENCHMARK.json lists for this mode."""
    out = {}
    for m in bench["per_layer" if trace else "end_to_end"]:
        if m["name"] not in metrics:
            sys.exit(f"run.py: e2e_bench printed no {m['name']}")
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            sys.exit(f"run.py: {m['name']} printed in {unit}, BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def run_one(args, bench):
    metrics, rows, lines = run_bench(args.workload, args.seed, args.seconds, args.trace,
                                      args.scale)
    for line in lines:
        print(line)
    attempted, failed, problems = check(args.workload, args.seed, metrics, rows,
                                        args.scale is None)
    for p in problems:
        print(f"run.py: FAILED {p}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary(bench, args.trace, metrics)}))
    return 0 if correct else 1


def smoke(bench):
    ok = True
    for w in bench["workloads"]:
        for trace in (0, 1):
            metrics, rows, _ = run_bench(w["name"], 1, 1, trace, SMOKE_SCALE)
            summary(bench, trace, metrics)
            attempted, failed, problems = check(w["name"], 1, metrics, rows, False)
            print(f"{w['name']} trace={trace}: {attempted} experiments, {failed} failed")
            for p in problems:
                print(f"  FAILED {p}")
            ok = ok and not problems and failed == 0
    return 0 if ok else 1


def regen_reference(bench):
    REFERENCE.mkdir(exist_ok=True)
    for w in bench["workloads"]:
        for seed in REFERENCE_SEEDS:
            metrics, rows, _ = run_bench(w["name"], seed, 1, 0)
            bad = [r for r in rows if r["threw"] == "1" or r["consistent"] == "0"]
            if bad:
                sys.exit(f"run.py: {w['name']} seed {seed} is not reproducible; not written")
            path = reference_path(w["name"], int(metrics["scale"][0]), seed)
            with path.open("w", newline="") as f:
                out = csv.DictWriter(f, fieldnames=REF_FIELDS, extrasaction="ignore",
                                     lineterminator="\n")
                out.writeheader()
                out.writerows(rows)
            print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--workload", choices=names)
    mode.add_argument("--smoke", action="store_true")
    mode.add_argument("--regen-reference", action="store_true")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=int, help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (args.workload or args.smoke or args.regen_reference):
        p.error("one of --workload, --smoke or --regen-reference is required")

    build()
    if args.smoke:
        return smoke(bench)
    if args.regen_reference:
        return regen_reference(bench)
    return run_one(args, bench)


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Validate BENCH_*.json files emitted by the perf harness.

Schema check by default -- no performance thresholds.  CI runs the perf
binaries at --quick scale and uploads the JSONs as artifacts; this script
guards the contract that downstream tooling (and humans diffing artifacts
across PRs) relies on: the schema tag, the required keys, their types, and
that every number is finite and non-negative.

With --baseline-dir DIR (the repo commits bench/baselines/), each file is
additionally compared against the committed baseline of the same schema:
every throughput-style metric (higher-is-better rates and speedups) that
regressed by more than --regress-pct (default 20) is reported.  Regressions
WARN by default -- perf varies across machines, so the baselines make
BENCH_*.json trajectories actionable without gating CI on hardware -- and
fail the run only under --strict.

Usage:
    python3 tools/check_bench.py BENCH_thermal.json [BENCH_sim.json ...]
    python3 tools/check_bench.py --baseline-dir bench/baselines BENCH_sim.json
"""

import argparse
import glob
import json
import math
import os
import sys

NUM = (int, float)

# schema tag -> {key path: expected type(s)}.  A trailing "[]" walks every
# element of an array.
SCHEMAS = {
    "coolpim-bench-thermal/4": {
        "quick": bool,
        "transient.nodes": NUM,
        "transient.substeps_per_step": NUM,
        "transient.fast_steps_timed": NUM,
        "transient.reference_steps_timed": NUM,
        "transient.fast_ns_per_cell_substep": NUM,
        "transient.reference_ns_per_cell_substep": NUM,
        "transient.speedup": NUM,
        "transient.bit_identical": bool,
        "steady.points_per_sweep": NUM,
        "steady.sor_cold_iterations": NUM,
        "steady.sor_cold_ms": NUM,
        "steady.superposed_ms": NUM,
        "steady.speedup": NUM,
        "steady.unit_response_iterations": NUM,
        "steady.unit_response_ms": NUM,
        "steady.max_abs_diff_k": NUM,
        "tall_stack.layers": NUM,
        "tall_stack.nodes": NUM,
        "tall_stack.explicit_stable_dt_us": NUM,
        "tall_stack.explicit_substeps_per_step": NUM,
        "tall_stack.adi_substeps_per_step": NUM,
        "tall_stack.explicit_ms": NUM,
        "tall_stack.adi_ms": NUM,
        "tall_stack.speedup": NUM,
        "tall_stack.max_abs_error_k": NUM,
        "tall_stack.tolerance_k": NUM,
        "tall_stack.within_tolerance": bool,
    },
    "coolpim-bench-graph/1": {
        "quick": bool,
        "scale": NUM,
        "jobs": NUM,
        "construction.workloads": NUM,
        "construction.serial_ms": NUM,
        "construction.parallel_ms": NUM,
        "construction.speedup": NUM,
        "construction.profiles_bit_identical": bool,
        "cache.cold_ms": NUM,
        "cache.warm_ms": NUM,
        "cache.warm_speedup_vs_serial": NUM,
        "cache.cold_hits": NUM,
        "cache.cold_misses": NUM,
        "cache.cold_computed": NUM,
        "cache.cold_stored": bool,
        "cache.warm_hits": NUM,
        "cache.warm_misses": NUM,
        "cache.warm_computed": NUM,
        "cache.warm_all_hits": bool,
        "csr.serial_ms": NUM,
        "csr.parallel_ms": NUM,
        "csr.speedup": NUM,
        "csr.bit_identical": bool,
    },
    "coolpim-bench-resilience/1": {
        "quick": bool,
        "scale": NUM,
        "workload": str,
        "threshold_c": NUM,
        "workload_build_ms": NUM,
        "sweep_wall_ms": NUM,
        "drop_sweep[].scenario": str,
        "drop_sweep[].drop_rate": NUM,
        "drop_sweep[].noise_sigma_c": NUM,
        "drop_sweep[].peak_dram_c": NUM,
        "drop_sweep[].exec_ms": NUM,
        "drop_sweep[].warnings_delivered": NUM,
        "drop_sweep[].warnings_dropped": NUM,
        "drop_sweep[].watchdog_engagements": NUM,
        "noise_sweep[].scenario": str,
        "noise_sweep[].noise_sigma_c": NUM,
        "noise_sweep[].peak_dram_c": NUM,
        "gate.max_peak_dram_c": NUM,
        "gate.all_below_threshold": bool,
        "gate.watchdog_engaged_at_full_drop": bool,
        "gate.pass": bool,
    },
    "coolpim-bench-pareto/1": {
        "quick": bool,
        "scale": NUM,
        "threshold_c": NUM,
        "workload_build_ms": NUM,
        "sweep_wall_ms": NUM,
        "runs[].workload": str,
        "runs[].policy": str,
        "runs[].scenario": str,
        "runs[].exec_ms": NUM,
        "runs[].speedup": NUM,
        "runs[].peak_dram_c": NUM,
        "runs[].warnings": NUM,
        "policies[].policy": str,
        "policies[].geomean_speedup": NUM,
        "policies[].max_peak_dram_c": NUM,
        "policies[].total_warnings": NUM,
        "gate.mpc_max_peak_dram_c": NUM,
        "gate.mpc_geomean_speedup": NUM,
        "gate.reactive_geomean_speedup": NUM,
        "gate.peak_under_threshold": bool,
        "gate.throughput_at_least_reactive": bool,
        "gate.pass": bool,
    },
    "coolpim-bench-fleet/1": {
        "quick": bool,
        "nodes": NUM,
        "duration_ms": NUM,
        "arrival_rate_per_s": NUM,
        "rack_spread_c": NUM,
        "ceiling_c": NUM,
        "balancers[].balancer": str,
        "balancers[].wall_ms": NUM,
        "balancers[].arrived": NUM,
        "balancers[].served": NUM,
        "balancers[].shed": NUM,
        "balancers[].deferrals": NUM,
        "balancers[].p50_latency_ms": NUM,
        "balancers[].p99_latency_ms": NUM,
        "balancers[].agg_op_per_ns": NUM,
        "balancers[].max_node_peak_c": NUM,
        "balancers[].total_warnings": NUM,
        "balancers[].nodes[].index": NUM,
        "balancers[].nodes[].served": NUM,
        "balancers[].nodes[].warnings": NUM,
        "balancers[].nodes[].peak_c": NUM,
        "balancers[].nodes[].busy_ms": NUM,
        "gate.thermal_aware_max_peak_c": NUM,
        "gate.round_robin_max_peak_c": NUM,
        "gate.jsq_p99_latency_ms": NUM,
        "gate.thermal_aware_p99_latency_ms": NUM,
        "gate.thermal_aware_all_below_ceiling": bool,
        "gate.round_robin_exceeds_ceiling": bool,
        "gate.p99_within_factor_of_jsq": bool,
        "gate.jobs_bit_identical": bool,
        "gate.pass": bool,
    },
    "coolpim-bench-sim/7": {
        "quick": bool,
        "queue.events": NUM,
        "queue.wall_ms": NUM,
        "queue.events_per_sec": NUM,
        "queue.ns_per_event": NUM,
        "backend.xval_epochs": NUM,
        "backend.xval_tolerance": NUM,
        "backend.xval[].kernel": str,
        "backend.xval[].epoch_op_per_ns": NUM,
        "backend.xval[].pim_op_per_ns": NUM,
        "backend.xval[].ratio": NUM,
        "backend.xval[].pass": bool,
        "backend.epoch_throughput_ns_per_epoch": NUM,
        "backend.pim_vault_ns_per_epoch": NUM,
        "backend.gate_pass": bool,
    },
}

# Baseline comparison (--baseline-dir): throughput-style metrics where HIGHER
# is better.  A current value more than --regress-pct below the committed
# baseline's is a regression.  Wall-clock keys are deliberately absent --
# they swing with machine load and scale flags; rates and speedup ratios are
# the stable signal.
THROUGHPUT_KEYS = {
    "coolpim-bench-thermal/4": [
        "transient.speedup",
        "steady.speedup",
        "tall_stack.speedup",
    ],
    "coolpim-bench-graph/1": [
        "construction.speedup",
        "cache.warm_speedup_vs_serial",
        "csr.speedup",
    ],
    "coolpim-bench-sim/7": [
        "queue.events_per_sec",
    ],
}


def fail(msg):
    print(f"check_bench: {msg}", file=sys.stderr)
    sys.exit(1)


def lookup(doc, path, where):
    """Yield (location, value) for a dotted path; "[]" fans out over arrays."""
    head, _, rest = path.partition(".")
    if head.endswith("[]"):
        arr = doc.get(head[:-2])
        if not isinstance(arr, list):
            fail(f"{where}: '{head[:-2]}' must be an array")
        if not arr:
            fail(f"{where}: array '{head[:-2]}' must not be empty")
        for i, elem in enumerate(arr):
            if not isinstance(elem, dict):
                fail(f"{where}: '{head[:-2]}[{i}]' must be an object")
            yield from lookup(elem, rest, f"{where} [{i}]")
        return
    if not isinstance(doc, dict) or head not in doc:
        fail(f"{where}: missing key '{head}'")
    if rest:
        yield from lookup(doc[head], rest, where)
    else:
        yield f"{where}:{head}", doc[head]


def check_file(path):
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            fail(f"{path}: not valid JSON: {e}")

    if not isinstance(doc, dict):
        fail(f"{path}: top level must be an object")
    schema = doc.get("schema")
    keys = SCHEMAS.get(schema)
    if keys is None:
        known = ", ".join(sorted(SCHEMAS))
        fail(f"{path}: unknown schema tag {schema!r} (known: {known})")

    for key, expected in keys.items():
        for where, value in lookup(doc, key, path):
            # bool is an int subclass; keep the check strict.
            if isinstance(value, bool) and expected is not bool:
                fail(f"{where}: expected a number, got a bool")
            if not isinstance(value, expected):
                fail(f"{where}: expected {expected}, got {type(value).__name__}")
            if isinstance(value, NUM) and not isinstance(value, bool):
                if not math.isfinite(value):
                    fail(f"{where}: value must be finite, got {value}")
                if value < 0:
                    fail(f"{where}: value must be non-negative, got {value}")
    print(f"check_bench: {path} OK ({schema})")
    return doc, schema


def load_baseline(baseline_dir, schema, path):
    """Find the committed baseline with the same schema tag, or None."""
    for candidate in sorted(glob.glob(os.path.join(baseline_dir, "*.json"))):
        with open(candidate, encoding="utf-8") as f:
            try:
                doc = json.load(f)
            except json.JSONDecodeError as e:
                fail(f"{candidate}: baseline is not valid JSON: {e}")
        if isinstance(doc, dict) and doc.get("schema") == schema:
            return doc, candidate
    print(f"check_bench: {path}: no baseline for {schema} in {baseline_dir} (skipped)")
    return None, None


def scalar_value(doc, dotted):
    """Walk a dotted path of plain keys (no [] fan-out); None if absent."""
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def compare_to_baseline(doc, schema, path, baseline_dir, regress_pct):
    base, base_path = load_baseline(baseline_dir, schema, path)
    if base is None:
        return []
    regressions = []
    for key in THROUGHPUT_KEYS.get(schema, []):
        ref = scalar_value(base, key)
        cur = scalar_value(doc, key)
        if not isinstance(ref, NUM) or isinstance(ref, bool) or ref <= 0:
            continue
        if not isinstance(cur, NUM) or isinstance(cur, bool):
            fail(f"{path}: '{key}' present in baseline {base_path} but not here")
        drop_pct = 100.0 * (ref - cur) / ref
        if drop_pct > regress_pct:
            regressions.append((key, ref, cur, drop_pct))
    if regressions:
        for key, ref, cur, drop_pct in regressions:
            print(
                f"check_bench: WARNING {path}: {key} regressed {drop_pct:.1f}% "
                f"vs {base_path} ({ref:g} -> {cur:g})",
                file=sys.stderr,
            )
    else:
        print(f"check_bench: {path} within {regress_pct:g}% of {base_path}")
    return regressions


def main(argv):
    parser = argparse.ArgumentParser(
        description="Schema-check BENCH_*.json files; optionally compare "
        "throughput metrics against committed baselines."
    )
    parser.add_argument("files", nargs="+", metavar="BENCH_file.json")
    parser.add_argument(
        "--baseline-dir",
        help="directory of committed baseline JSONs (e.g. bench/baselines); "
        "matched to each file by schema tag",
    )
    parser.add_argument(
        "--regress-pct",
        type=float,
        default=20.0,
        help="warn when a throughput metric drops more than this percent "
        "below its baseline (default 20)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on baseline regressions instead of warning",
    )
    args = parser.parse_args(argv[1:])

    any_regressed = False
    for path in args.files:
        doc, schema = check_file(path)
        if args.baseline_dir:
            regressed = compare_to_baseline(
                doc, schema, path, args.baseline_dir, args.regress_pct
            )
            any_regressed = any_regressed or bool(regressed)
    if any_regressed and args.strict:
        fail("baseline regressions found (--strict)")


if __name__ == "__main__":
    main(sys.argv)

#!/usr/bin/env python3
"""bench_gate — performance-regression gate over benchmark result files.

The micro benchmarks (micro_crypto, micro_deflate, micro_queue,
micro_topology, micro_cxl) each emit a BENCH_*.json describing
simulator-implementation throughput, and perfbench's traced
tls_closed_1x1 run writes the simulator's own wall-clock speed to
tls_closed_1x1.seed1.trace.json. This tool compares a fresh set of
those files against the baselines committed under bench/baselines/ and
fails when a gated metric regresses past the tolerance — so an event-
queue, scheduler or kernel slowdown fails CI instead of silently taxing
every fleet-scale sweep.

A perfbench result file holds one run: its "end_to_end" and
"per_layer" metric values are lifted into one row keyed by "workload",
and its "kernel_tier" stands in for the micro benches' "kernel".

Rows are matched by their identity fields (e.g. "name", or
mode/depth/batch for the queue bench); metrics are direction-aware
(higher-is-better throughput vs lower-is-better latency). The default
tolerance is deliberately loose (50%) because shared CI runners are
noisy; the gate exists to catch structural regressions (2x, 10x), not
single-digit jitter.

Usage:
  tools/bench_gate.py --results-dir DIR [--baselines DIR]
                      [--tolerance F] [--allow-missing]
  tools/bench_gate.py --update --results-dir DIR   refresh baselines
  tools/bench_gate.py --self-test                  run the gate's tests
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys
import tempfile

# Per-file gate configuration: which fields identify a row, and which
# metrics are gated with which direction. Files not listed here are
# ignored (artefacts may carry extra JSON).
GATES = {
    "tls_closed_1x1.seed1.trace.json": {
        "keys": ("workload",),
        "metrics": {
            "wall_s": "lower",
            "trace.overhead_ratio": "lower",
        },
    },
    "BENCH_crypto.json": {
        "keys": ("name",),
        "metrics": {
            "bytes_per_sec": "higher",
            "ns_per_op": "lower",
        },
    },
    "BENCH_deflate.json": {
        "keys": ("name",),
        "metrics": {
            "bytes_per_sec": "higher",
            "ns_per_op": "lower",
        },
    },
    "BENCH_queue.json": {
        "keys": ("mode", "depth", "batch"),
        "metrics": {
            "offloads_per_sec": "higher",
            "p99_us": "lower",
        },
    },
    "BENCH_topology.json": {
        "keys": ("name",),
        "metrics": {
            "ops_per_sec": "higher",
            "speedup_vs_1x1": "higher",
        },
    },
    "BENCH_cxl.json": {
        "keys": ("name",),
        "metrics": {
            "ops_per_sec": "higher",
            "speedup_vs_cpu": "higher",
        },
    },
}

DEFAULT_TOLERANCE = 0.5


def row_key(row: dict, keys: tuple) -> tuple:
    return tuple(row.get(k) for k in keys)


def index_rows(doc: dict, keys: tuple) -> dict:
    return {row_key(r, keys): r for r in doc.get("results", [])}


def as_bench_doc(doc: dict) -> dict:
    """A perfbench result file in the BENCH_*.json shape; others as is."""
    if "end_to_end" not in doc:
        return doc
    row = {"workload": doc.get("workload")}
    for section in ("end_to_end", "per_layer"):
        row.update({metric: m["value"]
                    for metric, m in doc.get(section, {}).items()})
    return {"kernel": doc.get("kernel_tier"), "results": [row]}


def compare_file(name: str, current: dict, baseline: dict,
                 tolerance: float) -> list:
    """@return list of human-readable failure strings."""
    gate = GATES[name]
    failures = []
    current = as_bench_doc(current)
    baseline = as_bench_doc(baseline)

    # Kernel-tier artefacts are only comparable within a tier.
    cur_tier = current.get("kernel")
    base_tier = baseline.get("kernel")
    if cur_tier != base_tier:
        return [f"{name}: kernel tier mismatch "
                f"(current {cur_tier!r} vs baseline {base_tier!r}); "
                "re-run the bench with the baseline's tier or --update"]

    cur_rows = index_rows(current, gate["keys"])
    base_rows = index_rows(baseline, gate["keys"])
    for key, base_row in base_rows.items():
        cur_row = cur_rows.get(key)
        label = "/".join(str(k) for k in key)
        if cur_row is None:
            failures.append(f"{name}: row '{label}' missing from results")
            continue
        for metric, direction in gate["metrics"].items():
            if metric not in base_row:
                continue
            base_val = float(base_row[metric])
            if metric not in cur_row:
                failures.append(
                    f"{name}: {label}.{metric} missing from results")
                continue
            cur_val = float(cur_row[metric])
            if base_val <= 0:
                continue  # degenerate baseline: nothing to gate
            if direction == "higher":
                floor = base_val * (1.0 - tolerance)
                ok = cur_val >= floor
                bound = f">= {floor:.4g}"
            else:
                ceil = base_val * (1.0 + tolerance)
                ok = cur_val <= ceil
                bound = f"<= {ceil:.4g}"
            if not ok:
                failures.append(
                    f"{name}: {label}.{metric} = {cur_val:.4g} regressed "
                    f"past baseline {base_val:.4g} (required {bound}, "
                    f"tolerance {tolerance:.0%})")
    return failures


def run_gate(results_dir: pathlib.Path, baselines_dir: pathlib.Path,
             tolerance: float, allow_missing: bool) -> int:
    failures = []
    checked = 0
    for name in sorted(GATES):
        base_path = baselines_dir / name
        cur_path = results_dir / name
        if not base_path.is_file():
            print(f"bench_gate: no baseline for {name}, skipping")
            continue
        if not cur_path.is_file():
            msg = f"{name}: baseline exists but no fresh results in " \
                  f"{results_dir}"
            if allow_missing:
                print(f"bench_gate: {msg} (allowed)")
            else:
                failures.append(msg)
            continue
        current = json.loads(cur_path.read_text())
        baseline = json.loads(base_path.read_text())
        file_failures = compare_file(name, current, baseline, tolerance)
        failures.extend(file_failures)
        checked += 1
        if not file_failures:
            print(f"bench_gate: {name} ok")
    for f in failures:
        print(f"FAIL {f}")
    if failures:
        print(f"bench_gate: {len(failures)} regression(s)", file=sys.stderr)
        return 1
    print(f"bench_gate: {checked} file(s) within tolerance")
    return 0


def update_baselines(results_dir: pathlib.Path,
                     baselines_dir: pathlib.Path) -> int:
    baselines_dir.mkdir(parents=True, exist_ok=True)
    updated = 0
    for name in sorted(GATES):
        cur_path = results_dir / name
        if not cur_path.is_file():
            continue
        json.loads(cur_path.read_text())  # refuse to commit junk
        shutil.copyfile(cur_path, baselines_dir / name)
        print(f"bench_gate: baseline {name} <- {cur_path}")
        updated += 1
    if not updated:
        print("bench_gate: no gated result file found to adopt",
              file=sys.stderr)
        return 1
    return 0


# --------------------------------------------------------------------------
# Self test
# --------------------------------------------------------------------------

def _doc(rows, **top):
    return {**top, "results": rows}


def _topo(name="1x1", ops=20.0, speedup=4.0):
    return {"name": name, "ops_per_sec": ops, "speedup_vs_1x1": speedup}


def _perfbench(wall_s=0.6, overhead=1.0, tier="table", drop=None):
    """A perfbench result file; @p drop names a metric to leave out."""
    e2e = {"wall_s": {"value": wall_s, "unit": "s", "clock": "host"},
           "setup_s": {"value": 0.004, "unit": "s", "clock": "host"}}
    layer = {"trace.overhead_ratio": {"value": overhead, "unit": "ratio",
                                      "clock": "host"}}
    e2e.pop(drop, None)
    layer.pop(drop, None)
    return {"workload": "tls_closed_1x1", "seed": 1, "kernel_tier": tier,
            "correct": True, "end_to_end": e2e, "per_layer": layer}


PERFBENCH = "tls_closed_1x1.seed1.trace.json"

SELF_TESTS = [
    # (name, file, current, baseline, tolerance, expect_failures)
    ("identical",
     "BENCH_topology.json",
     _doc([_topo()]), _doc([_topo()]),
     0.5, 0),
    ("within-tolerance",
     "BENCH_topology.json",
     _doc([_topo(ops=11.0, speedup=2.1)]), _doc([_topo()]),
     0.5, 0),
    ("throughput-regression",
     "BENCH_topology.json",
     _doc([_topo(ops=9.0)]), _doc([_topo()]),
     0.5, 1),
    ("improvement-passes",
     "BENCH_topology.json",
     _doc([_topo(ops=100.0, speedup=9.0)]), _doc([_topo()]),
     0.5, 0),
    ("latency-regression",
     "BENCH_crypto.json",
     _doc([{"name": "gcm4k", "bytes_per_sec": 1e9, "ns_per_op": 400.0}],
          kernel="native"),
     _doc([{"name": "gcm4k", "bytes_per_sec": 1e9, "ns_per_op": 100.0}],
          kernel="native"),
     0.5, 1),
    ("latency-improvement-passes",
     "BENCH_crypto.json",
     _doc([{"name": "gcm4k", "bytes_per_sec": 1e9, "ns_per_op": 50.0}],
          kernel="native"),
     _doc([{"name": "gcm4k", "bytes_per_sec": 1e9, "ns_per_op": 100.0}],
          kernel="native"),
     0.5, 0),
    ("kernel-tier-mismatch",
     "BENCH_crypto.json",
     _doc([{"name": "gcm4k", "bytes_per_sec": 1e9, "ns_per_op": 100.0}],
          kernel="scalar"),
     _doc([{"name": "gcm4k", "bytes_per_sec": 1e9, "ns_per_op": 100.0}],
          kernel="native"),
     0.5, 1),
    ("missing-row",
     "BENCH_topology.json",
     _doc([_topo()]),
     _doc([_topo(), _topo(name="4x2", ops=18.0, speedup=3.0)]),
     0.5, 1),
    ("extra-current-row-ignored",
     "BENCH_topology.json",
     _doc([_topo(), _topo(name="experimental", ops=0.1, speedup=0.1)]),
     _doc([_topo()]),
     0.5, 0),
    ("composite-key",
     "BENCH_queue.json",
     _doc([{"mode": "async", "depth": 8, "batch": 4,
            "offloads_per_sec": 1000.0, "p99_us": 50.0},
           {"mode": "async", "depth": 16, "batch": 4,
            "offloads_per_sec": 100.0, "p99_us": 50.0}]),
     _doc([{"mode": "async", "depth": 8, "batch": 4,
            "offloads_per_sec": 1000.0, "p99_us": 50.0},
           {"mode": "async", "depth": 16, "batch": 4,
            "offloads_per_sec": 1000.0, "p99_us": 50.0}]),
     0.5, 1),  # only the depth-16 row regressed
    ("zero-baseline-skipped",
     "BENCH_topology.json",
     _doc([_topo(ops=1.0, speedup=1.0)]),
     _doc([_topo(ops=0.0, speedup=0.0)]),
     0.5, 0),
    ("tight-tolerance",
     "BENCH_topology.json",
     _doc([_topo(ops=18.0)]), _doc([_topo()]),
     0.05, 1),
    ("perfbench-identical",
     PERFBENCH, _perfbench(), _perfbench(),
     0.5, 0),
    ("perfbench-wall-regression",
     PERFBENCH, _perfbench(wall_s=0.96), _perfbench(),
     0.5, 1),
    ("perfbench-overhead-regression",
     PERFBENCH, _perfbench(overhead=1.6), _perfbench(),
     0.5, 1),
    ("perfbench-kernel-tier-mismatch",
     PERFBENCH, _perfbench(tier="native"), _perfbench(),
     0.5, 1),
    ("perfbench-missing-metric",
     PERFBENCH, _perfbench(drop="trace.overhead_ratio"), _perfbench(),
     0.5, 1),
]


def self_test() -> int:
    failures = 0
    for name, fname, current, baseline, tol, expected in SELF_TESTS:
        got = len(compare_file(fname, current, baseline, tol))
        if got != expected:
            failures += 1
            print(f"FAIL {name}: expected {expected} failure(s), got {got}")
            for f in compare_file(fname, current, baseline, tol):
                print(f"    {f}")
        else:
            print(f"ok   {name}")

    # End-to-end: gate a results dir against a baselines dir on disk,
    # including the missing-results policy.
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        (root / "base").mkdir()
        (root / "res").mkdir()
        doc = _doc([_topo()])
        (root / "base" / "BENCH_topology.json").write_text(json.dumps(doc))
        (root / "res" / "BENCH_topology.json").write_text(json.dumps(doc))
        if run_gate(root / "res", root / "base", 0.5, False) != 0:
            failures += 1
            print("FAIL end-to-end-pass: expected exit 0")
        else:
            print("ok   end-to-end-pass")
        (root / "res" / "BENCH_topology.json").unlink()
        if run_gate(root / "res", root / "base", 0.5, False) != 1:
            failures += 1
            print("FAIL end-to-end-missing: expected exit 1")
        else:
            print("ok   end-to-end-missing")
        if run_gate(root / "res", root / "base", 0.5, True) != 0:
            failures += 1
            print("FAIL end-to-end-allow-missing: expected exit 0")
        else:
            print("ok   end-to-end-allow-missing")

    if failures:
        print(f"bench_gate --self-test: {failures} failure(s)",
              file=sys.stderr)
        return 1
    print(f"bench_gate --self-test: all {len(SELF_TESTS) + 3} cases pass")
    return 0


def main() -> int:
    repo = pathlib.Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--results-dir", type=pathlib.Path,
                        default=pathlib.Path.cwd(),
                        help="directory holding fresh result files "
                             "(default: cwd)")
    parser.add_argument("--baselines", type=pathlib.Path,
                        default=repo / "bench" / "baselines",
                        help="committed baseline directory")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed fractional regression "
                             f"(default {DEFAULT_TOLERANCE})")
    parser.add_argument("--allow-missing", action="store_true",
                        help="baselines without fresh results warn "
                             "instead of failing")
    parser.add_argument("--update", action="store_true",
                        help="adopt the fresh results as new baselines")
    parser.add_argument("--self-test", action="store_true",
                        help="run the gate's own test corpus")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.update:
        return update_baselines(args.results_dir, args.baselines)
    return run_gate(args.results_dir, args.baselines, args.tolerance,
                    args.allow_missing)


if __name__ == "__main__":
    sys.exit(main())

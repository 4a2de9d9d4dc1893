#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload tls_closed_1x1 --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ (and the simulator library from src/) with CMake into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, runs the
perfbench binary, and forwards its report. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics BENCHMARK.json names with --trace 0,
its per-layer metrics with --trace 1. Per-run result files land in
<build dir>/results. Exits non-zero, without a result line, when the
build fails or any output fails verification.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tls_closed_1x1", "mixed_open_4x2_cxl", "server_sweep")


def build(build_dir: Path) -> Path:
    """Configure and build the benchmark; return the binary."""
    subprocess.run(
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def select(report: dict, spec: dict, section: str, key: str) -> dict:
    """The metrics BENCHMARK.json lists under `section`, from `report`."""
    out = {}
    for metric in spec[section]:
        got = report[key].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            raise SystemExit(f"perfbench: metric {metric['name']} "
                             f"({metric['unit']}) missing from the report")
        out[metric["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    results = target / "results"
    results.mkdir(parents=True, exist_ok=True)
    proc = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out", str(results)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0:
        print(f"perfbench: run failed (exit {proc.returncode})",
              file=sys.stderr)
        return 1

    report = json.loads(lines[-1])
    if args.trace:
        metrics = select(report, spec, "per_layer", "per_layer")
    else:
        metrics = select(report, spec, "end_to_end", "end_to_end")
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

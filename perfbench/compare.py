#!/usr/bin/env python3
"""Compare two perfbench result files of the same workload.

Usage:

    python3 perfbench/compare.py BASE.json NEW.json

Takes the files run.py leaves in <build dir>/results. Prints each
end-to-end metric of both runs with the new/base ratio. Host metrics
are compared only when both runs used the same kernel tier: the tier
changes host time several-fold while leaving simulated results
unchanged, so a cross-tier host comparison exits with status 2.
Simulated metrics of the same workload and seed must match exactly.
"""

import json
import sys


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.load(open(path)) for path in sys.argv[1:])
    if base["workload"] != new["workload"]:
        print("compare: different workloads", file=sys.stderr)
        return 2
    if base["kernel_tier"] != new["kernel_tier"]:
        print(f"compare: refusing to compare host metrics across kernel "
              f"tiers ({base['kernel_tier']} vs {new['kernel_tier']})",
              file=sys.stderr)
        return 2
    same_seed = base["seed"] == new["seed"]
    status = 0
    for name, b in base["end_to_end"].items():
        n = new["end_to_end"].get(name)
        if n is None:
            continue
        ratio = n["value"] / b["value"] if b["value"] else float("nan")
        note = ""
        if b["clock"] == "simulated" and same_seed and n["value"] != b["value"]:
            note = "  SIMULATED RESULT CHANGED"
            status = 1
        print(f"{name:16s} {b['value']:14.6g} {n['value']:14.6g} "
              f"x{ratio:.4f} {b['unit']} ({b['clock']}){note}")
    return status


if __name__ == "__main__":
    sys.exit(main())

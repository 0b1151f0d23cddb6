"""Record golden.json: the simulated results of every workload at both
golden seeds, at full size.

Usage (from the repository root): python3 perfbench/record_golden.py

Re-record only in a change that says which report value changed and why;
a change that claims a speed-up must leave golden.json as it is.
"""

import json
import os
import sys

import run
import workloads


def main() -> int:
    golden = {}
    for name in workloads.WORKLOADS:
        golden[name] = {}
        for seed in workloads.GOLDEN_SEEDS:
            summary = run.measure(name, seed, 0.0, False, golden={})
            if summary["failed"]:
                print(f"{name} seed {seed}: {summary['problems']}",
                      file=sys.stderr)
                return 1
            golden[name][str(seed)] = summary["samples"][0]["results"]
            print(f"{name} seed {seed}: wall_s "
                  f"{[round(s['wall_s'], 3) for s in summary['samples']]}")
    with open(os.path.join(run.HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one workload once per seed and report each metric's spread.

Usage:
    python3 perfbench/steadiness.py --workload kv-serve --seeds 1-10

Each run lasts BENCHMARK.json's run_seconds with --trace 0. For every
end-to-end metric it prints the median, the first and third quartiles (as
Python's statistics.quantiles(values, n=4) gives them) and the spread,
(q3 - q1) / median, next to the bound BENCHMARK.json sets. Run from the
root of a checkout; it calls perfbench/run.py once per seed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, str(root / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=root, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"seed {seed} failed:\n{done.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: correct=false, {result['failed']} failed",
                  file=sys.stderr)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} done", file=sys.stderr)

    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:40} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.2%} {bounds[name]:6.2f}")


if __name__ == "__main__":
    main()

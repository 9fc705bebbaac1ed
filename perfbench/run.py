#!/usr/bin/env python3
"""Build the benchmark driver from this checkout's sources and run one workload.

Usage:
    python3 perfbench/run.py --workload paper-suite|kv-serve|crash-recovery \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The driver is configured and built under
.bench_build/perfbench on first use (and brought up to date on every run);
the build log goes to .bench_build/perfbench-build.log. The last line of
standard output is the driver's JSON result. See perfbench/BENCHMARK.md.
"""

import argparse
import fcntl
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper-suite", "kv-serve", "crash-recovery")

# A run may take at most 180 s (BENCHMARK.md, "Run limits"). --seconds is
# capped at 60, the largest run_seconds BENCHMARK.json may set, which
# leaves the driver over 100 s for its set-ups and the traced run's
# cross-check.
MAX_SECONDS = 60
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir, log_path):
    """Configure (once) and build the driver; returns its path."""
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench_driver", "-j", jobs])
    # Serialize builds of one checkout; the lock file lives in the build tree.
    with open(build_dir / ".build.lock", "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                fail(f"build step failed ({' '.join(cmd)}); see {log_path}")
    return build_dir / "perfbench_driver"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seed must be >= 0 and --seconds in [1, {MAX_SECONDS}]")

    root = Path(__file__).resolve().parent.parent
    for needed in ("src/CMakeLists.txt", "bench/paper_refs.h"):
        if not (root / needed).is_file():
            fail(f"{needed} is missing: the benchmark builds the simulator "
                 "from this checkout's sources")

    out = root / ".bench_build"
    driver = build(root, out / "perfbench", out / "perfbench-build.log")
    cmd = [str(driver), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace), "--out-dir", str(out / "perfbench-out")]
    sys.stdout.flush()
    # Its own process group, so a timeout also stops the kill -9 trial
    # processes the crash-recovery workload forks.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()

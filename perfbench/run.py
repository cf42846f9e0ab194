#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench (Release) from the
sources into $CARGO_TARGET_DIR (default .bench_build), runs the arithmetic
self-tests, then runs one measurement and prints its JSON result as the last
line of standard output. Build logs and the human-readable summary go to
standard error. Exits non-zero without a result when the sources are missing,
the build or self-tests fail, or the measurement fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("tiled-geolife", "swarm-spill", "sum-roads-cluster", "arrivals")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(build_dir, env):
    """Configures once, then builds; returns False on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    steps.append([os.path.join(build_dir, "perfbench_selftest")])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, cwd=ROOT, env=env,
                          stdout=sys.stderr).returncode != 0:
            log("perfbench: step failed:", " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources at", ROOT)
        return 2
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    # The library reads MPN_* variables (memory budget, lane ISA, crash and
    # fault plans); the benchmark fixes all of them by leaving them unset.
    # Temporary files (compiler, spill) stay inside the build directory.
    env = {k: v for k, v in os.environ.items() if not k.startswith("MPN_")}
    env["TMPDIR"] = os.path.join(build_dir, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not build(build_dir, env):
        return 1
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(build_dir, "perfbench-out")]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: measurement failed with code", proc.returncode)
        return 1
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        log("perfbench: malformed result line")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

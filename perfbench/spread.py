#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over seeds.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]

Runs perfbench/run.py once per (workload, seed), from the repository root,
with BENCHMARK.json's run_seconds, and prints for every metric its median
over the seeds and its spread: the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median, next to the
metric's bound. Spreads are what the bounds in BENCHMARK.json are set from.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = ["python3", "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds",
                   str(bench["run_seconds"]), "--trace", str(args.trace)]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                sys.exit(f"{workload} seed {seed}: incorrect result")
            runs.append(result["metrics"])
        print(f"\n{workload} ({len(runs)} seeds)")
        print(f"  {'metric':36} {'median':>14} {'spread':>8} {'bound':>6}"
              "  values")
        for name, first in runs[0].items():
            values = [r[name]["value"] for r in runs]
            med, sp = spread(values)
            bound = bounds.get(name)
            flag = "" if bound is None or sp < bound / 3 else " wide"
            print(f"  {name:36} {med:14.6g} {sp:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag:5}  "
                  + " ".join(f"{v:.4g}" for v in values))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...) with
BENCHMARK.json's run_seconds and prints, per end-to-end metric, the median
of the runs and the distance between the first and third quartile as a
share of that median -- the figure each metric's bound is set against.
Exits non-zero when a run fails or a spread (setup_s excepted) exceeds a
third of its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    values = {m["name"]: [] for m in benchmark["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = ["python3", os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, universal_newlines=True)
        if proc.returncode != 0:
            print("seed %d: run failed with exit code %d" % (seed, proc.returncode))
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print("seed %d: %s" % (seed, "  ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items())))
        sys.stdout.flush()

    worst = 0
    for metric in benchmark["end_to_end"]:
        series = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / med
        ok = metric["name"] == "setup_s" or spread <= metric["bound"] / 3
        worst = worst or not ok
        print("%-14s median %-12.6g spread %6.2f%%  bound %4.0f%%  %s" % (
            metric["name"], med, 100 * spread, 100 * metric["bound"],
            "ok" if ok else "TOO WIDE (over a third of the bound)"))
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main())

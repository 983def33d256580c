#!/usr/bin/env python3
"""Steadiness report: runs one workload k times with distinct seeds and
prints, per end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median against the metric's bound in BENCHMARK.json (a spread
above a third of the bound is flagged). Adds one traced run for the
tracing overhead and the unattributed share.

    python3 perfbench/steadiness.py --workload service [--runs 10]
        [--first-seed 1] [--seconds S]

Run from the repository root, like perfbench/run.py.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import analysis  # noqa: E402


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"run.py failed on seed {seed}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    values = {m["name"]: [] for m in bench["end_to_end"]}
    failed = 0
    for i in range(args.runs):
        result = run(args.workload, args.first_seed + i, args.seconds, 0)
        failed += result["failed"]
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {args.first_seed + i}: " + "  ".join(
            f"{n}={v[-1]:.6g}" for n, v in values.items()), flush=True)

    print(f"\n{args.workload}: {args.runs} runs, {failed} failed checks")
    print(f"{'metric':<18}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}{'bound':>7}")
    for metric in bench["end_to_end"]:
        q1, median, q3, spread = analysis.spread(values[metric["name"]])
        bound = metric["bound"]
        flag = "" if spread < bound / 3 else (
            "  above bound/3" if spread <= bound else "  ABOVE BOUND")
        print(f"{metric['name']:<18}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{spread:>9.4f}{bound:>7.2f}{flag}")

    traced = run(args.workload, args.first_seed, args.seconds, 1)
    m = traced["metrics"]
    print(f"\ntraced run (seed {args.first_seed}): tracing overhead "
          f"{m['bench.tracing_overhead_share']['value']:+.4f}, "
          f"unattributed {m['bench.unattributed_share']['value']:.4f} "
          f"of traced span time, {traced['failed']} failed checks")


if __name__ == "__main__":
    main()

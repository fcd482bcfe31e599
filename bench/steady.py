#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics over runs with different seeds.

    python3 bench/steady.py --workload integrals --runs 10 [--first-seed 0]

Runs ``bench/run.py --trace 0`` k times with seeds first-seed, first-seed+1,
... and prints, for each end-to-end metric of BENCHMARK.json, the median, the
quartiles, the spread (q3 - q1) / median and whether it fits within a third of
the metric's bound and within the bound.  Exits 1 if a run fails, is
incorrect, changes its share of failed operations, or a spread exceeds its
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds):
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"seed {seed}: exit code {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, args.seconds)
        values = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']} {values}", flush=True)
        results.append(result)

    ok = all(r["correct"] for r in results)
    shares = {r["failed"] / r["attempted"] for r in results}
    if len(shares) != 1:
        print(f"share of failed operations differs between runs: {sorted(shares)}")
        ok = False
    print(f"{'metric':14s} {'unit':5s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>6s} verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        if spread <= bound / 3:
            verdict = "steady (within a third of the bound)"
        elif spread <= bound:
            verdict = "within the bound, not a third of it"
        else:
            verdict = "TOO WIDE"
            ok = False
        print(f"{name:14s} {metric['unit']:5s} {median:11.5g} {q1:11.5g} {q3:11.5g} "
              f"{spread:7.4f} {bound:6.3f} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

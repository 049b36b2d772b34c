#!/usr/bin/env python3
"""Runs each workload repeatedly and prints the spread of every metric.

Usage, from the root of a checkout:
  python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                  [--workload NAME ...] [--seconds S]

Each run uses its own seed (first-seed, first-seed + 1, ...) and runs
untraced, one at a time. For every end-to-end metric the script prints the
median and the quartiles of its values (statistics.quantiles, n=4) and the
interquartile range as a share of the median, next to the metric's bound
in BENCHMARK.json; a spread above a third of the bound is flagged. The
workload-specific figures the program prints on standard error are
summarised the same way, without a bound. It exits non-zero if a run fails,
reports incorrect output, or reports a failed operation.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    extra = {}
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench: extra "):
            extra = json.loads(line[len("perfbench: extra "):])
    return result, extra


def summarize(name, unit, values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    flag = ""
    if bound is not None:
        flag = f"  bound {bound:.2f}" + ("  WIDE" if spread > bound / 3 else "")
    print(f"  {name:24s} {med:14.6g} {unit:12s} q1 {q1:<12.6g} q3 {q3:<12.6g}"
          f" iqr/median {spread:7.4f}{flag}")
    return spread


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    bad = False
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        results, extras = [], []
        for i in range(args.runs):
            r, e = run_once(workload, args.first_seed + i, args.seconds)
            results.append(r)
            extras.append(e)
            if not r["correct"] or r["failed"] != 0:
                bad = True
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, correct "
              f"{all(r['correct'] for r in results)}, failed shares {shares}")
        for name in results[0]["metrics"]:
            summarize(name, results[0]["metrics"][name]["unit"],
                      [r["metrics"][name]["value"] for r in results],
                      bounds.get(name))
        for name in extras[0]:
            values = [e[name]["value"] for e in extras if name in e]
            if len(values) == len(extras):
                summarize(name, extras[0][name]["unit"], values, None)
        sys.stdout.flush()
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

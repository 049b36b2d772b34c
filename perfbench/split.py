#!/usr/bin/env python3
"""Prints each workload's per-layer split and the tracing overhead.

Usage, from the root of a checkout:
  python3 perfbench/split.py [--seed 1] [--seconds 30] [--workload NAME ...]

For each workload it makes one untraced and one traced run with the same
seed. It prints every per-layer metric; each layer time in the measured
phase also as a share of the traced rounds' wall-clock (trace.measured_s).
Topology times are set-up and are shown without a share; directory.s
includes directory.add_s. The tracing
overhead is the traced run's median round time minus the untraced run's,
both as measured (the untraced run_s metric is scaled by the calibration,
README.md).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    extra = {}
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench: extra "):
            extra = json.loads(line[len("perfbench: extra "):])
    return result, extra


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        plain, plain_extra = run(workload, args.seed, args.seconds, 0)
        traced, traced_extra = run(workload, args.seed, args.seconds, 1)
        m = {k: v["value"] for k, v in traced["metrics"].items()}
        measured = m["trace.measured_s"]
        print(f"{workload} (seed {args.seed}, {args.seconds} s): "
              f"correct {plain['correct'] and traced['correct']}")
        for name, value in m.items():
            unit = traced["metrics"][name]["unit"]
            share = ""
            if (unit == "s" and not name.startswith("topology.")
                    and name != "trace.measured_s"):
                share = f"{100 * value / measured:6.1f}%"
            print(f"  {name:30s} {value:16.6g} {unit:6s} {share}")
        untraced_s = plain_extra["run_s_measured"]["value"]
        traced_s = traced_extra["run_s"]["value"]
        print(f"  run_s untraced {untraced_s:.6g} s, traced {traced_s:.6g} s,"
              f" overhead {traced_s - untraced_s:+.6g} s"
              f" ({100 * (traced_s / untraced_s - 1):+.1f}%)")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

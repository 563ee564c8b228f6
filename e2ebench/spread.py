#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each metric's median and
spread: the distance between its first and third quartile over the runs,
as a share of the median (statistics.quantiles(values, n=4)).

Usage, from the repository root:

    python3 e2ebench/spread.py <workload> [--seeds 1-10] [--trace 0|1]

It runs the command BENCHMARK.json names with its run_seconds, so the
numbers are the ones a bound in BENCHMARK.json is checked against.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workload")
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    first, last = (int(s) for s in args.seeds.split("-"))
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    units = {}
    for seed in range(first, last + 1):
        cmd = bench["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]),
            "--trace", args.trace,
        ]
        start = time.time()
        run = subprocess.run(cmd, capture_output=True, text=True)
        if run.returncode != 0:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        print(
            f"seed {seed}: {time.time() - start:.1f} s, correct={result['correct']}, "
            f"attempted={result['attempted']}, failed={result['failed']}",
            flush=True,
        )
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    for name, vs in values.items():
        med = statistics.median(vs)
        spread = ""
        if len(vs) >= 2 and med:
            q = statistics.quantiles(vs, n=4)
            spread = f"spread {(q[2] - q[0]) / med:.3f}"
            if bounds.get(name) is not None:
                spread += f" (bound {bounds[name]})"
        print(f"{name:24} median {med:.6g} {units[name]:6} {spread}")
        print("    " + " ".join(f"{v:.6g}" for v in vs))


if __name__ == "__main__":
    main()

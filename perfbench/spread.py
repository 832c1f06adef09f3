#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints, for every metric, the
median and the interquartile range as a share of the median -- the spread
the bounds in BENCHMARK.json are compared against.

    python3 perfbench/spread.py --workload batch_steady --seeds 1-10 \
        [--seconds 20] [--trace 0]

Run it from the root of the repository; it builds the benchmark first.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", args.trace,
        ]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
        line = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in line["metrics"].items()), flush=True)
        for k, v in line["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for k, xs in values.items():
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        b = bounds.get(k)
        flag = "" if b is None else f"  bound {b}  {'ok' if spread < b / 3 else 'WIDE'}"
        print(f"{k:34s} median {med:12.5g}  spread {spread:7.2%}{flag}")


if __name__ == "__main__":
    main()

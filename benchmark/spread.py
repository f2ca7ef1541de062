#!/usr/bin/env python3
"""Steadiness check: runs every workload on several seeds and prints, per
end-to-end metric, the median and the inter-quartile spread as a share of
it (statistics.quantiles, n=4) beside the bound in BENCHMARK.json.

    python3 benchmark/spread.py [--binary PATH] [--seeds N] [--seconds S]
                                [--draw K] [--workload NAME]...

Run from the repository root. Without --binary the benchmark is built and
run through the command in BENCHMARK.json. The seeds are drawn at random
from the whole 64-bit range (--draw K repeats a draw): the seeds 1..10 once
hid a workload that misbehaved on one seed in four. Exit code 1 when a
spread (setup_s excepted) exceeds a third of its bound.
"""
import argparse
import json
import random
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--draw", type=int)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    command = [args.binary] if args.binary else spec["command"]
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    draw = random.Random(args.draw)
    seeds = [draw.getrandbits(64) for _ in range(args.seeds)]
    print("seeds", *seeds, flush=True)
    loose = False
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in seeds:
            run = subprocess.run(
                command
                + ["--workload", workload, "--seed", str(seed)]
                + ["--seconds", str(seconds), "--trace", "0"],
                capture_output=True,
                text=True,
            )
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if run.returncode != 0 or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: exit {run.returncode}, {result}")
                sys.exit(2)
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            median = statistics.median(v)
            spread = (q3 - q1) / median
            distinct = len(set(v))
            flag = ""
            if m["name"] != "setup_s" and spread > m["bound"] / 3:
                flag = "  <-- above a third of the bound"
                loose = True
            print(
                f"{workload:16} {m['name']:20} median {median:14.6f} {m['unit']:6}"
                f" spread {spread * 100:6.2f}%  bound {m['bound'] * 100:4.1f}%"
                f"  distinct {distinct}/{len(v)}{flag}",
                flush=True,
            )
    sys.exit(1 if loose else 0)


if __name__ == "__main__":
    main()

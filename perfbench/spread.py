#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs the built benchmark `--runs` times per workload, one seed per run,
and prints per workload and metric: the median, the first and third
quartiles (Python's statistics.quantiles, n=4), the interquartile range
as a share of the median, and the run count. Two invocations of this
script on one commit are an A/A comparison.

    python3 perfbench/spread.py --bin <path to perfbench> --runs 10 \
        --seconds 20 --first-seed 1 [--workload dense-par ...]
"""

import argparse
import json
import statistics
import subprocess
import sys

WORKLOADS = ["dense-par", "chain-faults-par", "paper-serial"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    for w in args.workload or WORKLOADS:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(
                [args.bin, "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, check=True,
            ).stdout.strip().splitlines()
            result = json.loads(out[-1])
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: incorrect result {result}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"# {w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            print(f"{w:17s} {name:12s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  iqr/median {(q3 - q1) / med:7.4f}  runs {len(vs)}",
                  flush=True)


if __name__ == "__main__":
    main()

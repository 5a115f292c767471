#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric.

    python3 bench/repeat.py --workloads lattice_long,exact_cli --seeds 1-10 [--seconds 25] [--out FILE]

Runs one after another, from the root of a checkout. For every workload and
end-to-end metric it reports the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the distance
between the quartiles as a share of the median. It also reports the failed
share of operations of each run and whether every run was correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seeds_arg, required=True)
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--out", default=None, help="also write the summary as JSON")
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads.split(","):
        values, shares, correct, env = {}, [], True, None
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", "0"],
                capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            env = json.loads(lines[-2].removeprefix("env: "))
            result = json.loads(lines[-1])
            correct = correct and result["correct"]
            shares.append(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
        rows = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            mid = statistics.median(vals)
            rows[name] = {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid if mid else 0.0}
        summary[workload] = {"seeds": args.seeds, "correct": correct, "failed_shares": sorted(set(shares)),
                             "env": env, "metrics": rows}
        for name, row in rows.items():
            print(f"{workload:17s} {name:25s} median {row['median']:12.4f}  spread {row['spread']:.4f}")
        print(f"{workload:17s} correct={correct} failed shares {sorted(set(shares))}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds 10]

Runs perfbench/run.py once per seed and prints, per metric, the median and
the inter-quartile distance as a share of the median next to the metric's
bound from BENCHMARK.json (the steadiness target is a third of the bound).
Repeat it on the parent commit and the change to compare the two medians.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            check=True)
        result = json.loads(out.stdout.decode().strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit("seed %d: %d of %d failed"
                     % (seed, result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, m["value"]) for k, m in result["metrics"].items())),
            flush=True)
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        s = stats.spread(v) if len(v) >= 2 else float("nan")
        print("%-14s median %-12.6g spread %.4f  bound %.2f  %s"
              % (m["name"], stats.median(v), s, m["bound"],
                 "steady" if s <= m["bound"] / 3 else "WIDE"))


if __name__ == "__main__":
    main()

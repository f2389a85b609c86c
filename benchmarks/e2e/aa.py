"""A/A check: run the whole benchmark twice on the same code and compare.

    python3 benchmarks/e2e/aa.py            # one run per side and workload
    python3 benchmarks/e2e/aa.py --runs 10  # ten seeds per side: the driver's check

Reads the command, workloads, run length and bounds from ``BENCHMARK.json``.
Sides alternate which goes first and the workload order reverses every round,
so drift in the host's load lands on both.  For every workload and end-to-end
metric it prints both sides' medians, how much worse side B is than side A as
a share of A, each side's spread over its seeds (quartile distance over
median), and the bound.  Exit code 1 if any gap, in either direction (the
sides are the same code), exceeds **half** its bound, a spread other than
``setup_s``'s exceeds its bound, or any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def run_once(spec: dict, workload: str, seed: int) -> dict:
    """One benchmark process; returns the JSON object of its last line."""
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median (0 for one value)."""
    if len(values) < 2:
        return 0.0
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per side and workload, each with another seed")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [workload["name"] for workload in spec["workloads"]]

    # values[side][workload][metric] -> one value per seed
    values: List[Dict[str, Dict[str, List[float]]]] = [
        {name: {} for name in names} for _side in "AB"
    ]
    failed_ops = 0
    for round_index in range(args.runs):
        seed = 1 + round_index
        order = names if round_index % 2 == 0 else names[::-1]
        sides = (0, 1) if round_index % 2 == 0 else (1, 0)
        for name in order:
            for side in sides:
                outcome = run_once(spec, name, seed)
                failed_ops += outcome["failed"] + (0 if outcome["correct"] else 1)
                for metric, cell in outcome["metrics"].items():
                    values[side][name].setdefault(metric, []).append(cell["value"])
                print(f"round {round_index + 1} side {'AB'[side]} {name} seed {seed}: "
                      f"{outcome['attempted']} ops, {outcome['failed']} failed; "
                      + " ".join(f"{m}={c['value']:.5g}" for m, c in outcome["metrics"].items()),
                      flush=True)

    verdict = 0
    print(f"\n{'workload':12s} {'metric':26s} {'median A':>12s} {'median B':>12s} "
          f"{'B worse by':>10s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}")
    for name in names:
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a, b = values[0][name][key], values[1][name][key]
            median_a, median_b = statistics.median(a), statistics.median(b)
            worse = (median_b - median_a) / median_a
            if metric["better"] == "higher":
                worse = -worse
            widest = max(spread(a), spread(b))
            flags = ""
            if abs(worse) > bound / 2.0:
                flags += " GAP>bound/2"
                verdict = 1
            if key != "setup_s" and widest > bound:
                flags += " SPREAD>bound"
                verdict = 1
            elif widest > bound / 3.0:
                flags += " spread>bound/3"
            print(f"{name:12s} {key:26s} {median_a:12.6g} {median_b:12.6g} {worse:+10.2%} "
                  f"{spread(a):9.2%} {spread(b):9.2%} {bound:6.2f}{flags}")
    if failed_ops:
        print(f"{failed_ops} failed operations")
        verdict = 1
    return verdict


if __name__ == "__main__":
    sys.exit(main())

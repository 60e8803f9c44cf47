"""Measure the run-to-run spread of every end-to-end metric and record a
baseline.

    python3 perfbench/prove.py [--runs 10] [--first-seed 1]
                               [--workloads ...] [--out FILE]
                               [--compare FILE]

Runs each workload --runs times untraced, each with its own seed, and
reports per metric the quartiles of the values as
`statistics.quantiles(values, n=4)` gives them and their spread, the
distance between the first and third quartile as a share of the median.
A spread at or above a third of the metric's bound is flagged.  --out
writes the figures, with the machine they were taken on, as JSON;
--compare checks each median against an earlier such file and flags a
metric that got worse by more than its bound.
"""

import argparse
import json
import os
import platform
import statistics
import sys

from report import invoke
from run import SPEC


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "cpu_model": model}


def worse(metric, old, new):
    """Relative change in the bad direction (positive = worse)."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()
    metrics = {m["name"]: m for m in SPEC["end_to_end"]}
    earlier = None
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            earlier = json.load(fh)["workloads"]
    result = {"machine": machine(), "run_seconds": SPEC["run_seconds"],
              "runs": args.runs, "workloads": {}}
    problems = 0
    for workload in args.workloads:
        values = {name: [] for name in metrics}
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        failed = 0
        for seed in seeds:
            details = invoke(workload, seed, SPEC["run_seconds"], False)
            failed += details["failed"]
            for name in metrics:
                values[name].append(details["end_to_end"][name]["value"])
        table = {}
        print(f"== {workload}  seeds {seeds[0]}..{seeds[-1]}  failed {failed}")
        for name, metric in metrics.items():
            q1, median, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / median
            table[name] = {"unit": metric["unit"], "q1": q1,
                           "median": median, "q3": q3, "spread": spread,
                           "values": values[name]}
            flag = "" if spread < metric["bound"] / 3 else "  SPREAD"
            if earlier:
                change = worse(metric,
                               earlier[workload][name]["median"], median)
                flag += f"  vs earlier {change:+.3f}"
                if change > metric["bound"]:
                    flag += "  WORSE"
            problems += "SPREAD" in flag or "WORSE" in flag
            print(f"  {name:<14} median {median:>12.6g} {metric['unit']:<5} "
                  f"q1 {q1:>12.6g} q3 {q3:>12.6g} spread {spread:.4f} "
                  f"(bound {metric['bound']}){flag}")
        problems += failed > 0
        result["workloads"][workload] = table
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
            fh.write("\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Print every metric of every workload, with its unit, and the tracing
overhead.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workloads ...]

Runs each workload once untraced and once traced (each in its own process,
through run.py) and prints the end-to-end metrics of both, their
difference (traced minus untraced: the tracing overhead), the failure
rate, and the per-layer metrics of the traced run.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

from run import ROOT, SPEC, WORK_DIR


def invoke(workload, seed, seconds, trace):
    """Run one benchmark process; returns run.py's --details document."""
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.NamedTemporaryFile(dir=WORK_DIR, suffix=".json") as tmp:
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace)),
             "--details", tmp.name],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            raise RuntimeError(f"{workload} seed {seed} trace {trace} "
                               f"exited {done.returncode}:\n{done.stderr}")
        with open(tmp.name, encoding="ascii") as fh:
            return json.load(fh)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args()
    for workload in args.workloads:
        plain = invoke(workload, args.seed, args.seconds, False)
        traced = invoke(workload, args.seed, args.seconds, True)
        print(f"== {workload}  seed {args.seed}  operations "
              f"{plain['attempted']}  failed {plain['failed']}")
        print(f"  {'metric':<46} {'untraced':>12} {'traced':>12} "
              f"{'overhead':>12}  unit")
        for name, m in plain["end_to_end"].items():
            t = traced["end_to_end"][name]["value"]
            print(f"  {name:<46} {m['value']:>12.6g} {t:>12.6g} "
                  f"{t - m['value']:>+12.4g}  {m['unit']}")
        print(f"  {'fail_rate':<46} {plain['fail_rate']:>12.6g} "
              f"{traced['fail_rate']:>12.6g} {'':>12}  ratio")
        print(f"  op_tail_ms is p{plain['op_tail_percentile']:.1f} of "
              f"{plain['op_inputs']} inputs untraced, "
              f"p{traced['op_tail_percentile']:.1f} of "
              f"{traced['op_inputs']} traced")
        for name, m in traced["per_layer"].items():
            print(f"  {name:<46} {'':>12} {m['value']:>12.6g} {'':>12}  "
                  f"{m['unit']}")


if __name__ == "__main__":
    main()

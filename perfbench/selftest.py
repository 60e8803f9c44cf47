"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seed N] [--seconds S]

1. Two traced runs with the same seed give identical `*.calls` counts on
   every workload.
2. Another seed gives other inputs with the same operation mix: the same
   operation kinds, cycle by cycle, and not the same inputs.  The
   `chambers` inputs are fixed by definition (the seed orders them only),
   so there the inputs must be the same.
"""

import argparse
import os
import sys
from collections import Counter

import run
import workloads as wl
from report import invoke


def op_plan(workload, seed):
    ws = run.fresh_import(with_cli=workload == "cli")
    runner = wl.CliRunner(sys.modules["weightscape.cli"], run.ROOT) \
        if workload == "cli" else None
    cycles = run.build(workload, ws, seed, runner,
                       os.path.join(run.WORK_DIR, "chamber-cache"))
    return ([Counter(op.kind for op in cycle) for cycle in cycles],
            [op.key for cycle in cycles for op in cycle])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    sys.path.insert(0, run.SRC)
    failures = []
    for workload in [w["name"] for w in run.SPEC["workloads"]]:
        mix_a, keys_a = op_plan(workload, args.seed)
        mix_b, keys_b = op_plan(workload, args.seed + 1)
        if mix_a != mix_b:
            failures.append(f"{workload}: operation mix depends on the seed")
        same_inputs = Counter(keys_a) == Counter(keys_b)
        if same_inputs != (workload == "chambers"):
            failures.append(f"{workload}: inputs changed: {not same_inputs}")
        calls = []
        for _ in range(2):
            layers = invoke(workload, args.seed, args.seconds, True)
            calls.append({k: v["value"] for k, v in layers["per_layer"].items()
                          if k.endswith(".calls")})
        if calls[0] != calls[1]:
            diff = {k: (calls[0][k], calls[1][k]) for k in calls[0]
                    if calls[0][k] != calls[1][k]}
            failures.append(f"{workload}: call counts differ {diff}")
        print(f"{workload}: mix {dict(sum(mix_a, Counter()))}, "
              f"{sum(calls[0].values())} traced calls", flush=True)
    for failure in failures:
        print("FAIL", failure)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""weightscape benchmark: one workload per invocation, run from the root of
a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: chambers, strata, queries, cli (see BENCHMARK.json for why each
exists).  Load comes from one closed-loop client: one operation in flight,
no threads, and for `cli` one child process at a time.

Set-up (package import, seeded input generation, warming the memoized
wall tables) is repeated from a fresh import, before and after the timed
loop, and its median reported as `setup_s`.  The timed loop then runs whole
operation cycles for --seconds; every output is checked against the
independent oracles between operations, outside the timed region.

Every time reported is scaled to the reference speed: a fixed pure-Python
reference task runs between operations, after every REF_EVERY_S of
measured time, and each time is multiplied by REF_NOMINAL_S over the
reference task's mean time in the run.  The host's speed swings by up to
1.8x, for seconds to minutes at a time, and moves the program and the
reference task alike.  The last line of stdout is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.  A
traced run does a fixed number of cycles instead, so its call counts
repeat exactly for a fixed seed.  A human-readable report goes to stderr.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from time import perf_counter

import tracing
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# name: (set-up repetitions, nominal seconds per cycle).  A short set-up is
# timed often enough for a steady median, and a fixed count keeps the peak
# memory comparable.  A traced run does round(--seconds / nominal) cycles,
# at least one, so that its call counts repeat exactly for a fixed seed.
WORKLOADS = {"chambers": (15, 0.1), "strata": (15, 1.1), "queries": (5, 0.2),
             "cli": (15, 1.9)}
ITEMS = {"chambers": "chambers_per_s", "strata": "strata_per_s"}
# The reference task runs once per REF_EVERY_S of measured (set-up or
# operation) time, so its samples spread over the run as the measured work
# does.  REF_NOMINAL_S is its mean time at the reference speed: a round
# figure near its mean time on the machine the baseline comes from.
REF_EVERY_S = 0.02
REF_NOMINAL_S = 0.003

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


def fresh_import(with_cli):
    """Import the package from SRC, dropping any earlier import, so every
    set-up repetition pays the import again."""
    for name in [n for n in sys.modules
                 if n == "weightscape" or n.startswith("weightscape.")]:
        del sys.modules[name]
    ws = importlib.import_module("weightscape")
    if not os.path.abspath(ws.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"weightscape imported from {ws.__file__}")
    if with_cli:
        importlib.import_module("weightscape.cli")
    return ws


def tail(samples):
    """Latency at the highest percentile with at least ten samples beyond
    it: (value, percentile, sample count).  Below 21 samples that
    percentile would not exceed the median, so the maximum is reported, as
    percentile 100."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0, n
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n, n


def reference_task():
    """Fixed work of the kinds the package does (rational arithmetic,
    tuples, sorting, dictionary look-ups) that calls nothing of it."""
    total = Fraction(0)
    seen = {}
    for i in range(1, 601):
        w = Fraction(i % 17 + 1, i % 11 + 2)
        total += w
        key = tuple(sorted((i % 7, i % 5, w.denominator)))
        seen[key] = seen.get(key, 0) + 1
    return total, len(seen)


class Pacer:
    """Runs the reference task after every REF_EVERY_S of measured time and
    keeps its times."""

    def __init__(self):
        self.owed = 0.0
        self.times = []

    def measured(self, elapsed):
        self.owed += elapsed
        while self.owed >= REF_EVERY_S or not self.times:
            self.owed = max(0.0, self.owed - REF_EVERY_S)
            start = perf_counter()
            reference_task()
            self.times.append(perf_counter() - start)

    def scale(self):
        """Factor from this host's speed in the run to the reference speed."""
        return REF_NOMINAL_S / statistics.fmean(self.times)


def build(workload, ws, seed, runner, cache_dir):
    if workload == "chambers":
        return wl.chambers_setup(ws, seed)
    if workload == "strata":
        return wl.strata_setup(ws, seed)
    if workload == "queries":
        return wl.queries_setup(ws, seed)
    return wl.cli_setup(runner, seed, cache_dir)


def run(workload, seed, seconds, trace):
    os.environ.pop("WEIGHTSCAPE_CACHE", None)
    trace_dir = os.path.join(WORK_DIR, "trace", workload)
    cache_dir = os.path.join(WORK_DIR, "chamber-cache")
    if trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
    in_process = workload != "cli"
    tracer = tracing.Tracer() if trace and in_process else None

    def set_up(install):
        """One complete set-up from a fresh import, and its time.  Each
        starts from a collected heap: the import's own garbage collections
        cost more the more garbage and live objects lie about."""
        gc.collect()
        start = perf_counter()
        ws = fresh_import(with_cli=not in_process)
        if install:
            tracer.reset()
            tracing.install(tracer)
        runner = None if in_process else wl.CliRunner(
            sys.modules["weightscape.cli"], ROOT,
            trace_dir if trace else None)
        cycles = build(workload, ws, seed, runner, cache_dir)
        return ws, runner, cycles, perf_counter() - start

    # Half the set-up repetitions run before the timed loop and half after
    # it, so that their median spans two moments of the host's speed.
    repeats, nominal_cycle_s = WORKLOADS[workload]
    pacer = Pacer()
    setup_times = []
    for _ in range(repeats - repeats // 2):
        ws, runner, cycles, elapsed = set_up(tracer is not None)
        setup_times.append(elapsed)
        pacer.measured(elapsed)

    if not in_process:
        # The chamber cache the `chambers` command hits is written once by
        # the program itself, untimed, and reused by later runs.
        ws.enumerate_chambers(0, 5, ws.Granularity.FINE, cache_dir=cache_dir)
    gc.collect()

    target_cycles = max(1, round(seconds / nominal_cycle_s))
    latencies, items, verified = {}, {}, {}
    executed = []
    attempted = failed = 0
    busy = 0.0
    done_cycles = 0
    loop_start = perf_counter()
    while True:
        for op in cycles[done_cycles % len(cycles)]:
            start = perf_counter()
            try:
                out = op.call()
                ok = True
            except Exception:
                ok = False
                traceback.print_exc()
            elapsed = perf_counter() - start
            busy += elapsed
            attempted += 1
            if tracer:
                tracer.active = False
            if ok and check(op, out, verified):
                latencies.setdefault(op.key, []).append(elapsed)
                executed.append(elapsed)
                if workload in ITEMS:
                    items[op.key] = len(out)
            else:
                failed += 1
            pacer.measured(elapsed)
            if tracer:
                tracer.active = True
        done_cycles += 1
        if (done_cycles >= target_cycles) if trace else \
                (perf_counter() - loop_start >= seconds):
            break
    if not executed:
        raise RuntimeError("no operation completed its check")
    # The checked outputs are no longer needed: drop them, so the later
    # set-ups run on a heap like the earlier ones.
    verified.clear()
    for _ in range(repeats // 2):
        elapsed = set_up(False)[3]
        setup_times.append(elapsed)
        pacer.measured(elapsed)

    if in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        peak_kb = max(runner.peak_rss_kb(list(op.key)) for op in cycles[0])
    # Each input's latency is the mean of its checked executions, and the
    # throughput counts checked executions over their time, all scaled to
    # the reference speed: means, because the reference task's mean tracks
    # the host's mean speed over the same stretch of time.
    scale = pacer.scale()
    means = sorted(scale * statistics.fmean(times)
                   for times in latencies.values())
    executed_s = scale * sum(executed)
    tail_value, tail_pct, count = tail(means)
    end_to_end = {
        "setup_s": scale * statistics.median(setup_times),
        "ops_per_s": len(executed) / executed_s,
        "op_p50_ms": 1e3 * statistics.median(means),
        "op_tail_ms": 1e3 * tail_value,
        "peak_rss_mb": peak_kb / 1024,
    }
    details = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "cycles": done_cycles, "attempted": attempted,
        "failed": failed, "fail_rate": failed / attempted,
        "busy_s": busy, "setup_runs_s": setup_times,
        "op_tail_percentile": tail_pct, "op_inputs": count,
        "reference_runs": len(pacer.times), "speed_scale": scale,
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                       for k, v in end_to_end.items()},
        "unscaled": {"setup_s": statistics.median(setup_times),
                     "ops_per_s": len(executed) / sum(executed),
                     "op_p50_ms": 1e3 * statistics.median(means) / scale},
    }
    if workload in ITEMS:
        emitted = sum(items[key] * len(times)
                      for key, times in latencies.items())
        details["end_to_end"][ITEMS[workload]] = {
            "value": emitted / executed_s, "unit": "1/s"}
    if trace:
        details["per_layer"] = tracing.per_layer_metrics(
            layer_summary(tracer, trace_dir), PER_LAYER)
    return details


def check(op, out, verified):
    """Full oracle check for the first result of each input; later results
    for the same input must equal it."""
    try:
        if op.key in verified:
            return out == verified[op.key]
        if op.verify(out):
            verified[op.key] = out
            return True
    except Exception:
        traceback.print_exc()
    return False


def layer_summary(tracer, trace_dir):
    total = {"spans": {}, "counters": {}}
    if tracer:
        tracer.active = False
        path = os.path.join(trace_dir, "process.json")
        tracer.dump(path)
        docs = [path]
    else:
        docs = sorted(os.path.join(trace_dir, f) for f in os.listdir(trace_dir))
    for path in docs:
        with open(path, encoding="ascii") as fh:
            tracing.merge(total, tracing.summarize(json.load(fh)))
    return total


def report(details, out):
    w = details["workload"]
    out.write(f"workload {w}  seed {details['seed']}  cycles "
              f"{details['cycles']}  operations {details['attempted']}  "
              f"failed {details['failed']}  fail_rate "
              f"{details['fail_rate']:.4f}\n")
    for name, m in details["end_to_end"].items():
        note = ""
        if name == "op_tail_ms":
            note = (f"  (p{details['op_tail_percentile']:.1f} of "
                    f"{details['op_inputs']} inputs)")
        out.write(f"  {name:<48} {m['value']:>14.6g} {m['unit']}{note}\n")
    for name, m in details.get("per_layer", {}).items():
        out.write(f"  {name:<48} {m['value']:>14.6g} {m['unit']}\n")


def main(argv=None):
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Hash randomization changes set and dict layouts, and with them
        # the timings, from process to process: use one fixed layout.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--details", help="also write every figure, both "
                        "metric sets included, as JSON to this file")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "weightscape", "__init__.py")):
        sys.stderr.write(f"no weightscape sources under {SRC}\n")
        return 2
    sys.path.insert(0, SRC)
    details = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(details, sys.stderr)
    if args.details:
        with open(args.details, "w", encoding="ascii") as fh:
            json.dump(details, fh, indent=1)
    metrics = details["per_layer"] if args.trace else {
        k: details["end_to_end"][k] for k in END_TO_END_UNITS}
    print(json.dumps({"correct": details["failed"] == 0,
                      "attempted": details["attempted"],
                      "failed": details["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

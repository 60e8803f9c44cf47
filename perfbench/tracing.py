"""Spans around the calls into each `weightscape` module, recorded from
the benchmark's side only.

`install` wraps a fixed list of package functions and rebinds every module
attribute that refers to one of them, so a call between two package
modules (`curves` calling `validate`, say) is recorded as well as a call
from the benchmark.  Per-vertex helpers such as `vertex_log_degree` are
deliberately not wrapped: they run hundreds of thousands of times per
operation and the wrapper would dominate what it measures.

Spans are kept in memory as flat arrays and written out once, at the end
of the process that recorded them.  `summarize` turns spans into the
per-layer metrics: calls, self time (span time minus the time covered by
its direct child spans) and the work ratios named in the benchmark.
"""

import json
import os
import sys
from array import array
from time import perf_counter

SOLVE = "ratcore.solve"

# (module, attribute, span name); the span name is "<layer>.<function>".
# The exact solver is entered through `is_feasible` (walls) and
# `_solve_rows` (the chamber search); both bindings live in `weights`, so
# only those are wrapped and no solve is counted twice.
WRAPPED = [
    ("weights", "_solve_rows", SOLVE),
    ("weights", "is_feasible", SOLVE),
    ("weights", "walls", "weights.walls"),
    ("weights", "enumerate_chambers", "weights.enumerate_chambers"),
    ("weights", "locate", "weights.locate"),
    ("weights", "validate", "weights.validate"),
    ("weights", "perturb_to_fine_chamber", "weights.perturb_to_fine_chamber"),
    ("weights", "universal_curve_weight", "weights.universal_curve_weight"),
    ("curves", "is_stable", "curves.is_stable"),
    ("curves", "marked_tree", "curves.marked_tree"),
    ("curves", "canonical_key", "curves.canonical_key"),
    ("curves", "canonical_form", "curves.canonical_form"),
    ("curves", "enumerate_strata", "curves.enumerate_strata"),
    ("curves", "stabilize", "curves.stabilize"),
    ("curves", "forget", "curves.forget"),
    ("curves", "boundary_divisors", "curves.boundary_divisors"),
    ("curves", "contracted_divisors", "curves.contracted_divisors"),
    ("curves", "is_reduction_iso", "curves.is_reduction_iso"),
    ("git", "tau_fine_preimage", "git.tau_fine_preimage"),
    ("git", "chamber_matches_quotient", "git.chamber_matches_quotient"),
    ("git", "strictly_semistable_types", "git.strictly_semistable_types"),
    ("named", "classify", "named.classify"),
    ("named", "blowup_sequence", "named.blowup_sequence"),
    ("logcanon", "remark76_check", "logcanon.remark76_check"),
    ("jsonio", "canonical_dumps", "jsonio.canonical_dumps"),
    ("cli", "run", "cli.run"),
]


def _info(name, args, kwargs, result):
    """The one number a span keeps besides its times."""
    if name == SOLVE:
        return bool(result if isinstance(result, bool) else result[0])
    if name == "curves.is_stable":
        return bool(result)
    if name == "curves.enumerate_strata":
        return len(result)
    if name == "weights.enumerate_chambers":
        cached = bool(kwargs.get("cache_dir")
                      or os.environ.get("WEIGHTSCAPE_CACHE"))
        return (len(result), cached)
    if name == "jsonio.canonical_dumps":
        return len(result)
    return None


def _rows(args, kwargs):
    if len(args) == 1:                      # is_feasible(system)
        return len(args[0].constraints)
    return len(args[1]) + len(args[2])      # _solve_rows(dim, ineqs, eqs, _)


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = {}
        self.reset()

    def reset(self):
        self.kind = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.info = []
        self.rows = 0
        self.stack = []
        self.active = True

    def _id(self, name):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        return self.name_id[name]

    def wrap(self, name, fn):
        kind = self._id(name)
        is_solve = name == SOLVE

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.info)
            self.kind.append(kind)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.info.append(None)
            self.end.append(0.0)
            self.stack.append(index)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self.stack.pop()
            self.info[index] = _info(name, args, kwargs, result)
            if is_solve:
                self.rows += _rows(args, kwargs)
            return result

        return traced

    def dump(self, path, extra=None):
        """Write the spans recorded so far as one JSON document."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        payload = {"names": self.names, "kind": list(self.kind),
                   "parent": list(self.parent), "start": list(self.start),
                   "end": list(self.end),
                   "info": [i if not isinstance(i, tuple) else list(i)
                            for i in self.info],
                   "rows": self.rows, "extra": extra or {}}
        with open(path, "w", encoding="ascii") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def install(tracer):
    """Wrap every function in WRAPPED and rebind it in each imported
    `weightscape` module that holds it."""
    package = [m for name, m in sys.modules.items()
               if name == "weightscape" or name.startswith("weightscape.")]
    for module_name, attr, span in WRAPPED:
        home = sys.modules.get("weightscape." + module_name)
        original = getattr(home, attr, None) if home else None
        if original is None:
            continue
        wrapped = tracer.wrap(span, original)
        for module in package:
            if span == SOLVE and module.__name__ != "weightscape.weights":
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def summarize(doc):
    """Per-layer totals from one dumped span document (see Tracer.dump)."""
    names, kind, parent = doc["names"], doc["kind"], doc["parent"]
    start, end, info = doc["start"], doc["end"], doc["info"]
    count = len(kind)
    duration = [end[i] - start[i] for i in range(count)]
    child_time = [0.0] * count
    direct_solves = [0] * count
    walls_time = [0.0] * count
    stable_children = [0] * count
    ids = {name: i for i, name in enumerate(names)}
    solve = ids.get(SOLVE, -1)
    walls = ids.get("weights.walls", -1)
    stable = ids.get("curves.is_stable", -1)
    for i in range(count):
        p = parent[i]
        if p >= 0:
            child_time[p] += duration[i]
            if kind[i] == solve:
                direct_solves[p] += 1
            elif kind[i] == walls:
                walls_time[p] += duration[i]
            elif kind[i] == stable and info[i]:
                stable_children[p] += 1
    spans, counters = {}, {}

    def bump(key, value):
        counters[key] = counters.get(key, 0) + value

    for i in range(count):
        name = names[kind[i]]
        entry = spans.setdefault(name, {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += duration[i] - child_time[i]
        if info[i] is None:             # raised, or a plain span
            continue
        if name == SOLVE:
            bump("ratcore.solve.feasible", int(info[i]))
        elif name == "curves.is_stable":
            bump("curves.is_stable.stable", int(info[i]))
        elif name == "curves.enumerate_strata":
            bump("curves.enumerate_strata.strata", info[i])
            bump("curves.enumerate_strata.stable_candidates",
                 stable_children[i])
        elif name == "weights.enumerate_chambers":
            chambers, cached = info[i]
            if cached and direct_solves[i] == 0:
                bump("weights.cache_read_s", duration[i] - walls_time[i])
            else:
                bump("weights.enumerate_chambers.chambers", chambers)
                bump("weights.enumerate_chambers.solves", direct_solves[i])
        elif name == "jsonio.canonical_dumps":
            bump("jsonio.canonical_dumps.bytes", info[i])
    bump("ratcore.solve.rows", doc["rows"])
    for key, value in doc.get("extra", {}).items():
        bump(key, value)
    return {"spans": spans, "counters": counters}


def merge(total, part):
    for name, entry in part["spans"].items():
        mine = total["spans"].setdefault(name, {"calls": 0, "self_s": 0.0})
        mine["calls"] += entry["calls"]
        mine["self_s"] += entry["self_s"]
    for key, value in part["counters"].items():
        total["counters"][key] = total["counters"].get(key, 0) + value
    return total


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(summary, wanted):
    """Values for the (name, unit) pairs in `wanted`: a span field such as
    `curves.is_stable.calls`, or one of the derived ratios and totals."""
    spans, counters = summary["spans"], summary["counters"]

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    solve_calls = span(SOLVE, "calls")
    derived = {
        "ratcore.solve.rows": counters.get("ratcore.solve.rows", 0),
        "ratcore.solve.feasible_frac": _ratio(
            counters.get("ratcore.solve.feasible", 0), solve_calls),
        "weights.enumerate_chambers.solves_per_chamber": _ratio(
            counters.get("weights.enumerate_chambers.solves", 0),
            counters.get("weights.enumerate_chambers.chambers", 0)),
        "weights.cache_read_s": counters.get("weights.cache_read_s", 0.0),
        "curves.is_stable.stable_frac": _ratio(
            counters.get("curves.is_stable.stable", 0),
            span("curves.is_stable", "calls")),
        "curves.enumerate_strata.unique_frac": _ratio(
            counters.get("curves.enumerate_strata.strata", 0),
            counters.get("curves.enumerate_strata.stable_candidates", 0)),
        "jsonio.canonical_dumps.bytes": counters.get(
            "jsonio.canonical_dumps.bytes", 0),
        "cli.import_s": counters.get("cli.import_s", 0.0),
    }
    out = {}
    for name, unit in wanted:
        if name in derived:
            value = derived[name]
        else:
            layer, _, field = name.rpartition(".")
            value = span(layer, field)
        out[name] = {"value": value, "unit": unit}
    return out

"""The four workloads: seeded inputs, one operation cycle each, and the
output checks against the oracles in `oracles.py`.

Each workload's `*_setup` function builds every input before timing starts
and returns a list of cycles; each cycle is a list of `Op`.  An operation calls
one public entry point of `weightscape` (or, for `cli`, starts one fresh
process) with nothing but the generated inputs.
"""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from io import StringIO

import oracles as orc

# The fixed chamber types behind the seeded random strata inputs (n = 6);
# the seed relabels and moves the weights inside each type's open fine
# chamber, so every seed asks for the same amount of work.
TYPE_SEED = 20020509
STRATA_TYPES = 4

QUERY_NS = (6, 7, 8, 9)
# Inputs per kind and n.  The kinds' costs differ by 30x and grow with n, so
# the median over the inputs moves with the seed's draw: with 2 inputs it
# moved by 16 % between seeds, with 6 by 8 %.  With 12 the tail fell among
# the slowest kind's inputs and moved by 13 %.
QUERY_POOL = 6


class Op:
    """One timed call. `key` names its input: equal keys must give equal
    results, so only the first result per key is checked in full."""

    __slots__ = ("kind", "key", "call", "verify")

    def __init__(self, kind, key, call, verify):
        self.kind, self.key, self.call, self.verify = kind, key, call, verify


# -- input generators ----------------------------------------------------

def random_weights(rng, n, max_den=12, below_one=False):
    """Random genus-0 weights k/d with sum above 2."""
    while True:
        ws = []
        for _ in range(n):
            d = rng.randint(2, max_den)
            ws.append(Fraction(rng.randint(1, d - 1 if below_one else d), d))
        if sum(ws) > 2:
            return tuple(ws)


def open_chamber_weights(rng, n):
    """Random weights below 1 on no wall at all: no subset sums to 1."""
    while True:
        ws = random_weights(rng, n, max_den=9, below_one=True)
        if not orc.has_unit_subset(ws, range(2, n + 1)):
            return ws


def strata_types():
    rng = random.Random(TYPE_SEED)
    return [open_chamber_weights(rng, 6) for _ in range(STRATA_TYPES)]


def same_chamber_point(rng, base):
    """A relabelled point of the open chamber of `base` with small
    denominators: same stable trees, different input."""
    n = len(base)
    perm = list(range(n))
    rng.shuffle(perm)
    target = tuple(base[p] for p in perm)
    signature = orc.chamber_signature(target)
    for attempt in range(4000):
        q = rng.randint(40, 80) * (1 + attempt // 1000)
        moved = tuple(Fraction(min(q - 1, max(1, round(w * q)
                                              + rng.randint(-2, 2))), q)
                      for w in target)
        if sum(moved) > 2 and orc.chamber_signature(moved) == signature:
            return moved
    return target


def named_weights(rng, n):
    """A canonical point of a random named region, by the printed formulas."""
    k_max_x, k_max_y = n - 4, 2 * n - 9
    choice = rng.randint(0, k_max_x + k_max_y + 2)
    if choice <= k_max_x:
        a = Fraction(1, n - 2 - choice)
        return (a,) * (n - 1) + (Fraction(1),)
    choice -= k_max_x + 1
    if choice <= k_max_y:
        eps = (Fraction(1, 4 * (n - 3 - choice)) if choice <= n - 4
               else Fraction(1, n - 3 - (choice - (n - 4))))
        return (Fraction(3, 4),) * 3 + (eps,) * (n - 3)
    return (Fraction(1), Fraction(1)) + (Fraction(1, n - 2),) * (n - 2)


def dominated(rng, a):
    """Positive weights at most a, each cut by a random share of the room
    above sum 2, so the sum stays above 2."""
    room = (sum(a) - 2) / sum(a)
    return tuple(w * (1 - room * Fraction(rng.randint(0, 9), 10)) for w in a)


def random_tree(rng, a):
    """A random a-stable genus-0 tree with at least two vertices, as the
    oracle's (classes, edges); None when none was found quickly."""
    n = len(a)
    wmap = {i + 1: w for i, w in enumerate(a)}
    for _ in range(500):
        k = rng.randint(2, max(2, n // 2))
        edges = [(rng.randint(1, v - 1), v) for v in range(2, k + 1)]
        placed = {v: [] for v in range(1, k + 1)}
        for m in range(1, n + 1):
            placed[rng.randint(1, k)].append(m)
        classes = {}
        for v, marks in placed.items():
            rng.shuffle(marks)
            groups = []
            for m in marks:
                if groups and rng.random() < 0.3 and \
                        sum(wmap[x] for x in groups[-1]) + wmap[m] <= 1:
                    groups[-1].append(m)
                else:
                    groups.append([m])
            classes[v] = [(frozenset(g), False) for g in groups]
        if orc.tree_is_stable(classes, edges, wmap):
            return classes, edges
    return None


def typical_linearization(rng, n):
    while True:
        c = [rng.randint(1, 30) for _ in range(n)]
        total = sum(c)
        t = tuple(Fraction(2 * x, total) for x in c)
        if max(t) < 1 and not orc.unit_subsets(t):
            return t


def atypical_linearization(rng, n):
    while True:
        c = [rng.randint(1, 12) for _ in range(n)]
        total = sum(c)
        t = tuple(Fraction(2 * x, total) for x in c)
        if max(t) < 1 and orc.unit_subsets(t):
            return t


# -- program output in oracle form ----------------------------------------

def tree_parts(tree):
    classes = {v.id: [(frozenset(c.markings), c.node_supported)
                      for c in v.classes] for v in tree.vertices}
    return classes, list(tree.edges)


def to_program_tree(ws, classes, edges):
    vertices = [(v, 0, [ws.mark_class(c, ns) for c, ns in cs])
                for v, cs in classes.items()]
    return ws.marked_tree(vertices, edges)


def weights_json(weights):
    return json.dumps({"genus": 0, "weights": [str(w) for w in weights]},
                      separators=(",", ":"))


# -- chambers ------------------------------------------------------------

CHAMBER_INPUTS = ((0, 4), (1, 4))


def chambers_setup(ws, seed):
    fine = ws.Granularity.FINE
    for g, n in CHAMBER_INPUTS:
        ws.walls(g, n, fine)
    order = list(CHAMBER_INPUTS)
    random.Random(seed).shuffle(order)
    ops = []
    for g, n in order:
        ops.append(Op("chambers", (g, n),
                      lambda g=g, n=n: ws.enumerate_chambers(g, n, fine),
                      lambda out, g=g, n=n: check_chambers(out, g, n)))
    return [ops]


def check_chambers(chambers, g, n):
    if len(chambers) != orc.FINE_CHAMBER_COUNTS[(g, n)]:
        return False
    codes = [ch.sign_vector.codes() for ch in chambers]
    if len(set(codes)) != len(codes):
        return False
    for ch, code in zip(chambers, codes):
        rep = ch.representative
        if rep.genus != g or len(rep.weights) != n or "O" in code:
            return False
        if not orc.in_domain(g, rep.weights):
            return False
        if orc.sign_codes(rep.weights) != code:
            return False
    return True


# -- strata --------------------------------------------------------------

def strata_setup(ws, seed):
    rng = random.Random(seed)
    inputs = [("unit", (Fraction(1),) * 6)]
    for i, base in enumerate(strata_types()):
        inputs.append((f"type{i}", same_chamber_point(rng, base)))
    rng.shuffle(inputs)
    ops = []
    for label, weights in inputs:
        data = ws.validate(0, weights)
        ops.append(Op("strata", (label, weights),
                      lambda d=data: ws.enumerate_strata(d, d.n - 3),
                      lambda out, w=weights, unit=label == "unit":
                      check_strata(out, w, unit)))
    return [ops]


def check_strata(strata, weights, unit):
    n = len(weights)
    if unit and len(strata) != orc.UNIT_STRATA_COUNTS[n]:
        return False
    wmap = {i + 1: w for i, w in enumerate(weights)}
    seen = set()
    last = 0
    for s in strata:
        classes, edges = tree_parts(s.tree)
        if not orc.tree_is_stable(classes, edges, wmap):
            return False
        codim = len(edges) + sum(len(c) - 1 for cs in classes.values()
                                 for c, _ in cs)
        if codim != s.codimension or not last <= codim <= n - 3:
            return False
        last = codim
        key = orc.tree_invariant(classes, edges)
        if key in seen:
            return False
        seen.add(key)
    return bool(strata) and strata[0].codimension == 0


# -- queries -------------------------------------------------------------

QUERY_KINDS = ("locate", "perturb", "ucurve", "boundary", "reduce",
               "stabilize", "forget", "classify", "tau_match", "sstypes")


def _query(ws, rng, kind, n):
    """(inputs, call, verify) for one random input of the given kind and
    size; `inputs` is the generated data as a hashable value."""
    fine = ws.Granularity.FINE
    if kind in ("locate", "perturb", "boundary"):
        w = random_weights(rng, n)
        data = ws.validate(0, w)
        if kind == "locate":
            return (w, lambda: ws.locate(data, fine),
                    lambda out: out.codes() == orc.sign_codes(w))
        if kind == "perturb":
            return (w, lambda: ws.perturb_to_fine_chamber(data),
                    lambda out: out.weights == orc.perturbed(w))
        return (w, lambda: ws.boundary_divisors(data),
                lambda out: [(d.kind.value, tuple(sorted(d.members)),
                              None if d.complement is None
                              else tuple(sorted(d.complement)))
                             for d in out] == orc.boundary(w))
    if kind == "ucurve":
        while True:
            w = random_weights(rng, n)
            if not orc.has_unit_subset(w, range(2, n - 1)):
                break
        data = ws.validate(0, w)
        return (w, lambda: ws.universal_curve_weight(data),
                lambda out: out.weights == orc.universal_curve(w))
    if kind == "reduce":
        a = random_weights(rng, n)
        b = dominated(rng, a)
        da, db = ws.validate(0, a), ws.validate(0, b, ws.Mode.ZERO_ALLOWED)

        def verify(out):
            fates, iso = out
            got = [(f.divisor.kind.value, tuple(sorted(f.divisor.members)),
                    f.status.value,
                    None if f.collapsed_side is None
                    else tuple(sorted(f.collapsed_side)),
                    None if f.factor_weights is None
                    else f.factor_weights.weights) for f in fates]
            return (got, iso) == orc.reduction(a, b)
        return ((a, b), lambda: (ws.contracted_divisors(da, db),
                                 ws.is_reduction_iso(da, db)), verify)
    if kind in ("stabilize", "forget"):
        while True:
            a = random_weights(rng, n)
            parts = random_tree(rng, a)
            if parts is not None:
                break
        classes, edges = parts
        tree = to_program_tree(ws, classes, edges)
        da = ws.validate(0, a)
        if kind == "stabilize":
            b = dominated(rng, a)
            db = ws.validate(0, b, ws.Mode.ZERO_ALLOWED)
            wmap = {i + 1: x for i, x in enumerate(b)}
            inputs = (tree, a, b)
            call = lambda: ws.stabilize(tree, da, db)
        else:
            # drop up to n-3 random markings, keeping the kept sum above 2
            keep = set(range(1, n + 1))
            for m in rng.sample(sorted(keep), rng.randint(1, n - 3)):
                if sum(a[k - 1] for k in keep - {m}) > 2:
                    keep.discard(m)
            keep = sorted(keep)
            wmap = {k: a[k - 1] for k in keep}
            kept = {v: [(c & set(keep), ns) for c, ns in cs if c & set(keep)]
                    for v, cs in classes.items()}
            classes = kept
            inputs = (tree, a, tuple(keep))
            call = lambda: ws.forget(tree, da, keep)

        def verify(out):
            got = tree_parts(out)
            want = orc.contract(classes, edges, wmap)
            return (orc.tree_is_stable(*got, wmap)
                    and orc.tree_invariant(*got) == orc.tree_invariant(*want))
        return inputs, call, verify
    if kind == "classify":
        w = named_weights(rng, n) if rng.random() < 0.5 \
            else random_weights(rng, n)
        data = ws.validate(0, w)
        return (w, lambda: ws.classify(data),
                lambda out: [f.tag for f in out] == orc.named_regions(w))
    if kind == "tau_match":
        t = typical_linearization(rng, n)
        lin = ws.Linearization.make(t)

        def call():
            pre = ws.tau_fine_preimage(lin)
            return pre, ws.chamber_matches_quotient(pre, lin)

        def verify(out):
            pre, match = out
            weights, mismatched, ambiguous = orc.fine_preimage_and_match(t)
            return (pre.weights == weights
                    and match.matches == (not mismatched)
                    and [tuple(sorted(s)) for s in match.mismatched_subsets]
                    == mismatched
                    and [tuple(sorted(s)) for s in match.ambiguous_subsets]
                    == ambiguous)
        return t, call, verify
    t = atypical_linearization(rng, n)
    lin = ws.Linearization.make(t)
    return (t, lambda: ws.strictly_semistable_types(lin),
            lambda out: [tuple(sorted(s)) for s in out]
            == orc.semistable_types(t))


def queries_setup(ws, seed):
    fine = ws.Granularity.FINE
    for n in QUERY_NS:
        ws.walls(0, n, fine)
    rng = random.Random(seed)
    pools = {(kind, n): [_query(ws, rng, kind, n) for _ in range(QUERY_POOL)]
             for kind in QUERY_KINDS for n in QUERY_NS}
    order = list(pools)
    rng.shuffle(order)
    cycles = []
    for i in range(QUERY_POOL):
        cycles.append([])
        for kind, n in order:
            inputs, call, verify = pools[(kind, n)][i]
            cycles[-1].append(Op(kind, (kind, inputs), call, verify))
    return cycles


# -- cli -----------------------------------------------------------------

# Forks the command given as arguments from a small interpreter, with its
# stdout discarded, and prints the command's peak resident memory in KiB.
# A child of the benchmark process itself is charged the benchmark's own
# peak: Linux counts the memory a process had before its exec in its
# ru_maxrss.
PEAK_RSS_LAUNCHER = """\
import os, sys
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    os.execv(sys.argv[1], sys.argv[1:])
print(os.wait4(pid, 0)[2].ru_maxrss)
"""


class CliRunner:
    """Starts one `python -m weightscape.cli` process per operation, or the
    benchmark's child entry script when tracing."""

    def __init__(self, ws_cli, root, trace_dir=None):
        self.cli = ws_cli
        self.root = root
        self.trace_dir = trace_dir
        self.env = {k: v for k, v in os.environ.items()
                    if k != "WEIGHTSCAPE_CACHE"}
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.count = 0
        self.references = {}

    def run(self, argv):
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "weightscape.cli", *argv]
        else:
            self.count += 1
            out = os.path.join(self.trace_dir, f"op-{self.count:05d}.json")
            cmd = [sys.executable,
                   os.path.join(self.root, "perfbench", "cli_child.py"),
                   out, *argv]
        done = subprocess.run(cmd, cwd=self.root, env=self.env,
                              capture_output=True, timeout=120)
        return done.returncode, done.stdout

    def peak_rss_kb(self, argv):
        """Peak resident memory of one `python -m weightscape.cli` process
        running argv, in KiB."""
        done = subprocess.run(
            [sys.executable, "-S", "-c", PEAK_RSS_LAUNCHER,
             sys.executable, "-m", "weightscape.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, text=True,
            timeout=120, check=True)
        return int(done.stdout)

    def reference(self, argv):
        """stdout of the same command run in this process."""
        key = tuple(argv)
        if key not in self.references:
            buf = StringIO()
            code = self.cli.run(list(argv), out=buf, err=StringIO())
            self.references[key] = (code, buf.getvalue().encode("ascii"))
        return self.references[key]

    def verify(self, argv, out):
        code, stdout = out
        return code == 0 and (0, stdout) == self.reference(argv)


def cli_commands(seed, cache_dir):
    """One cycle of CLI argument lists; the seed picks the weights."""
    rng = random.Random(seed)
    commands = [
        ["remark76"],
        ["blowup-seq", "--family", "W", "--n", "8"],
        ["strata", "--weights",
         weights_json(same_chamber_point(rng, strata_types()[0])),
         "--max-codim", "3"],
        ["locate", "--weights", weights_json(random_weights(rng, 8))],
        ["boundary", "--weights", weights_json(random_weights(rng, 8))],
        ["chambers", "--genus", "0", "--n", "5", "--cache-dir", cache_dir],
    ]
    rng.shuffle(commands)
    return [[*argv, "--json"] for argv in commands]


def cli_setup(runner, seed, cache_dir):
    return [[Op(argv[0], tuple(argv),
                lambda argv=argv: runner.run(argv),
                lambda out, argv=argv: runner.verify(argv, out))
             for argv in cli_commands(seed, cache_dir)]]

"""Shared test helpers: random generators and independent oracles."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

import weightscape as ws
from weightscape.curves import (MarkClass, MarkedTree, Stratum, _log_degree,
                                _stability, _valences, marked_tree)
from weightscape.errors import (BoundarySumMismatch, DegreeNotPositive,
                                InternalInvariantError,
                                NonterminatingContraction, WeightOutOfRange)
from weightscape.ratcore import rational
from weightscape.weights import Mode


def rand_weight(rng, max_den=10):
    den = rng.randint(2, max_den)
    return Fraction(rng.randint(1, den), den)


def random_weight_data(rng, n, genus=0, attempts=500):
    """Random valid STRICT weight data (rejection sampling on the degree)."""
    for _ in range(attempts):
        ws_tuple = tuple(rand_weight(rng) for _ in range(n))
        if 2 * genus - 2 + sum(ws_tuple) > 0:
            return ws.validate(genus, ws_tuple)
    raise AssertionError("could not sample valid weight data")


def random_dominated(rng, data, attempts=500):
    """Random valid weight data componentwise <= data."""
    for _ in range(attempts):
        shrunk = tuple(w * Fraction(rng.randint(5, 10), 10)
                       for w in data.weights)
        if 2 * data.genus - 2 + sum(shrunk) > 0:
            return ws.validate(data.genus, shrunk)
    return data


def random_between(rng, low, high):
    """Random valid weight data with low <= B <= high componentwise."""
    mix = tuple(c + (a - c) * Fraction(rng.randint(0, 4), 4)
                for c, a in zip(low.weights, high.weights))
    return ws.validate(low.genus, mix)


def random_stable_tree(rng, data, max_steps=None):
    """Random data-stable marked tree built by random degenerations."""
    tree = ws.marked_tree(
        [(1, 0, [[m] for m in range(1, data.n + 1)])], [])
    steps = rng.randint(0, max_steps if max_steps is not None else data.n - 3)
    for _ in range(steps):
        options = [c for c in unpruned_degenerations(tree, data)
                   if ws.is_stable(c, data)]
        if not options:
            break
        tree = ws.canonical_form(rng.choice(options))
    return tree


def relabel_tree(tree, rng):
    """Isomorphic copy under a random permutation of the vertex ids."""
    ids = list(tree.vertex_ids)
    shuffled = ids[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(ids, shuffled))
    vertices = [(mapping[v.id], v.genus, list(v.classes))
                for v in tree.vertices]
    edges = [(mapping[a], mapping[b]) for a, b in tree.edges]
    return ws.marked_tree(vertices, edges)


def brute_force_boundary(data):
    """Independent divisor scanner: every unordered partition and pair."""
    n = data.n
    nodal = set()
    for size in range(2, n - 1):
        for side in combinations(range(1, n + 1), size):
            other = tuple(sorted(set(range(1, n + 1)) - set(side)))
            if fraction_sum(data.weights, side) > 1 and \
                    fraction_sum(data.weights, other) > 1:
                nodal.add(frozenset((frozenset(side), frozenset(other))))
    pairs = {frozenset(p) for p in combinations(range(1, n + 1), 2)
             if fraction_sum(data.weights, p) <= 1}
    return nodal, pairs


def grid_sign_vectors(n, step_denom=64):
    """Distinct off-wall sign vectors of the 1/step grid over the open
    genus-0 domain, as Position-code strings aligned with the fine walls.

    Scans sorted tuples only (integer numerators, exact) and closes under
    the coordinate action of the symmetric group.
    """
    import numpy as np

    wall_list = ws.walls(0, n, ws.Granularity.FINE)
    subsets = [tuple(sorted(w.subset)) for w in wall_list]
    index_of = {frozenset(s): i for i, s in enumerate(subsets)}
    D = step_denom

    found = set()
    vals = np.arange(1, D + 1, dtype=np.int64)
    from itertools import combinations_with_replacement
    for prefix in combinations_with_replacement(range(1, D + 1), n - 2):
        lo = prefix[-1]
        a_second = vals[vals >= lo]
        A1, A2 = np.meshgrid(a_second, vals, indexing="ij")
        mask = A2 >= A1
        A1, A2 = A1[mask], A2[mask]
        total = sum(prefix) + A1 + A2
        ok = total > 2 * D
        if not ok.any():
            continue
        A1, A2 = A1[ok], A2[ok]
        coords = [np.full_like(A1, p) for p in prefix] + [A1, A2]
        code = np.zeros_like(A1)
        onwall = np.zeros_like(A1, dtype=bool)
        for s in subsets:
            ssum = sum(coords[j - 1] for j in s)
            sign = np.sign(ssum - D)
            onwall |= sign == 0
            code = code * 3 + (sign + 1)
        code = code[~onwall]
        found.update(np.unique(code).tolist())

    def decode(code):
        digits = []
        for _ in subsets:
            digits.append(int(code % 3) - 1)
            code //= 3
        return tuple(reversed(digits))

    closed = set()
    for code in found:
        signs = decode(code)
        for perm in permutations(range(1, n + 1)):
            mapped = tuple(
                signs[index_of[frozenset(perm[j - 1] for j in s)]]
                for s in subsets)
            closed.add(mapped)
    return {"".join("A" if v > 0 else "B" for v in vec) for vec in closed}


def permute_sign_vector(vec, perm, n):
    """Image of a fine sign vector under a coordinate permutation.

    perm maps old index -> new index (1-based); the wall S of the permuted
    point reads off the original wall perm^-1(S).
    """
    wall_list = ws.walls(0, n, ws.Granularity.FINE)
    subsets = [w.subset for w in wall_list]
    index_of = {s: i for i, s in enumerate(subsets)}
    inverse = {perm[i]: i + 1 for i in range(n)}
    out = []
    for s in subsets:
        pre = frozenset(inverse[j] for j in s)
        out.append(vec.positions[index_of[pre]])
    return tuple(out)


def fraction_is_stable(tree, weights, mode=Mode.STRICT):
    """Slow stability oracle: per-vertex Fraction sums and valences, the
    definition read literally.  Same report as `is_stable`."""
    if isinstance(weights, ws.WeightData):
        ws.validate(weights.genus, weights.weights, mode)
        if tree.arithmetic_genus != weights.genus:
            raise ws.DomainError("tree and weight data differ in genus")
        wmap = weights.weight_map()
    else:
        wmap = {int(k): Fraction(v) for k, v in weights.items()}
    if tree.markings != frozenset(wmap):
        raise ws.DomainError("tree markings do not match the weight indices")
    class_bad, node_bad, degree_bad = [], [], []
    for v in tree.vertices:
        for c in v.classes:
            members = tuple(sorted(c.markings))
            if sum((wmap[m] for m in c.markings), Fraction(0)) > 1:
                class_bad.append((v.id, members))
            if c.node_supported and any(wmap[m] > 0 for m in c.markings):
                node_bad.append((v.id, members))
        degree = fraction_log_degree(tree, v.id, wmap)
        if degree <= 0:
            degree_bad.append((v.id, degree))
    return ws.StabilityReport(
        stable=not (class_bad or node_bad or degree_bad),
        class_violations=tuple(class_bad),
        degree_violations=tuple(degree_bad),
        node_support_violations=tuple(node_bad))


def fraction_log_degree(tree, vid, wmap):
    v = tree.vertex(vid)
    valence = sum((a == vid) + (b == vid) for a, b in tree.edges)
    marked = sum((wmap[m] for c in v.classes for m in c.markings), Fraction(0))
    return Fraction(2 * v.genus - 2 + valence) + marked


def unpruned_degenerations(tree, data):
    """Every one-step degeneration, stable or not: merges of two classes
    within the class bound, then splits of one vertex into two."""
    for v in tree.vertices:
        for i, j in combinations(range(len(v.classes)), 2):
            merged = v.classes[i].markings | v.classes[j].markings
            if fraction_sum(data.weights, merged) > 1:
                continue
            classes = [c for k, c in enumerate(v.classes) if k not in (i, j)]
            classes.append(MarkClass(frozenset(merged), False))
            yield ws.marked_tree(
                [(u.id, u.genus, classes if u.id == v.id else list(u.classes))
                 for u in tree.vertices], tree.edges)
    new_id = max(tree.vertex_ids) + 1
    for v in tree.vertices:
        incident = [i for i, (x, y) in enumerate(tree.edges)
                    if v.id in (x, y)]
        parts = [("class", k) for k in range(len(v.classes))]
        parts += [("edge", i) for i in incident]
        for mask in range(1, 1 << max(len(parts) - 1, 0)):
            side2 = {parts[k + 1] for k in range(len(parts) - 1)
                     if mask >> k & 1}
            classes1 = [c for k, c in enumerate(v.classes)
                        if ("class", k) not in side2]
            classes2 = [c for k, c in enumerate(v.classes)
                        if ("class", k) in side2]
            edges = [(new_id, y if x == v.id else x)
                     if ("edge", i) in side2 else (x, y)
                     for i, (x, y) in enumerate(tree.edges)]
            edges.append((v.id, new_id))
            vertices = [(u.id, u.genus,
                         classes1 if u.id == v.id else list(u.classes))
                        for u in tree.vertices]
            vertices.append((new_id, 0, classes2))
            yield ws.marked_tree(vertices, edges)


def unpruned_strata(data, max_codim):
    """Breadth-first stratum enumeration that builds every degeneration
    and keeps those the Fraction oracle calls stable."""
    root = ws.marked_tree([(1, 0, [[m] for m in range(1, data.n + 1)])], [])
    strata = [Stratum(root, 0)]
    level = {ws.canonical_key(root): root}
    for codim in range(1, max_codim + 1):
        nxt = {}
        for tree in level.values():
            for candidate in unpruned_degenerations(tree, data):
                key = ws.canonical_key(candidate)
                if fraction_is_stable(candidate, data) and key not in nxt:
                    nxt[key] = ws.canonical_form(candidate)
        level = nxt
        strata.extend(Stratum(t, codim) for _, t in sorted(level.items()))
        if not level:
            break
    return tuple(strata)


def marked_tree_of_key(key, shared):
    """The stratum tree builder that goes through `marked_tree`: every class
    renormalized and re-sorted, every id, genus and edge end checked.  Same
    contract as `curves._tree_of_key`."""
    vertices, edges = [], []

    def build(node):
        nid = len(vertices) + 1
        genus, classes, kids = node
        for c in classes:
            if c not in shared:
                shared[c] = MarkClass(frozenset(c[0]), c[1])
        vertices.append((nid, genus, [shared[c] for c in classes]))
        for kid in kids:
            edges.append((nid, build(kid)))
        return nid

    build(key)
    return ws.marked_tree(vertices, edges)


def tuple_stratum_keys(nums, den, max_codim):
    """The tuple-based stratum key generator: blocks as marking tuples from
    `combinations`, a per-block `sum`, and sub-partitions regenerated each
    time they are met.  Same contract as `curves._stratum_keys`."""
    memo = {}

    def forests(rest, budget, lead):
        if not rest:
            yield 0, (), (), 0
            return
        first, others = rest[0], rest[1:]
        for size in range(len(others) + 1):
            for extra in combinations(others, size):
                block = (first,) + extra
                left = tuple(m for m in others if m not in extra)
                weight = sum(nums[m] for m in block)
                options = [(size, ((block, False),), (), weight)] \
                    if weight <= den and size <= budget else []
                if lead == 2 or lead == 1 and left:
                    options += [(cost, (), (key,), 0)
                                for cost, key in subtrees(block, budget)]
                for cost, classes, kids, w in options:
                    for more in forests(left, budget - cost, 2):
                        yield (cost + more[0], classes + more[1],
                               kids + more[2], w + more[3])

    def vertices(block, budget, hanging):
        return [(cost + hanging, (0, classes, tuple(sorted(kids))))
                for cost, classes, kids, weight in forests(block, budget, hanging)
                if (len(kids) + hanging - 2) * den + weight > 0]

    def subtrees(block, budget):
        if budget >= 1 and (block, budget) not in memo:
            memo[block, budget] = vertices(block, budget - 1, 1)
        return memo.get((block, budget), ())

    return sorted(vertices(tuple(sorted(nums)), max_codim, 0))


def fraction_prune(rows):
    """Fourier-Motzkin pruning with Fraction bounds: each row divided by
    the gcd of its coefficients only, parallel rows compared as Fractions."""
    from math import gcd
    kept = {}
    for coeffs, bound, strict in rows:
        if not any(coeffs):
            if bound < 0 or (strict and bound == 0):
                return None
            continue
        scale = gcd(*coeffs)
        key = tuple(c // scale for c in coeffs)
        nb = Fraction(bound, scale)
        prev = kept.get(key)
        if prev is None or nb < prev[0] or (nb == prev[0] and strict
                                            and not prev[1]):
            kept[key] = (nb, strict)
    return [(key, b, s) for key, (b, s) in kept.items()]


def fraction_eliminate(rows, var):
    uppers = [r for r in rows if r[0][var] > 0]
    lowers = [r for r in rows if r[0][var] < 0]
    out = [r for r in rows if r[0][var] == 0]
    for uc, ub, us in uppers:
        for lc, lb, ls in lowers:
            mu, ml = -lc[var], uc[var]
            out.append((tuple(mu * u + ml * lv for u, lv in zip(uc, lc)),
                        mu * ub + ml * lb, us or ls))
    return out


def fraction_pick_value(var, rows, values):
    """Midpoint of x_var's interval, every limit a Fraction."""
    lower = upper = None
    for coeffs, bound, strict in rows:
        cv = coeffs[var]
        if cv == 0:
            continue
        acc = Fraction(bound)
        for i, c in enumerate(coeffs):
            if i != var and c != 0:
                acc -= c * values[i]
        limit = acc / cv
        if cv > 0:
            if upper is None or limit < upper[0] or (limit == upper[0]
                                                     and strict):
                upper = (limit, strict)
        elif lower is None or limit > lower[0] or (limit == lower[0]
                                                   and strict):
            lower = (limit, strict)
    if lower is None and upper is None:
        return Fraction(0)
    if lower is None:
        return upper[0] - 1
    if upper is None:
        return lower[0] + 1
    if lower[0] < upper[0]:
        return (lower[0] + upper[0]) / 2
    assert lower[0] == upper[0] and not lower[1] and not upper[1]
    return lower[0]


def fraction_solve(dimension, rows, want_point):
    """Reference Fourier-Motzkin solver on integer rows (coeffs, bound,
    strict) with Fraction bounds and limits: (feasible, point or None).
    Same elimination order (x_0 first) and midpoint rule as the stages
    of `ratcore._extend` and `ratcore._scaled_point`."""
    stages = []
    rows = fraction_prune(rows)
    for v in range(dimension):
        if rows is None:
            return False, None
        stages.append((v, rows))
        rows = fraction_prune(fraction_eliminate(rows, v))
    if rows is None:
        return False, None
    if not want_point:
        return True, None
    values = [None] * dimension
    for v, staged in reversed(stages):
        values[v] = fraction_pick_value(v, staged, values)
    return True, tuple(values)


def reference_extend(stages, rows):
    """`ratcore._extend` as it stood before its per-row steps were cut:
    `stages` with `rows` added, or None when a variable-free row is
    violated.  A stage is (var, kept), each row of kept stored as (coeffs,
    bound, scale) with coeffs == scale * its direction and divided by the
    gcd of its entries."""
    from math import gcd
    extended = []
    for var, kept in stages:
        fresh = {}
        down = []
        for row in rows:
            coeffs, bound = row
            if not coeffs[var]:
                if any(coeffs):
                    down.append(row)
                elif bound <= 0:
                    return None
                continue
            scale = gcd(*coeffs)
            common = gcd(scale, bound)
            if common > 1:
                coeffs = tuple([c // common for c in coeffs])
                bound //= common
                scale //= common
            key = coeffs if scale == 1 else tuple([c // scale for c in coeffs])
            prev = kept.get(key)
            if prev is not None and bound * prev[2] >= prev[1] * scale:
                continue
            if not fresh:  # the first change here copies the stage
                kept = dict(kept)
            kept[key] = fresh[key] = (coeffs, bound, scale)
        if fresh:
            lowers = [r for r in kept.values() if r[0][var] < 0]
            uppers = [r for key, r in kept.items()
                      if r[0][var] > 0 and key not in fresh]
            for row in fresh.values():
                # a new upper meets every lower, a new lower the old uppers
                pairs = ((row, low) for low in lowers) if row[0][var] > 0 \
                    else ((up, row) for up in uppers)
                for (uc, ub, _), (lc, lb, _) in pairs:
                    mu, ml = -lc[var], uc[var]
                    down.append((tuple([mu * u + ml * lv
                                        for u, lv in zip(uc, lc)]),
                                 mu * ub + ml * lb))
        extended.append((var, kept))
        rows = down
    for _, bound in rows:
        if bound <= 0:
            return None
    return tuple(extended)


def reference_pick(var, rows, nums, den):
    """`ratcore._pick` as it stood before its limits became int pairs:
    the midpoint (p, q) of x_var's open interval, each limit a tuple."""
    from operator import mul
    upper = lower = None
    for coeffs, bound, _ in rows:
        a, c = bound * den - sum(map(mul, coeffs, nums)), coeffs[var]
        prev = upper if c > 0 else lower
        if prev is not None and prev[0] * c <= a * prev[1]:
            continue
        if c > 0:
            upper = (a, c)
        else:
            lower = (-a, -c)
    if upper is None or lower is None or \
            upper[0] * lower[1] <= lower[0] * upper[1]:
        raise InternalInvariantError(
            f"empty interval or a missing limit for x_{var} during "
            "back-substitution")
    (u, cu), (low, cl) = upper, lower
    return low * cu + u * cl, 2 * cl * cu * den


def reference_scaled_point(stages, dimension):
    """`ratcore._scaled_point` as it stood, on `reference_pick`."""
    from math import gcd
    nums, den = [0] * dimension, 1
    for var, kept in reversed(stages):
        p, q = reference_pick(var, kept.values(), nums, den)
        common = gcd(p, q)
        p, q = p // common, q // common
        if den % q:
            scale = q // gcd(den, q)
            nums = [x * scale for x in nums]
            den *= scale
        nums[var] = p * (den // q)
    return nums, den


def unpruned_chambers(genus, n, granularity):
    """(sign codes, representative) of every open chamber: a depth-first
    search that adds a row for every wall and solves every branch with the
    Fraction solver, in `enumerate_chambers` order (ABOVE first)."""
    rows = [(tuple(-(i == j) for i in range(n)), 0, True) for j in range(n)]
    rows += [(tuple(int(i == j) for i in range(n)), 1, False)
             for j in range(n)]
    rows.append(((-1,) * n, 2 * genus - 2, True))
    wall_list = ws.walls(genus, n, granularity)
    signs, found = [], []

    def descend(index):
        feasible, point = fraction_solve(n, rows, True)
        if not feasible:
            return
        if index == len(wall_list):
            found.append(("".join(signs), point))
            return
        subset = wall_list[index].subset
        for code, side in (("A", -1), ("B", 1)):
            # ABOVE: -sum_S a < -1; BELOW: sum_S a < 1
            rows.append((tuple(side if i + 1 in subset else 0
                               for i in range(n)), side, True))
            signs.append(code)
            descend(index + 1)
            signs.pop()
            rows.pop()

    descend(0)
    return found


def fraction_validate(genus, weights, mode=Mode.STRICT):
    """`weights.validate` on Fraction values throughout: each entry parsed
    by name, each range and the degree compared as Fractions."""
    if not isinstance(genus, int) or isinstance(genus, bool) or genus < 0:
        raise ws.DomainError(
            f"genus must be a nonnegative integer, got {genus!r}")
    if not isinstance(weights, (list, tuple)):
        raise ws.DomainError(f"a must be a list of rationals, got {weights!r}")
    ws_ = tuple(rational(v, f"a_{i}") for i, v in enumerate(weights, start=1))
    if not ws_:
        raise ws.DomainError("at least one weight is required")
    if mode == Mode.BOUNDARY and genus != 0:
        raise ws.DomainError("BOUNDARY mode is defined for genus 0 only")
    zero, one = Fraction(0), Fraction(1)
    for i, w in enumerate(ws_, start=1):
        if mode == Mode.STRICT and not (zero < w <= one):
            raise WeightOutOfRange(i, w, f"need 0 < a_{i} <= 1, got {w}")
        if mode == Mode.ZERO_ALLOWED and not (zero <= w <= one):
            raise WeightOutOfRange(i, w, f"need 0 <= a_{i} <= 1, got {w}")
        if mode == Mode.BOUNDARY and not (zero < w < one):
            raise WeightOutOfRange(i, w, f"need 0 < a_{i} < 1, got {w}")
    total = sum(ws_, zero)
    if mode == Mode.BOUNDARY:
        if total != 2:
            raise BoundarySumMismatch(f"weights must sum to 2, got {total}")
    elif 2 * genus - 2 + total <= 0:
        raise DegreeNotPositive(f"2g-2+sum(a) = {2 * genus - 2 + total} <= 0")
    return ws_


def fraction_sum(weights, subset):
    """sum_{j in S} weights_j as a Fraction, weights indexed from 1."""
    return sum((weights[i - 1] for i in subset), Fraction(0))


def fraction_locate(data, granularity):
    """Slow `locate`: one Fraction subset sum per wall, compared with 1."""
    positions = []
    for wall in ws.walls(data.genus, data.n, granularity):
        total = fraction_sum(data.weights, wall.subset)
        if total > 1:
            positions.append(ws.Position.ABOVE)
        elif total < 1:
            positions.append(ws.Position.BELOW)
        else:
            positions.append(ws.Position.ON)
    return tuple(positions)


def fraction_perturb_eps(data):
    """eps of `perturb_to_fine_chamber`: half the smallest strict slack."""
    slacks = [sum(data.weights) - (2 - 2 * data.genus), min(data.weights)]
    for wall in ws.walls(data.genus, data.n, ws.Granularity.FINE):
        total = fraction_sum(data.weights, wall.subset)
        if total != 1:
            slacks.append(abs(total - 1))
    return min(slacks) / 2


def fraction_ucurve_eps(data):
    """eps of `universal_curve_weight`, or None on a fine wall."""
    gaps = [abs(fraction_sum(data.weights, w.subset) - 1)
            for w in ws.walls(data.genus, data.n, ws.Granularity.FINE)]
    if 0 in gaps:
        return None
    return min(gaps) / 2 if gaps else Fraction(1, 2)


def fraction_git_stability(classes, t):
    worst = max(fraction_sum(t, c) for c in classes)
    if worst < 1:
        return ws.GitVerdict.STABLE
    if worst > 1:
        return ws.GitVerdict.UNSTABLE
    return ws.GitVerdict.STRICTLY_SEMISTABLE


def fraction_unit_subsets(t):
    """Nonempty proper subsets of 1..n with Fraction sum exactly 1."""
    n = len(t)
    return [frozenset(s) for size in range(1, n)
            for s in combinations(range(1, n + 1), size)
            if fraction_sum(t, s) == 1]


def fraction_tau_fine_weights(t):
    """Weights of `tau_fine_preimage`, or None for an atypical t: scale by
    (1 + 1/M)/2, M the largest subset sum below 1."""
    if fraction_unit_subsets(t):
        return None
    n = len(t)
    biggest = max(fraction_sum(t, s) for size in range(1, n + 1)
                  for s in combinations(range(1, n + 1), size)
                  if fraction_sum(t, s) < 1)
    scale = (1 + 1 / biggest) / 2
    return tuple(scale * v for v in t)


def fraction_matches_quotient(a, t):
    """(matches, mismatched, ambiguous) of `chamber_matches_quotient`."""
    mismatched, ambiguous = [], []
    for size in range(2, len(a) + 1):
        for subset in combinations(range(1, len(a) + 1), size):
            a_sum = fraction_sum(a, subset)
            if a_sum == 1:
                ambiguous.append(frozenset(subset))
            if (a_sum <= 1) != (fraction_sum(t, subset) < 1):
                mismatched.append(frozenset(subset))
    return not mismatched, tuple(mismatched), tuple(ambiguous)


def fraction_matches_x(a, k):
    n = len(a)
    if any(a[i] + a[n - 1] <= 1 for i in range(n - 1)):
        return False
    for size in range(1, n):
        for subset in combinations(range(1, n), size):
            total = fraction_sum(a, subset)
            if size <= n - k - 2:
                if total > 1:
                    return False
            elif total <= 1:
                return False
    return True


def fraction_matches_y(a, k):
    n = len(a)
    for i, j in combinations((1, 2, 3), 2):
        if a[i - 1] + a[j - 1] <= 1:
            return False
    tail = range(4, n + 1)
    if k <= n - 4:
        for i in (1, 2, 3):
            for size in range(1, n - 2):
                for subset in combinations(tail, size):
                    total = a[i - 1] + fraction_sum(a, subset)
                    if size <= n - 3 - k:
                        if total > 1:
                            return False
                    elif total <= 1:
                        return False
        return True
    kk = k - (n - 4)
    for size in range(1, n - 2):
        for subset in combinations(tail, size):
            total = fraction_sum(a, subset)
            if size <= n - 3 - kk:
                if total > 1:
                    return False
            elif total <= 1:
                return False
    return True


def fraction_matches_losev_manin(a):
    n = len(a)
    if any(a[0] + a[i - 1] <= 1 for i in range(2, n + 1)):
        return False
    if any(a[1] + a[i - 1] <= 1 for i in range(3, n + 1)):
        return False
    return all(fraction_sum(a, subset) <= 1
               for size in range(1, n - 1)
               for subset in combinations(range(3, n + 1), size))


def fraction_divisor_fate(divisor, b):
    """(status, collapsed side) of a boundary divisor under the reduction
    to the weights b: a nodal side whose sum drops to 1 or below collapses,
    to a coincidence when it is a pair."""
    low = [side for side in (divisor.members, divisor.complement)
           if divisor.kind == ws.DivisorKind.NODAL
           and fraction_sum(b, side) <= 1]
    if not low:
        return ws.DivisorStatus.PRESERVED, None
    (side,) = low
    status = (ws.DivisorStatus.BECOMES_COINCIDENCE if len(side) == 2
              else ws.DivisorStatus.CONTRACTED)
    return status, side


def fraction_is_reduction_iso(a, b):
    """True iff every subset crossing the sum-1 threshold has size 2."""
    n = len(a)
    return not any(fraction_sum(a, s) > 1 and fraction_sum(b, s) <= 1
                   for size in range(3, n + 1)
                   for s in combinations(range(1, n + 1), size))


def fraction_is_blowup_profile(a, members):
    members = sorted(set(members))
    if fraction_sum(a, members) <= 1:
        return False
    return all(fraction_sum(a, sub) <= 1
               for sub in combinations(members, len(members) - 1))


# Hand edits of the fine (0, 4) chamber cache payload, whose first chamber
# is ["3/4", "3/4", "3/4", "1/2"] with signs "AAAAAA"; a cache read must
# reject each one and recompute
CACHE_TAMPERS = ("weight 2", "zero weight", "degree zero", "on a wall",
                 "other signs", "short signs", "padded weight",
                 "unreduced weight", "integer weight", "zero denominator",
                 "string representative", "duplicate", "header", "list",
                 "null", "entry x", "reordered", "extra key")


# The contraction loop `curves._contract` replaced, kept verbatim as the
# reference: a mutable graph whose node-supported classes remember the edge
# they sit at.
class _Graph:
    """Mutable scratch copy used by the contraction loop.

    Edges carry identity keys and node-supported classes remember which
    edge (node of the curve) they sit at, so that squeezing out a chain of
    weight-zero components merges everything landing on the resulting
    single node into one class, independent of contraction order.  Classes
    from the input tree carry no edge association (the serialized format
    has none) and are treated as sitting at a surviving node.
    """

    def __init__(self, tree: MarkedTree):
        self.genus = {v.id: v.genus for v in tree.vertices}
        # class records: (markings, node_supported, edge_key or None)
        self.classes = {v.id: [(set(c.markings), c.node_supported, None)
                               for c in v.classes] for v in tree.vertices}
        self.edges = {i: tuple(e) for i, e in enumerate(tree.edges)}
        self._next_edge = len(tree.edges)

    def degrees(self, nums, den) -> dict[int, int]:
        """den times the log degree of every vertex (the integer kernel)."""
        valence = _valences(self.genus, self.edges.values())
        return {vid: _log_degree(genus, valence[vid],
                                 sum(nums[m] for cls, _, _ in self.classes[vid]
                                     for m in cls), den)
                for vid, genus in self.genus.items()}

    def add_edge(self, a: int, b: int) -> int:
        key = self._next_edge
        self._next_edge += 1
        self.edges[key] = (a, b)
        return key

    def pop_node_classes_at(self, vid: int, edge_keys) -> set:
        """Remove and return the markings of vid's node-supported classes
        sitting at one of the given edges."""
        taken: set = set()
        remaining = []
        for cls, ns, key in self.classes[vid]:
            if ns and key is not None and key in edge_keys:
                taken.update(cls)
            else:
                remaining.append((cls, ns, key))
        self.classes[vid] = remaining
        return taken

    def freeze(self) -> MarkedTree:
        vertices = [(vid, self.genus[vid],
                     [MarkClass(frozenset(c), ns) for c, ns, _ in classes])
                    for vid, classes in self.classes.items()]
        return marked_tree(vertices, list(self.edges.values()))


def _contract_vertex(graph: _Graph, vid: int, nums):
    valence = _valences(graph.genus, graph.edges.values())[vid]
    incident = [k for k, (a, b) in graph.edges.items() if vid in (a, b)]
    moved = set()
    for cls, _, _ in graph.classes[vid]:
        moved.update(cls)
    if valence == 1:
        # type I: the component is deleted; its markings, together with
        # any markings sitting at the attachment node, land at what is now
        # a smooth point of the neighbor.
        a, b = graph.edges[incident[0]]
        target = b if a == vid else a
        del graph.edges[incident[0]]
        moved |= graph.pop_node_classes_at(target, set(incident))
        if moved:
            graph.classes[target].append((moved, False, None))
    elif valence == 2 and len(incident) == 2:
        # type II: squeeze the component out; its two nodes become one,
        # collecting the component's markings (all weight zero here) and
        # whatever already sat on either disappearing node.
        if graph.genus[vid] != 0:
            raise InternalInvariantError("contracting a positive-genus vertex")
        if any(nums[m] > 0 for m in moved):
            raise InternalInvariantError(
                "type II contraction moving positive weight")
        ends = []
        for k in incident:
            a, b = graph.edges[k]
            ends.append(b if a == vid else a)
        target = min(ends)
        other = ends[0] if target == ends[1] else ends[1]
        for end in set(ends):
            moved |= graph.pop_node_classes_at(end, set(incident))
        for k in incident:
            del graph.edges[k]
        new_key = graph.add_edge(*sorted((target, other)))
        if moved:
            graph.classes[target].append((moved, True, new_key))
    else:
        raise InternalInvariantError(
            f"vertex {vid} has valence {valence} and nonpositive degree")
    del graph.classes[vid]
    del graph.genus[vid]


def _contract_until_stable(graph: _Graph, nums, den) -> None:
    rounds = len(graph.genus) + 1
    for _ in range(rounds):
        bad = [v for v, d in graph.degrees(nums, den).items() if d <= 0]
        if not bad:
            return
        _contract_vertex(graph, min(bad), nums)
    raise NonterminatingContraction("contraction loop failed to terminate")


def graph_contract(tree, nums, den):
    """Same contract as `curves._contract`, on the `_Graph` loop above."""
    graph = _Graph(tree)
    kept = set(nums)
    for vid, classes in graph.classes.items():
        graph.classes[vid] = [(cls & kept, ns, key)
                              for cls, ns, key in classes if cls & kept]
    _contract_until_stable(graph, nums, den)
    result = graph.freeze()
    if not _stability(result, nums, den):
        raise InternalInvariantError("contraction did not reach stability")
    return result


def random_nodal_curve(rng, n, attempts=500):
    """(tree, weights): a random tree stable for zero-allowed weights, with
    up to four vertices of random ids and genus 0 or 1, self-loops and
    repeated edges, and node-supported classes of weight-zero markings."""
    for _ in range(attempts):
        ids = rng.sample(range(1, 10), rng.randint(1, 4))
        edges = [(rng.choice(ids[:i]), ids[i]) for i in range(1, len(ids))]
        for _ in range(rng.choice((0, 0, 0, 1, 2))):
            if edges and rng.random() < 0.5:
                edges.append(rng.choice(edges))
            else:
                vid = rng.choice(ids)
                edges.append((vid, vid))
        weights = [rng.choice((0, 1, 1, 1)) * rand_weight(rng, 4)
                   for _ in range(n)]
        classes = {vid: [] for vid in ids}
        for m in range(1, n + 1):
            vid = rng.choice(ids)
            if classes[vid] and rng.random() < 0.3:
                rng.choice(classes[vid]).append(m)
            else:
                classes[vid].append([m])
        vertices = [(vid, rng.choice((0, 0, 0, 1)),
                     [ws.mark_class(c, not any(weights[m - 1] for m in c)
                                    and rng.random() < 0.3)
                      for c in classes[vid]]) for vid in ids]
        tree = ws.marked_tree(vertices, edges)
        genus = tree.arithmetic_genus
        if 2 * genus - 2 + sum(weights) <= 0:
            continue
        data = ws.validate(genus, weights, Mode.ZERO_ALLOWED)
        if ws.is_stable(tree, data, Mode.ZERO_ALLOWED):
            return tree, data
    raise AssertionError("could not sample a stable nodal curve")


def tamper_chamber_cache(payload, kind):
    """The payload after the edit `kind` (one of CACHE_TAMPERS)."""
    chambers = payload["chambers"]
    first = chambers[0]
    by_signs = {entry["signs"]: entry for entry in chambers}
    if kind == "weight 2":
        first["representative"][0] = "2"
    elif kind == "zero weight":  # this and the next keep the stored signs
        by_signs["AABABB"]["representative"] = ["3/4", "3/4", "3/4", "0"]
    elif kind == "degree zero":  # 2g - 2 + sum = 0
        by_signs["AAABBB"]["representative"] = ["7/8", "5/8", "1/4", "1/4"]
    elif kind == "on a wall":  # the signs are the representative's own
        first["representative"] = ["1/2", "1/2", "3/4", "3/4"]
        first["signs"] = "OAAAAA"
    elif kind == "other signs":  # swapped, so they stay distinct
        first["signs"], chambers[1]["signs"] = \
            chambers[1]["signs"], first["signs"]
    elif kind == "short signs":
        first["signs"] = first["signs"][:-1]
    elif kind == "padded weight":
        first["representative"][3] = " 1/2"
    elif kind == "unreduced weight":
        first["representative"][3] = "2/4"
    elif kind == "integer weight":  # 1 keeps the signs "AAAAAA"
        first["representative"][0] = 1
    elif kind == "zero denominator":
        first["representative"][3] = "1/0"
    elif kind == "string representative":  # four canonical "1" characters
        first["representative"] = "1111"
    elif kind == "duplicate":
        chambers.append(dict(first))
        payload["count"] += 1
    elif kind == "header":
        payload["granularity"] = "coarse"
    elif kind == "list":
        return []
    elif kind == "null":
        return None
    elif kind == "entry x":
        chambers[0] = "x"
    elif kind == "reordered":  # each entry as written, out of sign order
        chambers[0], chambers[1] = chambers[1], first
    elif kind == "extra key":  # a top-level key the writer never writes
        payload["note"] = "hand edit"
    else:
        raise ValueError(kind)
    return payload


def refuse_cache_read(monkeypatch, path, error):
    """Make `weights` raise `error` on opening the cache entry `path` to
    read it, as for an entry without read permission or one removed
    between two steps; its writes still go through."""
    from weightscape import weights

    def guarded_open(file, mode="r", *args, **kwargs):
        if str(file) == str(path) and "r" in mode:
            raise error(f"cannot open {file}")
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(weights, "open", guarded_open, raising=False)


@pytest.fixture
def rng():
    return random.Random(20240811)

"""Independent brute-force oracles for the benchmark's output checks.

Nothing here calls into `weightscape`: every expected value is recomputed
from the definitions by scanning subsets as bitmasks over exact
`Fraction` weights.  Markings are 1-based, bit i-1 stands for marking i.
"""

from fractions import Fraction
from itertools import combinations

ONE = Fraction(1)

# OEIS A000311(n-1): stable genus-0 trees with n unit-weight markings.
UNIT_STRATA_COUNTS = {6: 236}

# Open fine chambers per (genus, n).
FINE_CHAMBER_COUNTS = {(0, 4): 27, (1, 4): 46}


def subset_sums(weights):
    """sums[mask] = sum of the weights of the markings in mask."""
    sums = [Fraction(0)] * (1 << len(weights))
    for mask in range(1, len(sums)):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + weights[low.bit_length() - 1]
    return sums


def mask_of(markings):
    mask = 0
    for m in markings:
        mask |= 1 << (m - 1)
    return mask


def members(mask):
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def fine_wall_masks(n):
    """Every subset with 2 <= |S| <= n-2, ordered by size then
    lexicographically: for genus <= 2 and n <= 9 each of them meets the
    weight domain, so this is the fine wall list."""
    return [mask_of(s) for size in range(2, n - 1)
            for s in combinations(range(1, n + 1), size)]


def sign_codes(weights):
    sums = subset_sums(weights)
    return "".join("A" if sums[m] > ONE else "B" if sums[m] < ONE else "O"
                   for m in fine_wall_masks(len(weights)))


def in_domain(genus, weights):
    return (all(0 < w <= ONE for w in weights)
            and 2 * genus - 2 + sum(weights) > 0)


def chamber_signature(weights):
    """Position of every subset sum against 1: identical signatures give
    identical stable-tree combinatorics."""
    return tuple((s > ONE) - (s < ONE) for s in subset_sums(weights)[1:])


def has_unit_subset(weights, sizes):
    sums = subset_sums(weights)
    return any(sums[m] == ONE for m in range(1, len(sums))
               if bin(m).count("1") in sizes)


# -- weights -----------------------------------------------------------

def perturbed(weights):
    """Shift down by eps/n, eps = half the smallest strict slack."""
    n = len(weights)
    sums = subset_sums(weights)
    slacks = [sum(weights) - 2, min(weights)]
    slacks += [abs(sums[m] - ONE) for m in fine_wall_masks(n)
               if sums[m] != ONE]
    step = min(slacks) / 2 / n
    return tuple(w - step for w in weights)


def universal_curve(weights):
    sums = subset_sums(weights)
    gaps = [abs(sums[m] - ONE) for m in fine_wall_masks(len(weights))]
    return tuple(weights) + (min(gaps) / 2,)


# -- boundary divisors and reductions -----------------------------------

def boundary(weights):
    """(kind, members, complement) in the program's documented order:
    kind, then size, then members."""
    n = len(weights)
    sums = subset_sums(weights)
    full = (1 << n) - 1
    out = []
    for mask in range(1, full):
        if mask & 1 and sums[mask] > ONE and sums[full ^ mask] > ONE:
            out.append(("nodal", members(mask), members(full ^ mask)))
    for i in range(n):
        for j in range(i + 1, n):
            if weights[i] + weights[j] <= ONE:
                out.append(("coincidence", (i + 1, j + 1), None))
    out.sort(key=lambda d: (d[0], len(d[1]), d[1]))
    return out


def reduction(a, b):
    """Fate of every boundary divisor of a under the reduction to b, and
    whether the reduction is an isomorphism."""
    sums_b = subset_sums(b)
    fates = []
    for kind, side1, side2 in boundary(a):
        if kind == "coincidence":
            fates.append((kind, side1, "preserved", None, None))
            continue
        s1, s2 = sums_b[mask_of(side1)], sums_b[mask_of(side2)]
        if s1 > ONE and s2 > ONE:
            fates.append((kind, side1, "preserved", None, None))
            continue
        side, other = (side1, side2) if s1 <= ONE else (side2, side1)
        if len(side) == 2:
            fates.append((kind, side1, "becomes_coincidence", side, None))
        else:
            factor = tuple(b[j - 1] for j in other) + (sums_b[mask_of(side)],)
            fates.append((kind, side1, "contracted", side, factor))
    sums_a = subset_sums(a)
    iso = not any(sums_a[m] > ONE and sums_b[m] <= ONE
                  for m in range(len(sums_a)) if bin(m).count("1") >= 3)
    return fates, iso


# -- named regions -------------------------------------------------------

def _threshold(sums, masks, cut, offset=Fraction(0)):
    """sum + offset <= 1 exactly for the masks of size <= cut."""
    return all((sums[m] + offset <= ONE) == (bin(m).count("1") <= cut)
               for m in masks)


def named_regions(weights):
    """Tags of the X, Y and Losev-Manin inequality systems the weights
    satisfy, in the order X(k) by k, Y(k) by k, LM."""
    n = len(weights)
    sums = subset_sums(weights)
    a = weights
    hits = []
    head = range(1, 1 << (n - 1))                          # subsets of 1..n-1
    if n >= 4 and all(a[i] + a[n - 1] > ONE for i in range(n - 1)):
        for k in range(n - 3):
            if _threshold(sums, head, n - k - 2):
                hits.append(f"X({k})")
    tail = [m << 3 for m in range(1, 1 << (n - 3))]      # subsets of 4..n
    if n >= 5 and all(a[i] + a[j] > ONE for i, j in ((0, 1), (0, 2), (1, 2))):
        for k in range(2 * n - 8):
            if k <= n - 4:
                ok = all(_threshold(sums, tail, n - 3 - k, a[i])
                         for i in range(3))
            else:
                ok = _threshold(sums, tail, n - 3 - (k - (n - 4)))
            if ok:
                hits.append(f"Y({k})")
    rest = [m << 2 for m in range(1, 1 << (n - 2))]      # subsets of 3..n
    if (all(a[0] + a[i] > ONE for i in range(1, n))
            and all(a[1] + a[i] > ONE for i in range(2, n))
            and all(sums[m] <= ONE for m in rest)):
        hits.append("LM")
    return hits


# -- GIT on the line -----------------------------------------------------

def unit_subsets(t):
    sums = subset_sums(t)
    return [m for m in range(1, len(sums) - 1) if sums[m] == ONE]


def semistable_types(t):
    full = (1 << len(t)) - 1
    reps = {m if m & 1 else full ^ m for m in unit_subsets(t)}
    return sorted((members(m) for m in reps), key=lambda s: (len(s), s))


def fine_preimage_and_match(t):
    """Canonical tau-preimage of a typical linearization and its
    comparison with the quotient: (weights, mismatched, ambiguous)."""
    sums_t = subset_sums(t)
    biggest = max(s for s in sums_t[1:] if s < ONE)
    scale = (1 + 1 / biggest) / 2
    pre = tuple(scale * x for x in t)
    sums_a = subset_sums(pre)
    n = len(t)
    mismatched, ambiguous = [], []
    for size in range(2, n + 1):
        for s in combinations(range(1, n + 1), size):
            m = mask_of(s)
            if sums_a[m] == ONE:
                ambiguous.append(s)
            if (sums_a[m] <= ONE) != (sums_t[m] < ONE):
                mismatched.append(s)
    return pre, mismatched, ambiguous


# -- genus-0 dual trees --------------------------------------------------
#
# A tree is held as (classes, edges): classes maps a vertex id to a list of
# (frozenset of markings, node_supported) pairs, edges lists id pairs.

def tree_is_stable(classes, edges, wmap):
    """Acyclic, connected, every marking once, every class of weight at
    most 1, node-supported classes weightless, positive log degree."""
    ids = list(classes)
    if len(edges) != len(ids) - 1:
        return False
    adjacency = {v: [] for v in ids}
    for x, y in edges:
        if x == y or x not in adjacency or y not in adjacency:
            return False
        adjacency[x].append(y)
        adjacency[y].append(x)
    seen, stack = {ids[0]}, [ids[0]]
    while stack:
        for u in adjacency[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    if len(seen) != len(ids):
        return False
    marks = [m for v in ids for c, _ in classes[v] for m in c]
    if sorted(marks) != sorted(wmap):
        return False
    for v in ids:
        weight = Fraction(0)
        for c, node_supported in classes[v]:
            total = sum(wmap[m] for m in c)
            if total > ONE or (node_supported and total > 0):
                return False
            weight += total
        if len(adjacency[v]) - 2 + weight <= 0:
            return False
    return True


def tree_invariant(classes, edges):
    """Label-free description of a marked genus-0 tree: the class sets of
    its vertices and the marking split of each edge, rooted at the vertex
    that holds the smallest marking."""
    adjacency = {v: [] for v in classes}
    for x, y in edges:
        adjacency[x].append(y)
        adjacency[y].append(x)
    marks_at = {v: frozenset(m for c, _ in classes[v] for m in c)
                for v in classes}
    lowest = min(m for ms in marks_at.values() for m in ms)
    root = next(v for v, ms in marks_at.items() if lowest in ms)
    splits = []

    def below(v, parent):
        got = set(marks_at[v])
        for u in adjacency[v]:
            if u != parent:
                side = below(u, v)
                splits.append(frozenset(side))
                got |= side
        return got

    below(root, None)
    vertex_sets = frozenset(frozenset(classes[v]) for v in classes)
    return vertex_sets, frozenset(splits)


def contract(classes, edges, wmap):
    """Contract every vertex of nonpositive log degree under wmap, lowest
    id first, for weights that are all positive: a leaf is deleted and its
    markings become one class of its neighbour, an unmarked valence-2
    vertex is squeezed out."""
    classes = {v: list(cs) for v, cs in classes.items()}
    edges = [tuple(e) for e in edges]
    while True:
        def degree(v):
            valence = sum((x == v) + (y == v) for x, y in edges)
            weight = sum(wmap[m] for c, _ in classes[v] for m in c)
            return valence - 2 + weight

        bad = sorted(v for v in classes if degree(v) <= 0)
        if not bad:
            return classes, edges
        v = bad[0]
        incident = [e for e in edges if v in e]
        ends = [y if x == v else x for x, y in incident]
        moved = frozenset(m for c, _ in classes[v] for m in c)
        edges = [e for e in edges if v not in e]
        if len(incident) == 1:
            if moved:
                classes[ends[0]].append((moved, False))
        elif len(incident) == 2 and not moved:
            edges.append(tuple(sorted(ends)))
        else:
            raise ValueError(f"unexpected unstable vertex {v}")
        del classes[v]

"""Dual graphs of weighted pointed nodal curves and their combinatorics.

A MarkedTree records one nodal pointed curve: vertices are irreducible
components (carrying a geometric genus), edges are nodes (self-loops
allowed), and the markings 1..n are partitioned into coincidence classes
attached to vertices.  A class flagged node_supported sits at a node of
its component and is legal only when every member has weight zero.

Stability of a tree against weight data asks that every coincidence class
has weight-sum <= 1 and every vertex has positive log degree
2g_v - 2 + valence + sum of its marking weights.  All tests run on one
integer kernel: numerators over the weights' common denominator den, and
valences from one pass over the edges; a class is bad iff its numerator
sum exceeds den, a vertex iff (2g_v - 2 + valence) * den plus its sum is
<= 0.  Lowering the weights (`stabilize`) and dropping markings (`forget`)
are one contraction loop, `_contract`: each round it contracts the vertex
of lowest id with nonpositive log degree.  A valence-1 vertex is deleted
and its markings, with any at its node, merge into one class at the
attachment point (type I); a valence-2 vertex is squeezed out, its two
nodes become one edge, and its (weight-zero) markings ride on that edge
with any already at either node, ending as one node-supported class of the
edge's lower end (type II).  Marking labels are 1-based and are never
relabeled.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable, Mapping, Optional, Union

from .errors import (DomainError, InternalInvariantError,
                     NonterminatingContraction, NotAStable,
                     ResidualDegreeNotPositive, UnequalWeightsInBlock,
                     WeightsNotDominated)
from .ratcore import rational
from .weights import (Mode, WeightData, _boundary_masks, _check_limit,
                      _field, _integer, _listed, _marks, _masks, _valid,
                      integer_scaled)

WeightsLike = Union[WeightData, Mapping[int, Fraction]]


@dataclass(frozen=True)
class MarkClass:
    markings: frozenset[int]
    node_supported: bool = False

    def __post_init__(self):
        if not self.markings:
            raise DomainError("coincidence classes must be nonempty")

    def sort_key(self):
        return min(self.markings)


@dataclass(frozen=True)
class Vertex:
    id: int
    genus: int = 0
    classes: tuple[MarkClass, ...] = ()


@dataclass(frozen=True)
class MarkedTree:
    """A connected dual graph, well-formed by construction: `_check_tree`
    runs on every new MarkedTree.  `marked_tree` also sorts one."""
    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _check_tree(self)

    def vertex(self, vid: int) -> Vertex:
        for v in self.vertices:
            if v.id == vid:
                return v
        raise DomainError(f"no vertex with id {vid}")

    @property
    def vertex_ids(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.vertices)

    def valence(self, vid: int) -> int:
        return sum((a == vid) + (b == vid) for a, b in self.edges)

    @property
    def markings(self) -> frozenset[int]:
        out: set[int] = set()
        for v in self.vertices:
            for c in v.classes:
                out.update(c.markings)
        return frozenset(out)

    @property
    def betti(self) -> int:
        return len(self.edges) - len(self.vertices) + 1

    @property
    def arithmetic_genus(self) -> int:
        return sum(v.genus for v in self.vertices) + self.betti

    @property
    def codimension(self) -> int:
        return len(self.edges) + sum(
            len(c.markings) - 1 for v in self.vertices for c in v.classes)

    def to_json_dict(self) -> dict:
        return {
            "vertices": [
                {"id": v.id, "genus": v.genus,
                 "classes": [sorted(c.markings) for c in v.classes],
                 "node_supported": [c.node_supported for c in v.classes]}
                for v in self.vertices
            ],
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "MarkedTree":
        """Parse the `to_json_dict` format.  Ids, genera and markings must
        be integers (not bools); `node_supported`, when given, must hold
        one bool per class."""
        vertices = []
        for entry in _listed(_field(payload, "vertices"), "vertices", dict):
            classes = _listed(_field(entry, "classes"), "classes", list)
            flags = _listed(entry.get("node_supported", [False] * len(classes)),
                            "node_supported", bool, len(classes))
            vertices.append((_field(entry, "id"), _field(entry, "genus"),
                             [mark_class(members, flag)
                              for members, flag in zip(classes, flags)]))
        return marked_tree(vertices, [
            _listed(e, "an edge", int, 2)
            for e in _listed(_field(payload, "edges"), "edges", list)])


def mark_class(markings: Iterable[int], node_supported: bool = False) -> MarkClass:
    """A coincidence class; a marking that is no integer is a DomainError."""
    return MarkClass(frozenset(_integer(m, "marking") for m in markings),
                     node_supported)


def marked_tree(vertices, edges=()) -> MarkedTree:
    """Build a MarkedTree in canonical order.

    `vertices` holds (id, genus, classes) triples where each class is a
    MarkClass or an iterable of marking indices; `edges` holds unordered
    id pairs (repeats allowed, self-loops allowed).  Ids, genera and
    edge ends must be integers (not bools).
    """
    built = []
    for vid, genus, classes in vertices:
        normalized = [c if isinstance(c, MarkClass) else mark_class(c)
                      for c in classes]
        normalized.sort(key=MarkClass.sort_key)
        built.append(Vertex(_integer(vid, "vertex id"),
                            _integer(genus, "genus"), tuple(normalized)))
    built.sort(key=lambda v: v.id)
    norm_edges = tuple(sorted(tuple(sorted((_integer(a, "edge end"),
                                            _integer(b, "edge end"))))
                              for a, b in edges))
    return MarkedTree(tuple(built), norm_edges)


def _check_tree(tree: MarkedTree) -> None:
    """The check every MarkedTree passes on construction.  In the order in
    which a failure is reported: some vertex, unique ids, edge ends in the
    tree, integer genera >= 0, disjoint classes, connected.  Connectivity
    grows the set reached from the first vertex in passes over the edges:
    an edge with one end reached adds the other, and the passes stop once
    every vertex is reached or a pass adds none.  The first pass is the one
    that checks the edge ends.  Sorted edges of a tree whose ids are in
    preorder, as `_tree_of_key` builds them, reach every vertex in it."""
    vertices, edges = tree.vertices, tree.edges
    if not vertices:
        raise DomainError("a tree needs at least one vertex")
    ids = {v.id for v in vertices}
    if len(ids) != len(vertices):
        raise DomainError("vertex ids must be unique")
    reached = {vertices[0].id}
    for a, b in edges:
        if a not in ids or b not in ids:
            raise DomainError(f"edge ({a},{b}) references a missing vertex")
        if a in reached:
            reached.add(b)
        elif b in reached:
            reached.add(a)
    seen: set[int] = set()
    marked = 0
    for v in vertices:
        if type(v.genus) is not int:  # the call costs more than the test
            _integer(v.genus, "genus")
        if v.genus < 0:
            raise DomainError("vertex genus must be nonnegative")
        for c in v.classes:
            seen.update(c.markings)
            marked += len(c.markings)
    if len(seen) != marked:
        raise DomainError("marking assigned to more than one class")
    size = 1
    while size < len(reached) < len(ids):  # the last pass grew but missed some
        size = len(reached)
        for a, b in edges:
            if a in reached:
                reached.add(b)
            elif b in reached:
                reached.add(a)
    if len(reached) != len(ids):
        raise DomainError("the dual graph must be connected")


def _adjacency(tree: MarkedTree) -> dict[int, list[int]]:
    """Each vertex id's neighbours, one entry per edge end."""
    adjacency: dict[int, list[int]] = {v.id: [] for v in tree.vertices}
    for a, b in tree.edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    return adjacency


def canonical_key(tree: MarkedTree):
    """Order-insensitive structure key (genus, sorted classes, sorted child
    keys) for genus-0 marked trees, rooted at the smallest marking.

    Marked trees with labeled markings have no nontrivial automorphisms,
    so this is a complete isomorphism invariant.
    """
    if tree.betti != 0:  # a connected graph with betti 0 is a tree
        raise DomainError("canonical keys and forms are defined for trees only")
    lowest = min(tree.markings, default=None)
    if lowest is None:
        raise DomainError("canonical rooting needs at least one marking")
    return _rooted_key(next(v.id for v in tree.vertices
                            if any(lowest in c.markings for c in v.classes)),
                       None, {v.id: v for v in tree.vertices},
                       _adjacency(tree))


def _rooted_key(vid, parent, by_id, adj):
    """The key of the subtree at `vid` away from `parent`."""
    v = by_id[vid]
    return (v.genus,
            tuple(sorted((tuple(sorted(c.markings)), c.node_supported)
                         for c in v.classes)),
            tuple(sorted(_rooted_key(u, vid, by_id, adj)
                         for u in adj[vid] if u != parent)))


def _tree_of_key(key, shared: dict) -> MarkedTree:
    """The tree a canonical key describes: ids 1..k in preorder, children in
    key order.  `shared` holds the parts that trees built with it reuse:
    the MarkClass of a class key (a pair ending in a bool), the Vertex of
    an (id, genus, class keys) triple and the edges tuple of each shape (a
    tuple of pairs of ints), three kinds of key that never compare equal.

    A key is in canonical order already (classes by least marking), so the
    frozen tree is built as is; only the edges, each (parent, child), need
    one sort.  The MarkClass and MarkedTree constructors check the
    result."""
    vertices, edges = [], []
    _build(key, shared, vertices, edges)
    edges = tuple(sorted(edges))
    return MarkedTree(tuple(vertices), shared.setdefault(edges, edges))


def _build(node, shared: dict, vertices: list, edges: list) -> int:
    """Append the vertex of `node`, whose id is its place in preorder, then
    its subtrees, each below an edge (id, child id); return the id."""
    nid = len(vertices) + 1
    genus, classes, kids = node
    vertex = shared.get((nid, genus, classes))  # int genera: True hashes as 1
    if vertex is None:
        for c in classes:
            if c not in shared:
                shared[c] = MarkClass(frozenset(c[0]), c[1])
        vertex = shared[nid, genus, classes] = Vertex(
            nid, genus, tuple([shared[c] for c in classes]))
    vertices.append(vertex)
    for kid in kids:
        edges.append((nid, _build(kid, shared, vertices, edges)))
    return nid


def canonical_form(tree: MarkedTree) -> MarkedTree:
    """Isomorphic copy with vertex ids 1..k assigned in canonical order."""
    return _tree_of_key(canonical_key(tree), {})


def _valences(vertex_ids: Iterable[int], edges) -> dict[int, int]:
    """Every valence in one pass over the edges (self-loops count twice)."""
    valence = dict.fromkeys(vertex_ids, 0)
    for a, b in edges:
        valence[a] += 1
        valence[b] += 1
    return valence


def _log_degree(genus: int, valence: int, weight: int, den: int) -> int:
    """den times the log degree, for marking numerators summing to weight."""
    return (2 * genus - 2 + valence) * den + weight


def _tree_weights(tree: MarkedTree, weights: WeightsLike,
                  mode: Mode) -> tuple[dict[int, int], int]:
    """The integer form (nums, den) of weights on the tree.  A WeightData
    must lie in the domain of `mode` and have the tree's arithmetic genus;
    a mapping from marking to rational is read as given.  Either way the
    weighted markings must be the tree's."""
    if isinstance(weights, WeightData):
        weights = _valid(weights, mode)
        if tree.arithmetic_genus != weights.genus:
            raise DomainError(
                f"tree has arithmetic genus {tree.arithmetic_genus}, "
                f"weight data has genus {weights.genus}")
        nums, den = weights.scaled
    else:
        nums, den = integer_scaled({_integer(k, "marking"):
                                    rational(v, f"a_{k}")
                                    for k, v in weights.items()})
    if tree.markings != frozenset(nums):
        raise DomainError(
            f"tree markings {sorted(tree.markings)} do not match the weight "
            f"indices {sorted(nums)}")
    return nums, den


def vertex_log_degree(tree: MarkedTree, vertex_id: int,
                      weights: WeightsLike) -> Fraction:
    """Degree of the log divisor on one component:
    2g_v - 2 + valence (self-loops twice) + sum of marking weights there.
    Weights are checked as `is_stable` checks them in ZERO_ALLOWED mode."""
    nums, den = _tree_weights(tree, weights, Mode.ZERO_ALLOWED)
    v = tree.vertex(vertex_id)
    weight = sum(nums[m] for c in v.classes for m in c.markings)
    return Fraction(_log_degree(v.genus, tree.valence(vertex_id), weight, den),
                    den)


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    class_violations: tuple[tuple[int, tuple[int, ...]], ...]
    degree_violations: tuple[tuple[int, Fraction], ...]
    node_support_violations: tuple[tuple[int, tuple[int, ...]], ...]

    def __bool__(self) -> bool:
        return self.stable


def is_stable(tree: MarkedTree, weights: WeightsLike,
              mode: Mode = Mode.STRICT) -> StabilityReport:
    """Stability check with a full violation report.

    Stable means: every coincidence class has weight-sum <= 1, every
    node-supported class consists of weight-zero markings only, and every
    vertex has positive log degree.  It runs on the integer kernel; only
    reported degrees are Fractions.  The tree is well-formed, as every
    MarkedTree is checked on construction.

    `mode` applies to a WeightData only.  Weights given as a mapping from
    marking to rational are read as given: no domain is checked for them.
    """
    if not isinstance(mode, Mode):
        raise DomainError(f"mode must be a Mode, got {mode!r}")
    return _stability(tree, *_tree_weights(tree, weights, mode))


def _stability(tree: MarkedTree, nums: Mapping[int, int],
               den: int) -> StabilityReport:
    """`is_stable`'s report, for numerators on exactly the tree's markings."""
    valence = _valences(tree.vertex_ids, tree.edges)
    class_bad, node_bad, degree_bad = [], [], []
    for v in tree.vertices:
        weight = 0
        for c in v.classes:
            class_weight = sum(nums[m] for m in c.markings)
            weight += class_weight
            if class_weight > den:
                class_bad.append((v.id, tuple(sorted(c.markings))))
            if c.node_supported and any(nums[m] > 0 for m in c.markings):
                node_bad.append((v.id, tuple(sorted(c.markings))))
        degree = _log_degree(v.genus, valence[v.id], weight, den)
        if degree <= 0:
            degree_bad.append((v.id, Fraction(degree, den)))
    return StabilityReport(
        stable=not (class_bad or node_bad or degree_bad),
        class_violations=tuple(class_bad),
        degree_violations=tuple(degree_bad),
        node_support_violations=tuple(node_bad))


def _contract(tree: MarkedTree, nums: Mapping[int, int],
              den: int) -> MarkedTree:
    """Keep each class's markings that lie in `nums`, contract until stable
    for the numerators `nums` over `den` (see the module docstring), and
    check the result.  `at_node` maps an edge key to the markings at that
    node; they are popped when an end of the edge is contracted, so a chain
    merges into one class whatever the order.  Classes of the input tree
    carry no edge (the serialized format has none) and stay on their
    vertex."""
    vertices = {v.id: (v.genus, [(kept, c.node_supported) for c in v.classes
                                 if (kept := c.markings.intersection(nums))])
                for v in tree.vertices}
    edges = dict(enumerate(tree.edges))
    at_node: dict[int, set[int]] = {}
    for _ in range(len(vertices) + 1):
        valence = _valences(vertices, edges.values())
        vid = min((u for u, (genus, classes) in vertices.items()
                   if _log_degree(genus, valence[u], sum(
                       nums[m] for c, _ in classes for m in c), den) <= 0),
                  default=None)
        if vid is None:
            break
        genus, classes = vertices.pop(vid)
        incident = [k for k, e in edges.items() if vid in e]
        moved = {m for c, _ in classes for m in c}
        for k in incident:
            moved.update(at_node.pop(k, ()))
        ends = [b if a == vid else a for a, b in map(edges.pop, incident)]
        if valence[vid] == 1:
            # type I: the component is deleted; its markings, together with
            # any markings at the attachment node, land at what is now a
            # smooth point of the neighbor.
            if moved:
                vertices[ends[0]][1].append((moved, False))
        elif valence[vid] == 2 and len(incident) == 2:
            # type II: squeeze the component out; its two nodes become one
            # edge, which keeps the first node's key and carries the
            # component's markings (all weight zero here) and whatever
            # already sat on either node.
            if genus != 0:
                raise InternalInvariantError(
                    "contracting a positive-genus vertex")
            if any(nums[m] > 0 for m in moved):
                raise InternalInvariantError(
                    "type II contraction moving positive weight")
            edges[incident[0]] = tuple(sorted(ends))
            if moved:
                at_node[incident[0]] = moved
        else:
            raise InternalInvariantError(f"vertex {vid} has valence "
                                         f"{valence[vid]} and nonpositive degree")
    else:
        raise NonterminatingContraction("contraction loop failed to terminate")
    for k, marks in at_node.items():
        vertices[edges[k][0]][1].append((marks, True))
    result = marked_tree(
        [(vid, genus, [MarkClass(frozenset(c), ns) for c, ns in classes])
         for vid, (genus, classes) in vertices.items()], edges.values())
    if not _stability(result, nums, den):
        raise InternalInvariantError("contraction did not reach stability")
    return result


def _reduction_pair(a: WeightData, b: WeightData, mode_a: Mode):
    """Validate a (in mode_a) and b (zeros allowed), same genus and length,
    with b <= a componentwise."""
    a = _valid(a, mode_a)
    b = _valid(b, Mode.ZERO_ALLOWED)
    if (a.genus, a.n) != (b.genus, b.n):
        raise DomainError("weight data have different genus or length")
    (nums_a, den_a), (nums_b, den_b) = a.scaled, b.scaled
    if any(nums_b[m] * den_a > x * den_b for m, x in nums_a.items()):
        raise WeightsNotDominated("target weights exceed the source weights")
    return a, b


def stabilize(tree: MarkedTree, a: WeightData, b: WeightData) -> MarkedTree:
    """The unique b-stable tree obtained by contracting every vertex whose
    log degree under b is nonpositive, lowest vertex id first.

    `b` must be dominated by `a` componentwise and may contain zero
    weights as long as 2g-2+sum(b) stays positive; zero-weight markings
    are retained.
    """
    a, b = _reduction_pair(a, b, Mode.ZERO_ALLOWED)
    report = is_stable(tree, a, Mode.ZERO_ALLOWED)
    if not report:
        raise NotAStable(f"input tree is not stable for the source weights: "
                         f"{report}")
    return _contract(tree, *b.scaled)


def forget(tree: MarkedTree, a: WeightData, keep: Iterable[int]) -> MarkedTree:
    """Delete the markings outside `keep`, then contract until stable for
    the kept weights.  Labels are preserved verbatim."""
    a = _valid(a, Mode.ZERO_ALLOWED)
    kept = sorted({_integer(k, "keep entry") for k in keep})
    full, den = a.scaled
    if not kept or any(k not in full for k in kept):
        raise DomainError("keep must be a nonempty subset of the marking indices")
    if not is_stable(tree, a, Mode.ZERO_ALLOWED):
        raise NotAStable("input tree is not stable for the source weights")
    nums = {k: full[k] for k in kept}
    residual = _log_degree(a.genus, 0, sum(nums.values()), den)
    if residual <= 0:
        raise ResidualDegreeNotPositive(
            f"2g-2+sum over kept weights = {Fraction(residual, den)} <= 0")
    return _contract(tree, nums, den)


@dataclass(frozen=True)
class Stratum:
    tree: MarkedTree
    codimension: int


def _vertex_keys(partitions, hanging: int, den: int) -> list:
    """The key of each stable vertex among forest partitions; hanging is 1
    below an edge and 0 at the root."""
    return [(0, classes, tuple(sorted(kids)))
            for classes, kids, w in partitions
            if _log_degree(0, len(kids) + hanging, w, den) > 0]


def _stratum_keys(data: WeightData, max_codim: int):
    """(codimension, canonical key) of each stable genus-0 tree of the valid
    datum up to codimension `max_codim`, once each, in sorted order.

    A vertex's contents are a set partition of its markings into classes
    (weight sum at most 1) and subtrees, each below one new edge.  The
    first block always holds the smallest unplaced marking, so every
    unordered collection is met once; the root holds marking 1 in a class.
    A class of size s costs s - 1 toward the codimension and an edge 1.

    Blocks are bitmasks (marking m is bit m-1); `weight` holds each mask's
    numerator sum over `den` and `marks` its sorted markings.  The memo
    keeps a list of layers by exact cost per mask and role (see `_layer`),
    extended only as far as some caller's room reaches, so no partition is
    enumerated twice and a small `max_codim` builds only small layers; the
    root layers, read once, stay out of it.  Subtree keys are built only
    for a block whose weight and whose complement's both exceed 1, at a
    cost below its size: no stable tree holds any other (see `_layer`).
    No genus-0 stratum lies deeper than n - 3, so the cap is clamped
    there."""
    den = data.scaled[1]
    weight = [e + den for e in data.excess_table()]
    marks = [()]
    for m in range(1, data.n + 1):
        marks += [s + (m,) for s in marks]
    state = ({}, weight, marks, den)
    full, top = len(weight) - 1, min(max_codim, data.n - 3)
    return [(codim, key) for codim in range(top + 1)
            for key in sorted(_vertex_keys(_layer(state, full, 0, codim), 0,
                                           den))]


def _forests(state, rest, role, cost):
    """`_layer` of role 1 or 2, memoised per `_stratum_keys` call."""
    layers = state[0].get((rest, role))
    if layers is None:
        layers = state[0][rest, role] = []
    while len(layers) <= cost:
        layers.append(_layer(state, rest, role, len(layers)))
    return layers[cost]


def _layer(state, rest, role, cost):
    """Layer `cost` of a role on rest: the partitions, as (classes, child
    keys, class weight), whose first block is a class (role 0, the root) or
    a class or subtree (role 1); or (role 2) the keys of the stable vertices
    on rest below an edge, which costs 1.  Role 2 reads all of role 1: its
    one subtree on all of rest reads role 2 at lower costs only, and makes
    a vertex of log degree (0 - 2 + 2) * den + 0 = 0, which is dropped.

    A subtree's keys are asked for only where a stable tree can hold one.
    The edge above a block splits the markings into the block and its
    complement, and each side sums above 1: summing (valence - 2) * den + w
    over the V vertices on one side gives (2(V - 1) + 1 - 2V) * den +
    weight(side) = weight(side) - den, and each term is positive.  And a
    subtree on s markings with C classes over V vertices costs V edges
    plus s - C; a vertex's c_v classes weigh at most c_v, so a positive
    log degree needs c_v >= 3 - val_v, whence C >= 3V - (2V - 1) = V + 1
    and the cost is at most s - 1.  The role-2 layers skipped would be
    empty, so the keys are the same without them."""
    _, weight, marks, den = state
    if role == 2:
        return _vertex_keys(_forests(state, rest, 1, cost - 1), 1, den) \
            if cost else []
    if not rest:  # the one partition of nothing costs 0
        return [] if cost else [((), (), 0)]
    low = rest & -rest
    others = rest ^ low
    found = []
    sub = others
    while True:
        block, left = low | sub, others ^ sub
        size = len(marks[block]) - 1
        if size <= cost and weight[block] <= den:
            first, w = ((marks[block], False),), weight[block]
            for classes, kids, x in _forests(state, left, 1, cost - size):
                found.append((first + classes, kids, w + x))
        if role == 1 and weight[block] > den and \
                weight[-1] - weight[block] > den:
            for k in range(1, min(cost, size) + 1):
                keys = _forests(state, block, 2, k)
                if keys:
                    more = _forests(state, left, 1, cost - k)
                    for key in keys:
                        for classes, kids, x in more:
                            found.append((classes, (key,) + kids, x))
        if not sub:
            break
        sub = (sub - 1) & others
    return found


def enumerate_strata(data: WeightData, max_codim: int, *,
                     limit: Optional[int] = None) -> tuple[Stratum, ...]:
    """All stable marked trees up to codimension `max_codim`, genus 0 only,
    in deterministic (codimension, canonical key) order."""
    data = _valid(data, Mode.STRICT)
    if data.genus != 0:
        raise DomainError("stratum enumeration is implemented for genus 0")
    if _integer(max_codim, "max_codim") < 0:
        raise DomainError(f"max_codim must be nonnegative, got {max_codim}")
    _check_limit(data.n, limit)
    shared: dict = {}
    return tuple(Stratum(_tree_of_key(key, shared), codim)
                 for codim, key in _stratum_keys(data, max_codim))


class DivisorKind(Enum):
    NODAL = "nodal"
    COINCIDENCE = "coincidence"


@dataclass(frozen=True)
class BoundaryDivisor:
    kind: DivisorKind
    members: frozenset[int]            # nodal: the side containing index 1
    complement: Optional[frozenset[int]] = None

    def sort_key(self):
        return (self.kind.value, len(self.members), tuple(sorted(self.members)))


def boundary_divisors(data: WeightData) -> tuple[BoundaryDivisor, ...]:
    """Codimension-1 boundary: unordered partitions with both weight-sums
    above 1 (nodal) and pairs with weight-sum at most 1 (coincidence)."""
    return tuple([_preserved(*key).divisor for key in
                  _boundary(_valid(data, Mode.STRICT))])


def _boundary(data: WeightData) -> list[tuple[int, int]]:
    """The (mask, complement) of each boundary divisor of valid data, in
    `sort_key` order: the coincidence pairs, with complement 0, then the
    nodal sides (which hold marking 1 and are not everything) by size and
    lexicographically.  The candidates depend on n only, so
    `_boundary_masks` lists them once; a call only selects."""
    if data.genus != 0:
        raise DomainError("boundary divisors are implemented for genus 0")
    table = data.excess_table()
    pairs, nodal = _boundary_masks(data.n)
    return [(m, 0) for m in pairs if table[m] <= 0] + [
        key for key in nodal if table[key[0]] > 0 and table[key[1]] > 0]


class DivisorStatus(Enum):
    PRESERVED = "preserved"
    CONTRACTED = "contracted"
    BECOMES_COINCIDENCE = "becomes_coincidence"


@dataclass(frozen=True)
class DivisorFate:
    divisor: BoundaryDivisor
    status: DivisorStatus
    collapsed_side: Optional[frozenset[int]] = None
    factor_weights: Optional[WeightData] = None


@lru_cache(maxsize=1 << 12)  # every divisor of one n up to 12, as `_marks`
def _preserved(mask: int, complement: int) -> DivisorFate:
    """The PRESERVED fate of the divisor of a `_boundary` key, and through
    it the divisor: one shared (frozen) value per key.  The cache is
    bounded; a table per n would keep 2^(n-1) divisors for good."""
    divisor = BoundaryDivisor(DivisorKind.NODAL, _marks(mask),
                              _marks(complement)) if complement else \
        BoundaryDivisor(DivisorKind.COINCIDENCE, _marks(mask))
    return DivisorFate(divisor, DivisorStatus.PRESERVED)


def contracted_divisors(a: WeightData, b: WeightData) -> tuple[DivisorFate, ...]:
    """Classify every boundary divisor of `a` under the reduction to `b`.

    A nodal divisor whose side I drops to sum <= 1 is contracted when
    |I| > 2 (with the factorization weights (b_j..., b_I) reported) and
    turns into the coincidence divisor of the pair when |I| = 2.
    """
    a, b = _reduction_pair(a, b, Mode.STRICT)
    table, den = b.excess_table(), b.scaled[1]
    fates = []
    for mask, complement in _boundary(a):
        fate = _preserved(mask, complement)
        above_i, above_j = table[mask] > 0, table[complement] > 0
        if not complement or above_i and above_j:  # pairs are all kept
            fates.append(fate)
            continue
        if not (above_i or above_j):
            raise InternalInvariantError("both sides dropped to sum <= 1")
        side_mask, other_mask = (complement, mask) if above_i else \
            (mask, complement)
        side, other = _marks(side_mask), _marks(other_mask)
        divisor = fate.divisor
        if len(side) == 2:
            fates.append(DivisorFate(divisor, DivisorStatus.BECOMES_COINCIDENCE,
                                     collapsed_side=side))
            continue
        # valid for ZERO_ALLOWED without `validate`: each b_j comes from
        # the validated b, b_I = sum of b over the side lies in [0, 1] as the
        # side is at or below its wall, and the total is sum(b) > 2 (genus 0)
        factor = WeightData(0, tuple(b.weights[j - 1] for j in sorted(other))
                            + (Fraction(table[side_mask] + den, den),))
        fates.append(DivisorFate(divisor, DivisorStatus.CONTRACTED,
                                 collapsed_side=side, factor_weights=factor))
    return tuple(fates)


def is_reduction_iso(a: WeightData, b: WeightData) -> bool:
    """True iff every subset crossing the sum-1 threshold has size 2."""
    a, b = _reduction_pair(a, b, Mode.STRICT)
    table_a, table_b, n = a.excess_table(), b.excess_table(), a.n
    return not any(table_a[mask] > 0 and table_b[mask] <= 0
                   for mask in _masks(n)[1 + n + comb(n, 2):])  # size >= 3


def is_blowup_profile(data: WeightData, subset: Iterable[int]) -> bool:
    """True iff the subset has weight-sum above 1 while every proper subset
    stays at or below 1 (the reduction is then a projective-space blow-up).

    Pure subset arithmetic: boundary-normalized tuples are accepted too.
    """
    members = sorted({_integer(i, "subset entry") for i in subset})
    if len(members) < 3:
        raise DomainError("blow-up profiles need |I| >= 3")
    if members[0] < 1 or members[-1] > data.n:
        raise DomainError("subset out of range")
    if data.excess(members) <= 0:
        return False
    return all(data.excess(sub) <= 0
               for sub in combinations(members, len(members) - 1))


class DegreeCase(Enum):
    VANISHES = "Vanishes"
    EXCEPTIONAL_1 = "Exceptional1"
    EXCEPTIONAL_2 = "Exceptional2"
    NONVANISHING = "Nonvanishing"


def degree_vanishing_case(g: int, b: int, d: int, k: int, sigma: int,
                          N: int) -> DegreeCase:
    """Case classification for sections of omega(B+Sigma) x M^(-N) on an
    irreducible curve, where M = omega^k(kB+D) is ample.

    The twist degree is (1-Nk)(2g-2+b) + sigma - Nd; a negative degree
    forces vanishing.  Degree >= 0 happens only at the two exceptional
    parameter tuples (d=0, k=1, g=0, b=3) and (d=0, k=1, g=1, b=1), or in
    the uncovered corner sigma = N = 2, reported as Nonvanishing.
    """
    for name, value in (("g", g), ("b", b), ("d", d)):
        if _integer(value, name) < 0:
            raise DomainError(f"{name} must be a nonnegative integer")
    if _integer(k, "k") <= 0:
        raise DomainError("k must be a positive integer")
    if _integer(N, "N") < 2:
        raise DomainError("N must be an integer >= 2")
    if _integer(sigma, "sigma") not in (0, 1, 2):
        raise DomainError("sigma must be 0, 1, or 2")
    if k * (2 * g - 2 + b) + d < 1:
        raise DomainError("M is not ample: k(2g-2+b)+d < 1")
    degree = (1 - N * k) * (2 * g - 2 + b) + sigma - N * d
    if degree < 0:
        return DegreeCase.VANISHES
    if (d, k, g, b) == (0, 1, 0, 3):
        return DegreeCase.EXCEPTIONAL_1
    if (d, k, g, b) == (0, 1, 1, 1):
        return DegreeCase.EXCEPTIONAL_2
    return DegreeCase.NONVANISHING


def symmetrized_boundary_count(data: WeightData,
                               blocks: Iterable[Iterable[int]]) -> int:
    """Number of boundary-divisor orbits under the product of symmetric
    groups permuting within the given equal-weight blocks."""
    data = _valid(data, Mode.STRICT)
    block_list = [tuple(sorted({_integer(i, "block entry") for i in blk}))
                  for blk in blocks]
    block_list.sort(key=lambda blk: blk[0] if blk else 0)
    flattened = [i for blk in block_list for i in blk]
    if sorted(flattened) != list(range(1, data.n + 1)):
        raise DomainError("blocks must partition the marking indices")
    nums = data.scaled[0]
    for blk in block_list:
        if len({nums[i] for i in blk}) > 1:
            raise UnequalWeightsInBlock(
                f"block {list(blk)} mixes distinct weights")
    block_masks = [sum(1 << (i - 1) for i in blk) for blk in block_list]

    def signature(mask):  # how many markings of each block the mask holds
        return tuple((mask & blk).bit_count() for blk in block_masks)

    # an orbit is a pair's signature, or a nodal divisor's two signatures
    # (a pair's complement is 0, so its key is one signature long)
    return len({tuple(sorted(signature(m) for m in key if m))
                for key in _boundary(data)})

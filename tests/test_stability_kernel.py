"""The integer stability kernel against the Fraction oracle kept in
conftest, and stratum generation against the unpruned breadth-first
search."""

import ast
import gc
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import weightscape as ws
from weightscape import curves
from weightscape.curves import MarkClass, _stratum_keys, _tree_of_key
from weightscape.errors import DomainError
from weightscape.jsonio import canonical_dumps
from weightscape.weights import Mode

from conftest import (fraction_is_stable, fraction_log_degree,
                      marked_tree_of_key, random_stable_tree,
                      random_weight_data, tuple_stratum_keys, unpruned_strata)

F = Fraction


def _rebuild(tree, genus=None, classes=None, extra_vertices=(), edges=None):
    genus = genus or {}
    classes = classes or {}
    vertices = [(v.id, genus.get(v.id, v.genus),
                 classes.get(v.id, list(v.classes))) for v in tree.vertices]
    return ws.marked_tree(vertices + list(extra_vertices),
                          tree.edges if edges is None else edges)


def _mutate(rng, tree):
    """A random, usually unstable, variation of a stable tree: markings
    moved or merged, an unmarked leaf or a self-loop added, a genus
    raised, or classes flagged as node-supported."""
    kind = rng.choice(["move", "merge", "leaf", "loop", "genus", "node"])
    vertices = list(tree.vertices)
    v = rng.choice(vertices)
    if kind == "move" and v.classes:
        c = rng.choice(v.classes)
        target = rng.choice(vertices)
        moved = {v.id: [d for d in v.classes if d is not c]}
        moved[target.id] = moved.get(target.id, list(target.classes)) + [c]
        return _rebuild(tree, classes=moved)
    if kind == "merge" and len(v.classes) >= 2:
        a, b = rng.sample(range(len(v.classes)), 2)
        rest = [c for k, c in enumerate(v.classes) if k not in (a, b)]
        merged = MarkClass(v.classes[a].markings | v.classes[b].markings)
        return _rebuild(tree, classes={v.id: rest + [merged]})
    if kind == "leaf":
        new_id = max(tree.vertex_ids) + 1
        return _rebuild(tree, extra_vertices=[(new_id, 0, [])],
                        edges=list(tree.edges) + [(v.id, new_id)])
    if kind == "loop":
        return _rebuild(tree, edges=list(tree.edges) + [(v.id, v.id)])
    if kind == "genus":
        return _rebuild(tree, genus={v.id: v.genus + rng.randint(1, 2)})
    flagged = {u.id: [MarkClass(c.markings, rng.random() < 0.5)
                      for c in u.classes] for u in vertices}
    return _rebuild(tree, classes=flagged)


def _dict_weights(rng, data):
    """Weight dict with some weights zeroed and the rest kept or rescaled
    (left unvalidated, as dict weights are)."""
    out = {}
    for m, w in data.weight_map().items():
        roll = rng.random()
        out[m] = F(0) if roll < 0.25 else w * F(rng.randint(1, 6), 3) \
            if roll < 0.5 else w
    return out


def _assert_same(tree, weights, mode=Mode.STRICT):
    try:
        expected = fraction_is_stable(tree, weights, mode)
    except DomainError:
        with pytest.raises(DomainError):
            ws.is_stable(tree, weights, mode)
        return
    report = ws.is_stable(tree, weights, mode)
    assert report == expected
    assert all(type(d) is Fraction for _, d in report.degree_violations)
    wmap = weights.weight_map() if isinstance(weights, ws.WeightData) \
        else weights
    for v in tree.vertices:
        degree = ws.vertex_log_degree(tree, v.id, weights)
        assert type(degree) is Fraction
        assert degree == fraction_log_degree(tree, v.id, wmap)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 7))
def test_is_stable_matches_fraction_oracle(seed, n):
    rng = random.Random(seed)
    data = random_weight_data(rng, n)
    tree = random_stable_tree(rng, data)
    assert ws.is_stable(tree, data)
    _assert_same(tree, data)
    mutated = _mutate(rng, tree)
    _assert_same(mutated, data)
    _assert_same(mutated, data, Mode.ZERO_ALLOWED)
    weights = _dict_weights(rng, data)
    _assert_same(tree, weights)
    _assert_same(mutated, weights)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(4, 7))
def test_node_supported_classes_match_oracle(seed, n):
    """Zero-weight data in ZERO_ALLOWED mode with node-supported classes,
    as `stabilize` produces them."""
    rng = random.Random(seed)
    a = ws.validate(0, [1] * n)
    zeros = rng.sample(range(n), rng.randint(1, n - 3))
    b = ws.validate(0, [0 if i in zeros else 1 for i in range(n)],
                    Mode.ZERO_ALLOWED)
    tree = random_stable_tree(rng, a)
    reduced = ws.stabilize(tree, a, b)
    _assert_same(reduced, b, Mode.ZERO_ALLOWED)
    _assert_same(reduced, b.weight_map())
    flagged = _rebuild(reduced, classes={
        v.id: [MarkClass(c.markings, rng.random() < 0.5) for c in v.classes]
        for v in reduced.vertices})
    _assert_same(flagged, b, Mode.ZERO_ALLOWED)


def test_dict_weights_accept_rational_strings():
    tree = ws.marked_tree([(1, 0, [[1], [2]]), (2, 0, [[3], [4]])], [(1, 2)])
    weights = {1: "1", 2: "1", 3: "1/2", 4: "1/2"}
    assert ws.is_stable(tree, weights) == fraction_is_stable(tree, weights)
    assert ws.is_stable(tree, weights).degree_violations == ((2, F(0)),)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_enumerate_strata_matches_unpruned_search(n):
    """At every codimension bound, since the generator prunes by it."""
    rng = random.Random(400 + n)
    for data in [random_weight_data(rng, n) for _ in range(4)] + \
            [ws.validate(0, [1] * n)]:
        for max_codim in range(n - 2):
            assert ws.enumerate_strata(data, max_codim) == \
                unpruned_strata(data, max_codim)


# two points of open chambers at n = 7, every weight below 1: no subset
# sums to exactly 1, one total just above 2 and one well above it
OPEN_7 = [[F(x, 11) for x in (8, 6, 4, 2, 2, 2, 2)],
          [F(x, 11) for x in (3, 9, 6, 3, 9, 4, 6)]]


@st.composite
def boundary_weights(draw):
    """STRICT weight data whose first k weights (k >= 2 unless 0) sum to
    exactly 1, shuffled: that block is a legal class of sum 1, and a leaf
    holding it has log degree exactly 0."""
    n = draw(st.integers(3, 7))
    den = draw(st.integers(2, 7))
    k = draw(st.sampled_from([0] + list(range(2, min(n, den) + 1))))
    cuts = sorted(draw(st.sets(st.integers(1, den - 1),
                               min_size=max(k - 1, 0),
                               max_size=max(k - 1, 0)))) if k else []
    block = [b - a for a, b in zip([0] + cuts, cuts + [den])] if k else []
    rest = draw(st.lists(st.integers(1, den), min_size=n - k,
                         max_size=n - k))
    numerators = draw(st.permutations(block + rest))
    assume(sum(numerators) > 2 * den)
    return ws.validate(0, [F(x, den) for x in numerators])


@settings(max_examples=60, deadline=None)
@given(data=boundary_weights())
@example(data=ws.validate(0, [F(1, 2)] * 6))
@example(data=ws.validate(0, [F(1, 3)] * 7))
@example(data=ws.validate(0, [1, F(1, 4), F(3, 4), F(1, 2), F(1, 2)]))
@example(data=ws.validate(0, [1] * 7))
@example(data=ws.validate(0, [1, 1] + [F(1, 5)] * 4))  # Losev-Manin
@example(data=ws.validate(0, [1] + [F(1, 4)] * 5))  # Kapranov
@example(data=ws.validate(0, OPEN_7[0]))
@example(data=ws.validate(0, OPEN_7[1]))
def test_stratum_keys_match_tuple_generator(data):
    """The bitmask generator against the tuple-based one at every codimension
    bound, and for n <= 6 the strata against the unpruned search, whose
    levels do not depend on the bound."""
    nums, den = data.scaled
    unpruned = unpruned_strata(data, data.n - 3) if data.n <= 6 else None
    for max_codim in range(data.n - 2):
        assert _stratum_keys(data, max_codim) == \
            tuple_stratum_keys(nums, den, max_codim)
        if unpruned is not None:
            assert ws.enumerate_strata(data, max_codim) == tuple(
                s for s in unpruned if s.codimension <= max_codim)


def test_interleaved_stratum_key_calls_share_nothing():
    """Calls on two data, alternating and with the bound falling then
    rising, each give the keys of the tuple-based generator: no memo
    outlives its call."""
    data = [ws.validate(0, [1] * 6),
            random_weight_data(random.Random(15), 6)]
    expected = {(i, c): tuple_stratum_keys(*d.scaled, c)
                for i, d in enumerate(data) for c in range(4)}
    for c in [3, 2, 1, 0, 0, 1, 2, 3]:
        for i, d in enumerate(data):
            assert _stratum_keys(d, c) == expected[i, c]


def test_cap_above_n_minus_3_does_no_more_work(monkeypatch):
    """No genus-0 stratum is deeper than n - 3, so a larger cap gives the
    same keys from the same memo layers, however large it is."""
    data = ws.validate(0, [1] * 5)
    calls = []
    vertex_keys = curves._vertex_keys
    monkeypatch.setattr(curves, "_vertex_keys",
                        lambda *args: calls.append(args[1:])
                        or vertex_keys(*args))
    at_top = _stratum_keys(data, 2)
    made = len(calls)
    assert _stratum_keys(data, 50) == at_top
    assert len(calls) == 2 * made
    monkeypatch.undo()
    data = ws.validate(0, [1] * 7)
    assert _stratum_keys(data, 10 ** 6) == _stratum_keys(data, 4)


@pytest.mark.parametrize("weights", [[1] * 7, [1, 1] + [F(1, 5)] * 5])
def test_stratum_memo_keeps_one_partition_role(monkeypatch, weights):
    """Role 0 is the root's partitions, role 1 any other mask's and role 2
    its subtree keys: the root layers never reach the memo, and no other
    mask has its partitions built under two roles."""
    data = ws.validate(0, weights)
    full = (1 << data.n) - 1
    built, reached = {}, set()
    layer, forests = curves._layer, curves._forests

    def spy_layer(state, rest, role, cost):
        built.setdefault(rest, set()).add(role)
        return layer(state, rest, role, cost)

    def spy_forests(state, rest, role, cost):
        reached.add(rest)
        return forests(state, rest, role, cost)

    monkeypatch.setattr(curves, "_layer", spy_layer)
    monkeypatch.setattr(curves, "_forests", spy_forests)
    keys = _stratum_keys(data, data.n - 3)
    monkeypatch.undo()
    assert keys == tuple_stratum_keys(*data.scaled, data.n - 3)
    assert full not in reached
    assert built.pop(full) == {0}
    assert all(roles <= {1, 2} for roles in built.values())


@pytest.mark.parametrize("weights", [[1] + [F(1, 4)] * 5,
                                     [1, 1] + [F(1, 5)] * 5] + OPEN_7,
                         ids=["kapranov-6", "losev-manin-7", "open-7-low",
                              "open-7-high"])
def test_subtree_layers_only_where_stable_trees_hold_them(monkeypatch,
                                                          weights):
    """A role-2 layer is built only for a block that weighs more than 1,
    whose complement weighs more than 1, and at a cost below its size; the
    keys are those of the tuple-based generator, which prunes nothing."""
    data = ws.validate(0, weights)
    nums, den = data.scaled
    total = sum(nums.values())
    built = []
    layer = curves._layer

    def spy_layer(state, rest, role, cost):
        if role == 2:
            built.append((rest, cost))
        return layer(state, rest, role, cost)

    monkeypatch.setattr(curves, "_layer", spy_layer)
    keys = _stratum_keys(data, data.n - 3)
    monkeypatch.undo()
    assert keys == tuple_stratum_keys(nums, den, data.n - 3)
    # Kapranov's space has no nodal divisor, so no block is ever a subtree
    assert bool(built) == any(d.kind is ws.DivisorKind.NODAL
                              for d in ws.boundary_divisors(data))
    for rest, cost in built:
        block = [m for m in nums if rest >> (m - 1) & 1]
        weight = sum(nums[m] for m in block)
        assert weight > den and total - weight > den, block
        assert cost <= len(block) - 1, (block, cost)


def test_boundary_weights_reach_both_bounds():
    """With weights 1/2 every pair is a class of sum exactly 1 and a leaf of
    log degree exactly 0: classes of two appear, leaves of two do not."""
    strata = ws.enumerate_strata(ws.validate(0, [F(1, 2)] * 6), 3)
    assert any(len(c.markings) == 2 for s in strata
               for v in s.tree.vertices for c in v.classes)
    for s in strata:
        for v in s.tree.vertices:
            if s.tree.valence(v.id) == 1:
                assert sum(len(c.markings) for c in v.classes) > 2


@pytest.mark.parametrize("max_codim", [-1, 1.0, 0.5, True, "1", None])
def test_enumerate_strata_rejects_bad_max_codim(max_codim):
    with pytest.raises(DomainError, match="max_codim"):
        ws.enumerate_strata(ws.validate(0, [1] * 5), max_codim)


def test_unit_weight_counts_follow_oeis_a000311():
    # A000311(n-1): Schroeder's fourth problem, the number of boundary
    # strata of the Deligne-Mumford space of n-pointed genus-0 curves
    expected = {3: 1, 4: 4, 5: 26, 6: 236, 7: 2752, 8: 39208}
    for n, count in expected.items():
        assert len(ws.enumerate_strata(ws.validate(0, [1] * n), n - 3)) \
            == count


def _assert_same_tree(key, shared, oracle_shared):
    tree = _tree_of_key(key, shared)
    expected = marked_tree_of_key(key, oracle_shared)
    assert tree == expected
    # bytes, so that a genus True would not pass for 1
    assert canonical_dumps(tree.to_json_dict()) == \
        canonical_dumps(expected.to_json_dict())
    return tree


@st.composite
def drawn_weights(draw):
    n = draw(st.integers(3, 7))
    den = draw(st.integers(1, 6))
    numerators = draw(st.lists(st.integers(1, den), min_size=n, max_size=n))
    assume(sum(numerators) > 2 * den)
    return ws.validate(0, [F(x, den) for x in numerators])


@settings(max_examples=40, deadline=None)
@given(data=drawn_weights())
@example(data=ws.validate(0, [1] * 7))
@example(data=ws.validate(0, [F(1, 2)] * 6))
def test_tree_of_key_matches_marked_tree_on_stratum_keys(data):
    """Every key of every codimension, one shared class map per builder as
    in `enumerate_strata`."""
    shared, oracle_shared = {}, {}
    for _, key in _stratum_keys(data, data.n - 3):
        _assert_same_tree(key, shared, oracle_shared)


@st.composite
def decorated_trees(draw):
    """A marked tree with up to three classes per vertex, genera up to 2,
    node-supported flags, shuffled ids and edges given either way round."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, k)]
    flips = draw(st.lists(st.booleans(), min_size=k - 1, max_size=k - 1))
    ids = draw(st.permutations(range(1, k + 1)))
    genera = draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))
    places = draw(st.lists(st.tuples(st.integers(0, k - 1),
                                      st.integers(0, 2)),
                           min_size=n, max_size=n))
    flags = draw(st.lists(st.booleans(), min_size=3 * k, max_size=3 * k))
    groups = {}
    for marking, place in zip(draw(st.permutations(range(1, n + 1))), places):
        groups.setdefault(place, []).append(marking)
    vertices = [(ids[v], genera[v],
                 [ws.mark_class(groups[v, label], flags[3 * v + label])
                  for label in range(3) if (v, label) in groups])
                for v in range(k)]
    edges = [(ids[i + 1], ids[p]) if flip else (ids[p], ids[i + 1])
             for i, (p, flip) in enumerate(zip(parents, flips))]
    return ws.marked_tree(vertices, edges)


@settings(max_examples=150, deadline=None)
@given(tree=decorated_trees())
def test_tree_of_key_matches_marked_tree_on_canonical_keys(tree):
    key = ws.canonical_key(tree)
    built = _assert_same_tree(key, {}, {})
    assert ws.canonical_form(tree) == built
    assert ws.canonical_key(built) == key


@pytest.mark.parametrize("key", [
    (0, (((1, 2), False), ((2, 3), False)), ()),
    (0, (((1,), False),), ((0, (((1, 2), False),), ()),)),
    (-1, (((1,), False),), ()),
    (0, (((1,), False),), ((-2, (), ()),)),
    (0, (((), False), ((1,), True)), ()),
    (0, (((1,), False),), ((1.0, (((2,), False),), ()),)),
    (True, (((1,), False),), ()),
    (0.5, (((), False),), ()),
], ids=["overlap-one-vertex", "overlap-two-vertices", "negative-root-genus",
        "negative-child-genus", "empty-class", "float-genus", "bool-genus",
        "empty-class-before-genus"])
def test_tree_of_key_faults_match_marked_tree(key):
    with pytest.raises(DomainError) as expected:
        marked_tree_of_key(key, {})
    with pytest.raises(DomainError) as info:
        _tree_of_key(key, {})
    assert str(info.value) == str(expected.value)


@pytest.mark.parametrize("weights, max_codim", [
    ([1] * 6, 3), ([F(1, 2)] * 6, 3),
    (["1", "3/4", "1/2", "1/2", "1/3", "1/4", "1/6"], 4),
])
def test_every_stratum_tree_is_checked(monkeypatch, weights, max_codim):
    """`_check_tree` runs once on each returned tree, and on nothing else."""
    checked = []
    check = curves._check_tree

    def counting(tree):
        checked.append(tree)
        check(tree)

    monkeypatch.setattr(curves, "_check_tree", counting)
    strata = ws.enumerate_strata(ws.validate(0, [F(w) for w in weights]),
                                 max_codim)
    assert len(checked) == len(strata)
    assert all(s.tree is tree for s, tree in zip(strata, checked))


@pytest.mark.parametrize("weights", [[1] * 7, [1, 1] + [F(1, 5)] * 5],
                         ids=["unit-7", "losev-manin-7"])
def test_stratum_trees_share_their_parts(weights):
    """One `enumerate_strata` call builds one Vertex per (id, genus,
    classes) and one edges tuple per tree shape."""
    trees = [s.tree for s in ws.enumerate_strata(ws.validate(0, weights), 4)]
    vertices = [v for tree in trees for v in tree.vertices]
    assert len({id(v) for v in vertices}) == \
        len({(v.id, v.genus, v.classes) for v in vertices})
    assert len({id(tree.edges) for tree in trees}) == \
        len({tree.edges for tree in trees})


def _garbage_after(call):
    """How many unreachable objects the collector finds after one warm
    call, with the collector paused so that none is freed before the
    count.  Zero means reference counting freed everything the call left
    behind."""
    call()
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


_SEEDED = random_weight_data(random.Random(1500), 6)
_DEEP = ws.enumerate_strata(ws.validate(0, [1] * 6), 3)[-1].tree


@pytest.mark.parametrize("call", [
    *[pytest.param(lambda c=c: ws.enumerate_strata(ws.validate(0, [1] * 6),
                                                   c), id=f"strata-unit-{c}")
      for c in range(4)],
    *[pytest.param(lambda c=c: ws.enumerate_strata(_SEEDED, c),
                   id=f"strata-seeded-{c}") for c in range(4)],
    pytest.param(lambda: ws.canonical_key(_DEEP), id="canonical_key"),
    pytest.param(lambda: ws.canonical_form(_DEEP), id="canonical_form"),
    pytest.param(lambda: ws.enumerate_chambers(0, 4, ws.Granularity.FINE),
                 id="chambers-0-4"),
    pytest.param(lambda: ws.enumerate_chambers(1, 4, ws.Granularity.FINE),
                 id="chambers-1-4"),
    pytest.param(lambda: ws.stabilize(_DEEP, ws.validate(0, [1] * 6),
                                      ws.validate(0, [F(1, 2)] * 4 + [1] * 2)),
                 id="stabilize"),
    pytest.param(lambda: ws.forget(_DEEP, ws.validate(0, [1] * 6),
                                   [1, 2, 3, 4, 5]), id="forget"),
])
def test_no_cyclic_garbage(monkeypatch, call):
    """Stratum generation, canonical keys and forms, the chamber search and
    contraction free everything by reference counting."""
    monkeypatch.delenv("WEIGHTSCAPE_CACHE", raising=False)
    assert _garbage_after(call) == 0


def test_no_nested_recursive_functions():
    """No function nested in another loads its own name or the name of
    another function nested in the same enclosing function, and no `del`
    names one.  Such a closure holds a cell that refers back to it, a cycle
    that only the collector frees, so a recursive helper is module-level
    and takes its state as arguments."""
    found = []
    for path in sorted(Path(curves.__file__).parent.glob("*.py")):
        for outer in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nested = [f for f in ast.walk(outer) if f is not outer and
                      isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
            names = {f.name for f in nested}
            for f in nested:
                found += [(path.name, outer.name, f.name, node.id)
                          for node in ast.walk(f)
                          if isinstance(node, ast.Name) and node.id in names
                          and isinstance(node.ctx, ast.Load)]
            found += [(path.name, outer.name, "del", node.id)
                      for node in ast.walk(outer)
                      if isinstance(node, ast.Name) and node.id in names
                      and isinstance(node.ctx, ast.Del)]
    assert found == []

"""A datum built by `validate` carries the modes it satisfies, and entry
points validate only other data.

Every entry point still refuses an invalid datum with the error `validate`
gives for it; each `queries` entry point answers the same on a validated
datum and on its unrecorded twin `WeightData(g, weights)`; and a counter on
`validate` shows which calls check a datum again."""

import dataclasses
import random
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import weightscape as ws
from weightscape import git, named, weights
from weightscape.errors import (DegreeNotPositive, DomainError,
                                WeightOutOfRange)
from weightscape.weights import Granularity, Mode, WeightData

from conftest import random_stable_tree

F = Fraction
FINE = Granularity.FINE
S, Z = Mode.STRICT, Mode.ZERO_ALLOWED


def _root(n):
    return ws.marked_tree([(1, 0, [[m] for m in range(1, n + 1)])], [])


def _lin(n):
    return ws.Linearization.make([F(2, n)] * n)


def _good(n):
    return ws.validate(0, [1] * n)


# entry point -> (mode it checks the datum in, call on that datum)
ENTRY_POINTS = {
    "locate": (Z, lambda d: ws.locate(d, FINE)),
    "same_chamber-a": (Z, lambda d: ws.same_chamber(d, _good(d.n), FINE)),
    "same_chamber-b": (Z, lambda d: ws.same_chamber(_good(d.n), d, FINE)),
    "perturb_to_fine_chamber": (S, ws.perturb_to_fine_chamber),
    "universal_curve_weight": (S, ws.universal_curve_weight),
    "is_stable": (S, lambda d: ws.is_stable(_root(d.n), d)),
    "is_stable-zero": (Z, lambda d: ws.is_stable(_root(d.n), d, Z)),
    "vertex_log_degree": (Z, lambda d: ws.vertex_log_degree(_root(d.n), 1, d)),
    "stabilize-a": (Z, lambda d: ws.stabilize(_root(d.n), d, _good(d.n))),
    "stabilize-b": (Z, lambda d: ws.stabilize(_root(d.n), _good(d.n), d)),
    "forget": (Z, lambda d: ws.forget(_root(d.n), d, range(1, d.n + 1))),
    "enumerate_strata": (S, lambda d: ws.enumerate_strata(d, 0)),
    "boundary_divisors": (S, ws.boundary_divisors),
    "contracted_divisors-a": (
        S, lambda d: ws.contracted_divisors(d, _good(d.n))),
    "contracted_divisors-b": (
        Z, lambda d: ws.contracted_divisors(_good(d.n), d)),
    "is_reduction_iso-a": (S, lambda d: ws.is_reduction_iso(d, _good(d.n))),
    "is_reduction_iso-b": (Z, lambda d: ws.is_reduction_iso(_good(d.n), d)),
    "symmetrized_boundary_count": (
        S, lambda d: ws.symmetrized_boundary_count(
            d, [[m] for m in range(1, d.n + 1)])),
    "chamber_matches_quotient": (
        S, lambda d: ws.chamber_matches_quotient(d, _lin(d.n))),
    "classify": (S, ws.classify),
}
STRICT_POINTS = [k for k, (mode, _) in ENTRY_POINTS.items() if mode == S]
ZERO_POINTS = [k for k, (mode, _) in ENTRY_POINTS.items() if mode == Z]


@pytest.mark.parametrize("point", ENTRY_POINTS)
def test_hand_built_datum_is_refused(point):
    mode, call = ENTRY_POINTS[point]
    with pytest.raises(WeightOutOfRange) as info:
        call(WeightData(0, (F(3, 2), 1, 1)))
    assert info.value.index == 1
    assert str(info.value) == {S: "need 0 < a_1 <= 1, got 3/2",
                               Z: "need 0 <= a_1 <= 1, got 3/2"}[mode]


@pytest.mark.parametrize("point", STRICT_POINTS)
def test_zero_weight_datum_is_refused_where_strict(point):
    with pytest.raises(WeightOutOfRange, match=r"^need 0 < a_4 <= 1, got 0$"):
        ENTRY_POINTS[point][1](ws.validate(0, [1, 1, 1, 0], Z))


@pytest.mark.parametrize("point", STRICT_POINTS)
def test_boundary_datum_is_refused_where_strict(point):
    data = _lin(4).data
    with pytest.raises(DegreeNotPositive, match=r"^2g-2\+sum\(a\) = 0 <= 0$"):
        ENTRY_POINTS[point][1](data)


@pytest.mark.parametrize("point", ZERO_POINTS)
def test_boundary_datum_is_refused_where_zeros_are_allowed(point):
    """Sum 2 in genus 0 leaves no positive degree with zeros allowed too."""
    test_boundary_datum_is_refused_where_strict(point)


def test_record_leaves_equality_hash_and_repr_alone():
    data = ws.validate(0, ["1/2", 1, 1, "2/3"])
    twin = WeightData(0, data.weights)
    assert data == twin and hash(data) == hash(twin)
    assert repr(data) == repr(twin)
    assert [f.name for f in dataclasses.fields(data)] == ["genus", "weights"]


# -- the same answer on a validated datum and on its unrecorded twin --------

@st.composite
def query_inputs(draw):
    """(a, b, keep, seed): a STRICT datum at n = 4..7, b below it with zeros
    allowed, a kept set whose weights sum above 2, and a tree seed."""
    n = draw(st.integers(4, 7))
    den = draw(st.integers(1, 8))
    big = [F(draw(st.integers(1, den)), den) for _ in range(n)]
    assume(sum(big) > 2)
    small = [w * F(draw(st.integers(0, 10)), 10) for w in big]
    assume(sum(small) > 2)
    keep = list(range(1, n + 1))
    for m in draw(st.permutations(range(1, n + 1)))[:draw(
            st.integers(0, n - 3))]:
        if sum(big[k - 1] for k in keep if k != m) > 2:
            keep.remove(m)
    return (ws.validate(0, big), ws.validate(0, small, Z), keep,
            draw(st.integers(0, 10**6)))


def _outcome(call, *args):
    try:
        return "value", call(*args)
    except DomainError as exc:
        return type(exc), str(exc)


def _twin(data):
    return WeightData(data.genus, data.weights)


QUERY_CALLS = {
    "locate": lambda a, b, tree, keep: ws.locate(a, FINE),
    "perturb": lambda a, b, tree, keep: ws.perturb_to_fine_chamber(a),
    "ucurve": lambda a, b, tree, keep: ws.universal_curve_weight(a),
    "boundary": lambda a, b, tree, keep: ws.boundary_divisors(a),
    "reduce": lambda a, b, tree, keep: (ws.contracted_divisors(a, b),
                                        ws.is_reduction_iso(a, b)),
    "stabilize": lambda a, b, tree, keep: ws.stabilize(tree, a, b),
    "forget": lambda a, b, tree, keep: ws.forget(tree, a, keep),
    "classify": lambda a, b, tree, keep: ws.classify(a),
}


@settings(max_examples=60, deadline=None)
@given(query_inputs())
def test_unrecorded_twin_gives_the_same_answers(inputs):
    a, b, keep, seed = inputs
    tree = random_stable_tree(random.Random(seed), a)
    for kind, call in QUERY_CALLS.items():
        recorded = _outcome(call, a, b, tree, keep)
        for twin_a, twin_b in ((_twin(a), b), (a, _twin(b)),
                               (_twin(a), _twin(b))):
            assert _outcome(call, twin_a, twin_b, tree, keep) == recorded, \
                kind
    try:
        lin = git.tau(a)
    except DomainError:
        return
    if not git.is_typical(lin):
        return
    pre = git.tau_fine_preimage(lin)
    assert git.chamber_matches_quotient(_twin(pre), lin) == \
        git.chamber_matches_quotient(pre, lin)


# -- full validations, counted ----------------------------------------------

@pytest.fixture
def validations(monkeypatch):
    """Every call of `validate` from the library, as arguments: `_valid`
    reads it from `weights`, and `git` and `named` bind it to check data
    they build."""
    calls = []
    real = weights.validate

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (weights, git, named):
        monkeypatch.setattr(module, "validate", counting)
    return calls


def test_validated_data_are_not_checked_again(validations):
    a = ws.validate(0, ["3/4", "3/4", "1/2", "1/2", "1/3", "1/3"])
    b = ws.validate(0, ["3/4", "1/2", "1/2", "1/2", "1/3", 0], Z)
    # ZERO_ALLOWED without a zero weight is also STRICT
    also_strict = ws.validate(0, a.weights, Z)
    tree = random_stable_tree(random.Random(3), a)
    validations.clear()
    ws.contracted_divisors(a, b)
    ws.is_reduction_iso(a, b)
    ws.stabilize(tree, a, b)
    ws.forget(tree, a, [1, 2, 3, 4, 5])
    ws.boundary_divisors(a)
    ws.locate(a, FINE)
    ws.boundary_divisors(also_strict)
    assert validations == []


def test_tau_fine_preimage_validates_what_it_builds(validations):
    lin = ws.Linearization.make(["1/11", "5/13", "1/7", "6/13", "3/7",
                                 "492/1001"])
    validations.clear()
    pre = git.tau_fine_preimage(lin)
    assert validations == [(0, pre.weights, S)]


@pytest.mark.parametrize("unrecorded", [
    lambda d: WeightData(d.genus, d.weights),
    lambda d: dataclasses.replace(d),
    lambda d: type("Sub", (WeightData,), {})(d.genus, d.weights),
    lambda d: namedtuple("Duck", "genus weights")(d.genus, d.weights),
], ids=["hand-built", "replaced", "subclass", "duck-typed"])
def test_unrecorded_data_are_checked_in_full(validations, unrecorded):
    data = unrecorded(_good(5))
    validations.clear()
    ws.boundary_divisors(data)
    ws.locate(data, FINE)
    assert validations == [(0, data.weights, S), (0, data.weights, Z)]

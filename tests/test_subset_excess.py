"""Every sum-vs-1 predicate on `WeightData.excess` against the Fraction
scans kept in conftest.

Weights are drawn with denominators 1..6, so many subsets land exactly on
their wall: the `== 0` and `<= 0` boundaries are where a sign slip would
show."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import weightscape as ws
from weightscape.errors import AtypicalLinearization, OnWall
from weightscape.named import _matches_losev_manin, _matches_x, _matches_y
from weightscape.weights import _wall_masks

from conftest import (brute_force_boundary, fraction_divisor_fate,
                      fraction_git_stability, fraction_is_blowup_profile,
                      fraction_is_reduction_iso, fraction_locate,
                      fraction_matches_losev_manin, fraction_matches_quotient,
                      fraction_matches_x, fraction_matches_y,
                      fraction_perturb_eps, fraction_sum,
                      fraction_tau_fine_weights, fraction_ucurve_eps,
                      fraction_unit_subsets)

SETTINGS = settings(max_examples=150, deadline=None)


def _weights(*values):
    return ws.validate(0, [Fraction(v) for v in values])


@st.composite
def small_fraction(draw, zero=False):
    """k/d in [0, 1] (or (0, 1] unless zero) with d in 1..6."""
    den = draw(st.integers(1, 6))
    return Fraction(draw(st.integers(0 if zero else 1, den)), den)


@st.composite
def genus0_weights(draw, n=None):
    """Valid STRICT genus-0 weights with denominators 1..6."""
    n = n or draw(st.integers(3, 8))
    weights = tuple(draw(small_fraction()) for _ in range(n))
    assume(sum(weights) > 2)
    return ws.validate(0, weights)


@st.composite
def dominated_pair(draw, max_n=8):
    """(a, b) with b <= a componentwise, b valid, small denominators."""
    a = draw(genus0_weights(draw(st.integers(3, max_n))))
    b = tuple(w * draw(st.sampled_from([Fraction(1, 2), Fraction(2, 3),
                                        Fraction(5, 6), Fraction(1)]))
              for w in a.weights)
    assume(sum(b) > 2)
    return a, ws.validate(0, b, ws.Mode.ZERO_ALLOWED)


@st.composite
def linearization(draw, n=None):
    """Sum-2 tuples below 1 from integer parts 1..6: typical and atypical
    ones both come up often."""
    n = n or draw(st.integers(3, 8))
    parts = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    total = sum(parts)
    assume(all(2 * p < total for p in parts))
    return ws.Linearization.make([Fraction(2 * p, total) for p in parts])


@SETTINGS
@given(genus0_weights(), st.data())
def test_excess_is_scaled_distance_to_one(data, draw):
    subset = draw.draw(st.sets(st.integers(1, data.n)))
    den = data.scaled[1]
    assert data.excess(subset) == den * (fraction_sum(data.weights, subset) - 1)


@SETTINGS
@given(st.integers(0, 2), st.integers(1, 9), st.data())
def test_excess_table_matches_excess(genus, n, data):
    weights = tuple(data.draw(small_fraction(zero=True)) for _ in range(n))
    assume(2 * genus - 2 + sum(weights) > 0)
    datum = ws.validate(genus, weights, ws.Mode.ZERO_ALLOWED)
    table = datum.excess_table()
    assert len(table) == 1 << n
    for size in range(n + 1):
        for subset in combinations(range(1, n + 1), size):
            mask = sum(1 << (m - 1) for m in subset)
            assert table[mask] == datum.excess(subset)
    for granularity in ws.Granularity:  # a valid datum has walls
        assert _wall_masks(genus, n, granularity) == tuple(
            sum(1 << (m - 1) for m in wall.subset)
            for wall in ws.walls(genus, n, granularity))


@SETTINGS
@given(st.integers(0, 2), st.integers(3, 8), st.data())
def test_locate_matches_fraction_scan(genus, n, data):
    weights = tuple(data.draw(small_fraction(zero=True)) for _ in range(n))
    assume(2 * genus - 2 + sum(weights) > 0)
    datum = ws.validate(genus, weights, ws.Mode.ZERO_ALLOWED)
    for granularity in ws.Granularity:
        assert ws.locate(datum, granularity).positions == \
            fraction_locate(datum, granularity)


@SETTINGS
@given(genus0_weights())
def test_perturb_and_ucurve_match_fraction_gaps(data):
    step = fraction_perturb_eps(data) / data.n
    assert ws.perturb_to_fine_chamber(data).weights == \
        tuple(w - step for w in data.weights)
    eps = fraction_ucurve_eps(data)
    if eps is None:
        with pytest.raises(OnWall):
            ws.universal_curve_weight(data)
    else:
        assert ws.universal_curve_weight(data).weights == data.weights + (eps,)


@SETTINGS
@given(dominated_pair(max_n=10))
# {1, 2, 3} sums to exactly 1 on both sides: on its wall, it does not cross
@example((_weights("1/3", "1/3", "1/3", "1", "1"),
          _weights("1/3", "1/3", "1/3", "1", "1")))
def test_reduction_iso_matches_fraction_scan(pair):
    a, b = pair
    assert ws.is_reduction_iso(a, b) == \
        fraction_is_reduction_iso(a.weights, b.weights)


@SETTINGS
@given(dominated_pair())
def test_divisor_scans_match_fraction_scans(pair):
    a, b = pair
    nodal, pairs = brute_force_boundary(a)
    divisors = ws.boundary_divisors(a)
    assert {frozenset((d.members, d.complement)) for d in divisors
            if d.kind == ws.DivisorKind.NODAL} == nodal
    assert {d.members for d in divisors
            if d.kind == ws.DivisorKind.COINCIDENCE} == pairs
    assert list(divisors) == sorted(divisors, key=ws.BoundaryDivisor.sort_key)
    fates = ws.contracted_divisors(a, b)
    assert [f.divisor for f in fates] == list(divisors)
    for fate in fates:
        assert (fate.status, fate.collapsed_side) == \
            fraction_divisor_fate(fate.divisor, b.weights)


@SETTINGS
@given(genus0_weights(), st.data())
def test_blowup_profile_matches_fraction_scan(data, draw):
    members = draw.draw(st.sets(st.integers(1, data.n), min_size=3))
    assert ws.is_blowup_profile(data, members) == \
        fraction_is_blowup_profile(data.weights, members)


def test_blowup_profile_on_its_wall():
    # {3, 5, 7} sums to exactly 1 and each of its pairs to 2/3
    data = _weights("2/3", "3/4", "1/3", "1/2", "1/3", "5/6", "1/3")
    assert not ws.is_blowup_profile(data, (3, 5, 7))
    assert not fraction_is_blowup_profile(data.weights, (3, 5, 7))
    # {1, 2, 3} sums to 3/2 and each of its pairs to exactly 1
    data = _weights("1/2", "1/2", "1/2", "1", "1")
    assert ws.is_blowup_profile(data, (1, 2, 3))
    assert fraction_is_blowup_profile(data.weights, (1, 2, 3))


@SETTINGS
@given(linearization(), st.data())
def test_git_scans_match_fraction_scans(lin, data):
    n = lin.n
    units = fraction_unit_subsets(lin.t)
    assert ws.is_typical(lin) == (not units)
    everything = frozenset(range(1, n + 1))
    assert set(ws.strictly_semistable_types(lin)) == \
        {s if 1 in s else everything - s for s in units}
    classes = data.draw(st.lists(st.integers(1, n), min_size=n, max_size=n))
    config = ws.ConfigType.make(
        [[m for m in range(1, n + 1) if classes[m - 1] == c]
         for c in sorted(set(classes))])
    assert ws.stability(config, lin) == \
        fraction_git_stability(config.classes, lin.t)
    expected = fraction_tau_fine_weights(lin.t)
    if expected is None:
        with pytest.raises(AtypicalLinearization):
            ws.tau_fine_preimage(lin)
    else:
        assert ws.tau_fine_preimage(lin).weights == expected


@SETTINGS
@given(st.data())
def test_quotient_match_matches_fraction_scan(data):
    lin = data.draw(linearization())
    datum = data.draw(genus0_weights(lin.n))
    if fraction_unit_subsets(lin.t):
        with pytest.raises(AtypicalLinearization):
            ws.chamber_matches_quotient(datum, lin)
        return
    match = ws.chamber_matches_quotient(datum, lin)
    assert (match.matches, match.mismatched_subsets,
            match.ambiguous_subsets) == \
        fraction_matches_quotient(datum.weights, lin.t)


def test_quotient_match_on_tau_preimages():
    # the typical case the quotient comparison is built for
    for n in range(4, 8):
        for parts in combinations(range(1, 2 * n), n):
            if 2 * max(parts) >= sum(parts):
                continue
            lin = ws.Linearization.make(
                [Fraction(2 * p, sum(parts)) for p in parts])
            if not ws.is_typical(lin):
                continue
            pre = ws.tau_fine_preimage(lin)
            match = ws.chamber_matches_quotient(pre, lin)
            assert (match.matches, match.mismatched_subsets,
                    match.ambiguous_subsets) == \
                fraction_matches_quotient(pre.weights, lin.t)
            break


@st.composite
def near_named(draw):
    """A named family's canonical weights with up to two entries
    replaced by small-denominator values, or plain random weights."""
    n = draw(st.integers(4, 8))
    tags = ["LM"] + [f"X({k})" for k in range(n - 3)]
    tags += [f"Y({k})" for k in range(2 * n - 8)] if n >= 5 else []
    weights = list(ws.weights_for(ws.parse_tag(draw(st.sampled_from(tags)),
                                               n)).weights)
    for _ in range(draw(st.integers(0, 2))):
        weights[draw(st.integers(0, n - 1))] = draw(small_fraction())
    assume(sum(weights) > 2)
    return ws.validate(0, weights)


# Each example has one pair summing to exactly 1 (or one fixed index
# whose threshold fails alone) while every other condition holds, so a
# `<= 1` read as `< 1` changes the verdict.
@SETTINGS
@given(st.one_of(near_named(), genus0_weights()))
@example(_weights("1/3", "1/2", "2/5", "2/5", "2/5", "2/3"))
@example(_weights("1/2", "1/2", "3/5", "1/4", "1/6", "2/3"))
@example(_weights("1/2", "2/3", "3/4", "1/6", "1/6"))
@example(_weights("3/4", "1", "1/3", "2/5", "1/4"))
@example(_weights("1", "4/5", "3/5", "1/5"))
def test_named_thresholds_match_fraction_scans(data):
    n, table = data.n, data.excess_table()
    assert _matches_losev_manin(table, n) == \
        fraction_matches_losev_manin(data.weights)
    for k in range(0, n - 3):
        assert _matches_x(table, n, k) == fraction_matches_x(data.weights, k)
    if n >= 5:
        for k in range(0, 2 * n - 8):
            assert _matches_y(table, n, k) == \
                fraction_matches_y(data.weights, k)


def test_named_representatives_classify_as_themselves():
    # the canonical representatives must pass their own threshold system
    for n in range(5, 9):
        for k in range(n - 3):
            data = ws.weights_for(ws.kapranov_x(n, k))
            assert fraction_matches_x(data.weights, k)
            assert ws.kapranov_x(n, k) in ws.classify(data)
        data = ws.weights_for(ws.losev_manin(n))
        assert fraction_matches_losev_manin(data.weights)
        assert ws.losev_manin(n) in ws.classify(data)

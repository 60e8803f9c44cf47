import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from weightscape.errors import DomainError, InternalInvariantError
from weightscape.ratcore import _extend, _scaled_point, _stages, rat, rat_str

from conftest import (fraction_solve, reference_extend,
                      reference_scaled_point)

F = Fraction

# Rows are the engine's (coeffs, bound): coeffs . x < bound, all entries
# integers.  Every system starts from the box rows -B < x_i < B in its base
# stages, as the chamber search starts from the domain rows, so that each
# variable is bounded on both sides.
B = 8


def box(dim):
    """The rows x_i < B and -x_i < B of every coordinate."""
    return [(tuple(side * (i == j) for i in range(dim)), B)
            for j in range(dim) for side in (1, -1)]


def base(order, dim):
    """The stages of the box rows, eliminating `order`."""
    return _extend(_stages(order), box(dim))


def solve(dim, rows):
    """The engine's point for the box and `rows`, eliminating x_0 first, or
    None when the rows are infeasible."""
    stages = _extend(base(range(dim), dim), rows)
    return None if stages is None else tuple(engine_point(stages, dim))


def oracle(dim, rows, want_point):
    """`conftest.fraction_solve` on the box and `rows`, every row strict."""
    return fraction_solve(dim, [(coeffs, bound, True)
                                for coeffs, bound in box(dim) + rows],
                          want_point)


def engine_point(stages, dim):
    """The engine's back-substituted point, one Fraction per coordinate."""
    nums, den = _scaled_point(stages, dim)
    return [F(x, den) for x in nums]


def holds(row, point):
    coeffs, bound = row
    return sum(c * x for c, x in zip(coeffs, point)) < bound


def integer_row(coeffs, bound):
    """A row with rational entries scaled by the least common denominator."""
    scale = lcm(bound.denominator, *(c.denominator for c in coeffs))
    return tuple(int(c * scale) for c in coeffs), int(bound * scale)


def test_rat_parsing_and_serialization():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7") == Fraction(-7)
    assert rat_str(Fraction(6, 8)) == "3/4"
    assert rat_str(Fraction(5, 1)) == "5"
    assert rat_str(Fraction(-2, 4)) == "-1/2"
    with pytest.raises(TypeError):
        rat(0.5)
    for flag in (True, False):
        with pytest.raises(DomainError):
            rat(flag)


def test_open_unit_interval_feasible():
    (x,) = solve(1, [((-1,), 0), ((1,), 1)])
    assert x == Fraction(1, 2)


def test_strict_contradiction_infeasible():
    assert solve(1, [((-1,), 0), ((1,), 0)]) is None


def test_strict_pinch_infeasible():
    assert solve(1, [((1,), 2), ((-1,), -2)]) is None


def test_present_iff_feasible_and_exact_membership(rng):
    for _ in range(200):
        dim = rng.randint(1, 3)
        rows = [(tuple(rng.randint(-4, 4) for _ in range(dim)),
                 rng.randint(-6, 6))
                for _ in range(rng.randint(1, 6))]
        point = solve(dim, rows)
        assert (point is not None) == oracle(dim, rows, False)[0]
        if point is not None:
            assert all(holds(row, point) for row in box(dim) + rows)


@st.composite
def small_systems(draw):
    dim = draw(st.integers(1, 3))
    rows = [(tuple(draw(st.integers(-3, 3)) for _ in range(dim)),
             draw(st.integers(-5, 5)))
            for _ in range(draw(st.integers(1, 5)))]
    return dim, rows


@settings(max_examples=120, deadline=None)
@given(small_systems(), st.randoms(use_true_random=False))
def test_feasibility_invariant_under_permutation_and_scaling(drawn, rnd):
    dim, rows = drawn
    base = solve(dim, rows) is not None
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    scaled = []
    for coeffs, bound in shuffled:
        factor = rnd.randint(1, 5)
        scaled.append((tuple(factor * c for c in coeffs), factor * bound))
    assert (solve(dim, scaled) is not None) == base


def _grid_has_witness(rows, dim, reach=2, denom=64):
    """Exact integer scan of the grid (i/denom) over [-reach, reach]^dim."""
    import numpy as np

    ticks = np.arange(-reach * denom, reach * denom + 1, dtype=np.int64)
    axes = np.meshgrid(*([ticks] * dim), indexing="ij", copy=False)
    ok = np.ones(axes[0].shape, dtype=bool)
    for coeffs, bound in rows:
        # sum(coeff * x) < bound with x = i/denom is exact in integers
        ok &= sum(co * ax for co, ax in zip(coeffs, axes)) < bound * denom
    return bool(ok.any())


def test_grid_oracle_agreement(rng):
    # every feasibility the dense grid can witness must be confirmed;
    # integer data bounded by 10, grid step 1/64, the grid inside the box
    for trial in range(60):
        dim = rng.randint(1, 3)
        rows = [(tuple(rng.randint(-10, 10) for _ in range(dim)),
                 rng.randint(-10, 10))
                for _ in range(rng.randint(1, 4))]
        # dim 3 scans the 1/8 sublattice of the 1/64 grid to bound runtime;
        # any witness found there is a 1/64-grid witness
        denom = 64 if dim <= 2 else 8
        if _grid_has_witness(rows, dim, denom=denom):
            assert solve(dim, rows) is not None


@st.composite
def rational_systems(draw):
    """Dimension 1-4, up to six rows with rational entries, and up to three
    multiples of drawn rows with a shifted bound, so parallel and opposite
    rows meet in the pruning; each row is scaled to integers."""
    dim = draw(st.integers(1, 4))
    entry = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
    rows = [(tuple(draw(entry) for _ in range(dim)),
             Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 3))))
            for _ in range(draw(st.integers(1, 6)))]
    for _ in range(draw(st.integers(0, 3))):
        coeffs, bound = draw(st.sampled_from(rows))
        factor = Fraction(draw(st.sampled_from([-2, -1, 1, 2, 3])),
                          draw(st.integers(1, 3)))
        shift = Fraction(draw(st.integers(-1, 1)), 2)
        rows.append((tuple(factor * c for c in coeffs),
                     factor * (bound + shift)))
    return dim, [integer_row(*row) for row in rows]


@settings(max_examples=300, deadline=None)
@given(rational_systems())
def test_interior_point_matches_fraction_oracle(drawn):
    # the integer kernel rescales rows only, so its point is the oracle's
    dim, rows = drawn
    assert solve(dim, rows) == oracle(dim, rows, True)[1]


@pytest.fixture
def rng():
    return random.Random(7)


@st.composite
def row_sequences(draw):
    """Integer rows (coeffs, bound) in dimension 1-5: drawn rows, then
    parallel and opposite multiples of earlier rows with a shifted bound,
    in drawn order.  Elimination without pruning can grow doubly
    exponentially, so dimension 5 draws at most 5 rows: with 9, single
    feasible systems took seconds, and one search over 300 of them up to
    a minute."""
    dim = draw(st.integers(1, 5))
    rows = []
    for _ in range(draw(st.integers(1, 9 if dim < 5 else 5))):
        if rows and draw(st.booleans()):
            coeffs, bound = draw(st.sampled_from(rows))
            factor = draw(st.sampled_from([-2, -1, 1, 2, 3]))
            rows.append((tuple(factor * c for c in coeffs),
                         factor * bound + draw(st.integers(-1, 1))))
        else:
            rows.append((tuple(draw(st.integers(-3, 3)) for _ in range(dim)),
                         draw(st.integers(-5, 5))))
    return dim, rows


@settings(max_examples=300, deadline=None)
@given(row_sequences(), st.data())
def test_incremental_elimination_matches_from_scratch(drawn, data):
    # adding rows in drawn batches to the stages of the rows before them,
    # and a sibling row to the same parent stages, gives the feasibility
    # and the exact point of elimination from scratch and of the oracle
    dim, rows = drawn
    stages, done = base(range(dim), dim), 0
    while done < len(rows) and stages is not None:
        size = data.draw(st.integers(1, len(rows) - done))
        batch = rows[done:done + size]
        sibling = data.draw(st.sampled_from(rows))
        for added in (batch, [sibling], batch):
            prefix = rows[:done] + added
            extended = _extend(stages, added)
            expected = solve(dim, prefix)
            assert expected == oracle(dim, prefix, True)[1]
            assert (extended is not None) == (expected is not None)
            if extended is not None:
                assert tuple(engine_point(extended, dim)) == expected
        stages, done = extended, done + size


def _stage(var, *rows):
    """A hand-built stage eliminating x_var, from rows (coeffs, bound)."""
    return var, {i: (coeffs, bound, 1)
                 for i, (coeffs, bound) in enumerate(rows)}


def _fraction_point(stages, dimension):
    """Back-substitution through `stages` with the Fraction oracle."""
    from conftest import fraction_pick_value
    values = [None] * dimension
    for var, kept in reversed(stages):
        values[var] = fraction_pick_value(
            var, [(coeffs, bound, True) for coeffs, bound, _ in kept.values()],
            values)
    return values


# y = x_1 is fixed at 1/2 first, so x = x_0's limits are over den = 2
_Y_HALF = _stage(1, ((0, -1), 0), ((0, 1), 1))


@pytest.mark.parametrize("stages, expected", [
    # 2x + y < 4 is x < 7/4 and beats x < 2, although its numerator
    # 4 * 2 - 1 = 7 exceeds the 2 * 2 = 4 of x < 2
    ([_stage(0, ((1, 0), 2), ((2, 1), 4), ((-1, 0), 0)), _Y_HALF],
     [F(7, 8), F(1, 2)]),
    ([_stage(0, ((2, 1), 4), ((1, 0), 2), ((-1, 0), 0)), _Y_HALF],
     [F(7, 8), F(1, 2)]),
    # -5x - 2y < -4 is x > 3/5 and loses to x > 1, although its numerator
    # 6 exceeds the 2 of x > 1
    ([_stage(0, ((-5, -2), -4), ((-1, 0), -1), ((1, 0), 2)), _Y_HALF],
     [F(3, 2), F(1, 2)]),
    ([_stage(0, ((-1, 0), -1), ((-5, -2), -4), ((1, 0), 2)), _Y_HALF],
     [F(3, 2), F(1, 2)]),
], ids=["uppers-cross", "uppers-cross-reversed", "lowers-cross",
        "lowers-cross-reversed"])
def test_back_substitution_cases(stages, expected):
    assert engine_point(stages, len(expected)) == expected
    assert _fraction_point(stages, len(expected)) == expected


@pytest.mark.parametrize("stages", [
    # equal limits, the upper or the lower row first
    [_stage(0, ((1,), 1), ((-1,), -1))],
    [_stage(0, ((-1,), -1), ((1,), 1))],
    # crossing limits
    [_stage(0, ((1,), 1), ((-1,), -2))],
    # two rows give one side the same limit, in either order
    [_stage(0, ((2,), 2), ((1,), 1), ((-1,), -1))],
    [_stage(0, ((1,), 1), ((2,), 2), ((-1,), -1))],
    [_stage(0, ((-2,), -2), ((-1,), -1), ((1,), 1))],
    [_stage(0, ((-1,), -1), ((-2,), -2), ((1,), 1))],
    # x < 5/4 and x > 5/4 once y = 1/2
    [_stage(0, ((2, 1), 3), ((-4, 0), -5)), _Y_HALF],
], ids=["strict-upper", "strict-lower", "both-strict", "strict-upper-first",
        "strict-upper-second", "strict-lower-first", "strict-lower-second",
        "strict-upper-over-den"])
def test_back_substitution_empty_interval(stages):
    dimension = max(var for var, _ in stages) + 1
    with pytest.raises(InternalInvariantError, match="empty interval"):
        engine_point(stages, dimension)
    with pytest.raises(AssertionError):
        _fraction_point(stages, dimension)


@pytest.mark.parametrize("stages", [
    [_stage(0)],
    [_stage(0), _Y_HALF],
    [_stage(0, ((2,), 3))],
    [_stage(0, ((2, 1), 1)), _Y_HALF],
    [_stage(0, ((-3,), -1))],
    [_stage(0, ((-2, 1), -1)), _Y_HALF],
], ids=["no-rows", "no-rows-over-den", "upper-only", "upper-only-over-den",
        "lower-only", "lower-only-over-den"])
def test_back_substitution_needs_both_limits(stages):
    # the engine's precondition: the base rows bound every variable on
    # both sides, and a stage that breaks it is an invariant breach
    dimension = max(var for var, _ in stages) + 1
    with pytest.raises(InternalInvariantError, match="missing limit"):
        engine_point(stages, dimension)


@settings(max_examples=300, deadline=None)
@given(row_sequences(), st.data())
def test_point_matches_fraction_back_substitution(drawn, data):
    # after every row a search would add, in a drawn elimination order
    dim, rows = drawn
    stages = base(data.draw(st.permutations(range(dim))), dim)
    for row in rows:
        stages = _extend(stages, [row])
        if stages is None:
            break
        assert engine_point(stages, dim) == _fraction_point(stages, dim)


def _layout(stages):
    """Each stage's variable and its rows in insertion order."""
    return None if stages is None else \
        [(var, list(kept.items())) for var, kept in stages]


@settings(max_examples=300, deadline=None)
@given(row_sequences(), st.data())
def test_kernel_matches_reference_kernel(drawn, data):
    # the box rows in one batch, then the drawn rows in drawn batches, most
    # of them one row, in a drawn elimination order: after every call the
    # stages hold the reference's rows in the reference's order, and the
    # back-substitution picks the reference's point
    dim, rows = drawn
    order = data.draw(st.permutations(range(dim)))
    ours = _extend(_stages(order), box(dim))
    theirs = reference_extend(_stages(order), box(dim))
    done = 0
    while True:
        assert _layout(ours) == _layout(theirs)
        if ours is None:
            break
        assert _scaled_point(ours, dim) == reference_scaled_point(theirs, dim)
        if done == len(rows):
            break
        batch = rows[done:done + data.draw(st.sampled_from([1, 1, 1, 2, 3]))]
        ours, theirs = _extend(ours, batch), reference_extend(theirs, batch)
        done += len(batch)

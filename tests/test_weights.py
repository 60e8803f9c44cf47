import hashlib
import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import weightscape as ws
from weightscape.errors import (BoundarySumMismatch, DegreeNotPositive,
                                DomainError, LimitExceeded, OnWall,
                                WeightOutOfRange)
from weightscape.weights import (Granularity, Mode, Position, chambers_json,
                                 integer_scaled)

from conftest import (CACHE_TAMPERS, fraction_sum, fraction_validate,
                      refuse_cache_read, tamper_chamber_cache)

F = Fraction
FINE = Granularity.FINE
COARSE = Granularity.COARSE


class TestValidate:
    def test_classical_weights(self):
        data = ws.validate(0, [1, 1, 1, 1])
        assert data.total == 4

    def test_degree_failure(self):
        with pytest.raises(DegreeNotPositive):
            ws.validate(0, [F(1, 2)] * 4)

    def test_boundary_mode(self):
        data = ws.validate(0, [F(1, 3)] * 6, Mode.BOUNDARY)
        assert data.total == 2
        with pytest.raises(BoundarySumMismatch):
            ws.validate(0, [F(1, 2)] * 5, Mode.BOUNDARY)
        with pytest.raises(WeightOutOfRange):
            ws.validate(0, [1, F(1, 2), F(1, 2)], Mode.BOUNDARY)

    def test_out_of_range_reports_index(self):
        with pytest.raises(WeightOutOfRange) as info:
            ws.validate(0, [1, F(3, 2), 1])
        assert info.value.index == 2

    def test_zero_allowed(self):
        ws.validate(0, [1, 1, 1, 0], Mode.ZERO_ALLOWED)
        with pytest.raises(WeightOutOfRange):
            ws.validate(0, [1, 1, 1, 0], Mode.STRICT)

    def test_genus_contributes_degree(self):
        ws.validate(2, [F(1, 10)])  # 2g-2 = 2 > 0 regardless of the weight

    @pytest.mark.parametrize("weights", ["1111", {"1": 1, "2": 1, "3": 1},
                                         5, None, iter([1, 1, 1])])
    def test_weights_must_be_a_list(self, weights):
        # a string would iterate by character and a mapping by its keys
        with pytest.raises(DomainError, match="^a must be a list"):
            ws.validate(0, weights)

    def test_bool_rejected(self):
        # bool is an int subclass; accepted, True would serialize as "true"
        with pytest.raises(DomainError):
            ws.validate(True, [1, 1, 1])
        with pytest.raises(DomainError):
            ws.validate(0, [True, 1, 1])
        with pytest.raises(DomainError):
            ws.validate(0, [1, 1, 1, False], Mode.ZERO_ALLOWED)


def _outcome(check, genus, weights, mode):
    """The weights a validator returns, or its exception's type, index
    and message."""
    try:
        return ("ok", tuple(check(genus, weights, mode)))
    except DomainError as exc:
        return (type(exc), getattr(exc, "index", None), str(exc))


@st.composite
def edge_weights(draw):
    """(genus, weights, mode) near every edge `validate` checks: entries of
    exactly 0 or 1 among k/d for d in 1..6 and k in -1..d+1, and often a
    last entry that makes the sum exactly 2 or 2g-2+sum(a) exactly 0.  Each
    entry comes as a Fraction, an int when integral, or a p/q string."""
    genus = draw(st.integers(0, 2))
    mode = draw(st.sampled_from(list(Mode)))
    values = []
    for _ in range(draw(st.integers(1, 6))):
        den = draw(st.integers(1, 6))
        values.append(Fraction(draw(st.integers(-1, den + 1)), den))
    target = draw(st.sampled_from([None, 2, 2 - 2 * genus]))
    if target is not None:
        values[-1] = target - sum(values[:-1])
    forms = [draw(st.sampled_from(["fraction", "int", "string"]))
             for _ in values]
    weights = [str(v) if form == "string"
               else v.numerator if form == "int" and v.denominator == 1
               else v for v, form in zip(values, forms)]
    return genus, weights, mode


@settings(max_examples=400, deadline=None)
@given(edge_weights())
@example((0, [0, 1, 1, 1], Mode.ZERO_ALLOWED))
@example((0, [0, 1, 1, 1], Mode.STRICT))
@example((0, ["1/2", "1/2", "1/2", "1/2"], Mode.BOUNDARY))
@example((0, [1, "1/2", "1/2"], Mode.BOUNDARY))
@example((0, ["1/2", "1/2", "1/2", "1/2"], Mode.STRICT))
@example((1, [0], Mode.ZERO_ALLOWED))
@example((1, [Fraction(1, 3)], Mode.BOUNDARY))
@example((0, [1, "3/2", -1], Mode.ZERO_ALLOWED))
def test_validate_matches_fraction_validate(case):
    genus, weights, mode = case
    expected = _outcome(fraction_validate, genus, weights, mode)
    got = _outcome(lambda g, w, m: ws.validate(g, w, m).weights,
                   genus, weights, mode)
    assert got == expected
    if got[0] == "ok":
        data = ws.validate(genus, weights, mode)
        assert all(type(w) is Fraction for w in data.weights)
        assert data.scaled == integer_scaled(data.weight_map())


# `validate` reads a string as Fraction(s.strip()): these forms are part of
# the input grammar, and serialization always gives p/q in lowest terms
@pytest.mark.parametrize("text, value, out", [
    ("0.5", F(1, 2), "1/2"), (" 1/2", F(1, 2), "1/2"),
    ("1e-1", F(1, 10), "1/10"), ("+1/2", F(1, 2), "1/2"),
    ("1_0/20", F(1, 2), "1/2"), ("2/4", F(1, 2), "1/2")])
def test_rational_strings_accepted(text, value, out):
    data = ws.validate(0, [text, 1, 1, 1])
    assert data.weights[0] == value
    assert data.to_json_dict()["weights"][0] == out


@pytest.mark.parametrize("weights, message", [
    (["nan", 1, 1, 1], "a_1 = 'nan' is not an exact rational"),
    (["1/0", 1, 1, 1], "a_1 = '1/0' is not an exact rational"),
    (["1/ 2", 1, 1, 1], "a_1 = '1/ 2' is not an exact rational"),
    (["", 1, 1, 1], "a_1 = '' is not an exact rational"),
    ([True, 1, 1, 1], "a_1 = True is not an exact rational"),
    ([0.5, 1, 1, 1], "a_1 = 0.5 is not an exact rational"),
    ([1, "x", 0.5, 1], "a_2 = 'x' is not an exact rational")])
def test_rational_strings_rejected(weights, message):
    with pytest.raises(DomainError) as info:
        ws.validate(0, weights)
    assert type(info.value) is DomainError and str(info.value) == message


# a WeightData built directly is not validated; its integer form parses the
# weights as `validate` does, so a weight that is no exact rational is a
# DomainError wherever that form is read, and an exact string is read as one
@pytest.mark.parametrize("call", [
    lambda d: d.excess([1, 2]), lambda d: d.excess_table(),
    lambda d: ws.is_blowup_profile(d, [1, 2, 3])])
@pytest.mark.parametrize("weights, message", [
    ((F(1, 2), 0.5, F(1, 2), F(3, 4)), "a_2 = 0.5 is not an exact rational"),
    ((F(1, 2), "1/0", F(1, 2), F(3, 4)),
     "a_2 = '1/0' is not an exact rational"),
    ((True, 1, 1, 1), "a_1 = True is not an exact rational")])
def test_hand_built_inexact_weights_rejected(call, weights, message):
    with pytest.raises(DomainError) as info:
        call(ws.WeightData(0, weights))
    assert type(info.value) is DomainError and str(info.value) == message
    exact = ws.WeightData(0, ("1/2",) * 5)
    assert call(exact) == call(ws.validate(0, ["1/2"] * 5))


class TestWalls:
    def test_fine_n5_counts(self):
        found = ws.walls(0, 5, FINE)
        assert len(found) == 20  # C(5,2)+C(5,3), all nonempty
        sizes = sorted(len(w.subset) for w in found)
        assert sizes == [2] * 10 + [3] * 10

    def test_coarse_n5_empty(self):
        assert ws.walls(0, 5, COARSE) == ()

    def test_fine_small_n_empty_range(self):
        assert ws.walls(1, 2, FINE) == ()

    def test_coarse_n6_strict_range(self):
        found = ws.walls(0, 6, COARSE)
        assert {len(w.subset) for w in found} == {3}
        assert len(found) == 20

    def test_sorted_canonically(self):
        found = ws.walls(0, 5, FINE)
        keys = [w.sort_key() for w in found]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("granularity", [FINE, COARSE])
    @pytest.mark.parametrize("genus", [0, 1, 2])
    def test_every_subset_in_range_meets_the_domain(self, genus, granularity):
        # the closed form against exact solves per subset: the domain is
        # convex, so the wall sum_S a = 1 meets it exactly when the domain
        # meets both closed half-spaces sum_S a <= 1 and sum_S a >= 1
        from conftest import fraction_solve
        for n in range(3 if genus == 0 else 1, 10):
            sizes = range(2, n - 1) if granularity == FINE else range(3, n - 2)
            domain = [((-1,) * n, 2 * genus - 2, True)]
            for j in range(n):
                unit = tuple(int(i == j) for i in range(n))
                domain.append((tuple(-c for c in unit), 0, True))
                domain.append((unit, 1, False))
            meets = []
            for size in sizes:
                for s in combinations(range(1, n + 1), size):
                    side = tuple(int(i in s) for i in range(1, n + 1))
                    below = (side, 1, False)
                    above = (tuple(-c for c in side), -1, False)
                    if all(fraction_solve(n, domain + [half], False)[0]
                           for half in (below, above)):
                        meets.append(frozenset(s))
            assert [w.subset for w in ws.walls(genus, n, granularity)] == meets

    def test_guards(self):
        for genus, n in ((0, 2), (-1, 5), ("1", 5), (0, 0), (0, "5")):
            with pytest.raises(DomainError):
                ws.walls(genus, n, FINE)

    def test_bool_genus_or_n_rejected(self):
        # True would pass as 1, and would hit the memoized genus-1 entry
        ws.walls(0, 4, FINE), ws.walls(1, 4, FINE), ws.walls(1, 1, FINE)
        for genus, n in ((True, 4), (False, 4), (0, True), (1, True)):
            with pytest.raises(DomainError):
                ws.walls(genus, n, FINE)


class TestLocate:
    def test_all_above(self):
        vec = ws.locate(ws.validate(0, [1, 1, 1, 1]), FINE)
        assert vec.positions == (Position.ABOVE,) * 6

    def test_on_and_above(self):
        vec = ws.locate(ws.validate(0, [F(1, 2)] * 5), FINE)
        wall_list = ws.walls(0, 5, FINE)
        for wall, pos in zip(wall_list, vec.positions):
            expected = Position.ON if len(wall.subset) == 2 else Position.ABOVE
            assert pos == expected

    def test_kapranov_x1_positions(self):
        data = ws.validate(0, [1] + [F(1, 3)] * 5)
        vec = ws.locate(data, FINE)
        for wall, pos in zip(ws.walls(0, 6, FINE), vec.positions):
            total = fraction_sum(data.weights, wall.subset)
            if total > 1:
                assert pos == Position.ABOVE
            elif total < 1:
                assert pos == Position.BELOW
            else:
                assert pos == Position.ON
        # family signature: pairs without the heavy point sit below,
        # triples without it sit exactly on their walls
        below = {tuple(sorted(w.subset))
                 for w, p in zip(ws.walls(0, 6, FINE), vec.positions)
                 if p == Position.BELOW}
        assert below == {t for t in map(tuple, map(sorted, combinations(range(2, 7), 2)))}


class TestSameChamber:
    def test_same(self):
        a = ws.validate(0, [1, 1, 1, 1])
        b = ws.validate(0, [1, 1, 1, F(9, 10)])
        assert ws.same_chamber(a, b, FINE)

    def test_dimension_mismatch(self):
        a = ws.validate(0, [1, 1, 1, 1])
        b = ws.validate(0, [1] + [F(1, 3)] * 5)
        with pytest.raises(DomainError):
            ws.same_chamber(a, b, FINE)

    def test_on_wall(self):
        a = ws.validate(0, [F(2, 3)] * 5)
        b = ws.validate(0, [F(1, 2)] * 5)
        with pytest.raises(OnWall):
            ws.same_chamber(a, b, FINE)


class TestEnumerateChambers:
    def test_no_walls_single_chamber(self):
        chambers = ws.enumerate_chambers(0, 5, COARSE)
        assert len(chambers) == 1
        assert chambers[0].sign_vector.positions == ()

    def test_limit_guard(self):
        with pytest.raises(LimitExceeded):
            ws.enumerate_chambers(0, 9, FINE)

    @pytest.mark.parametrize("limit", [-1, True, False, 4.0, "8"])
    def test_limit_grammar(self, limit):
        with pytest.raises(DomainError, match="limit must be"):
            ws.enumerate_chambers(0, 4, FINE, limit=limit)

    @pytest.mark.parametrize("point, breach", [
        ((F(2), F(1), F(1), F(1)), True),   # a_1 > 1
        ((F(0), F(1), F(1), F(1)), True),   # a_1 = 0
        ((F(1, 2),) * 4, True),             # 2g - 2 + sum = 0
        ((F(1),) * 4, False),               # a_j = 1 lies in the domain
    ])
    def test_leaf_outside_the_domain_is_an_internal_error(self, monkeypatch,
                                                          point, breach):
        from weightscape import weights
        from weightscape.errors import InternalInvariantError
        nums, den = weights.integer_scaled(dict(enumerate(point)))
        monkeypatch.setattr(weights, "_scaled_point",
                            lambda stages, n: (list(nums.values()), den))
        if not breach:
            chambers = ws.enumerate_chambers(0, 4, FINE)
            assert {c.representative.weights for c in chambers} == {point}
            return
        with pytest.raises(InternalInvariantError, match="leaves the domain"):
            ws.enumerate_chambers(0, 4, FINE)

    @pytest.mark.parametrize("nums, den, breach", [
        ([6, 4, 4, 4], 4, True),     # a_1 = 3/2 over a den that is no lcm
        ([2, 2, 2, 2], 4, True),     # sum = 2 exactly
        ([4, 4, 4, 4], 4, False),    # every a_j = 1
        ([4, 2, 2, 2], 4, False),    # sum = 5/2
    ])
    def test_leaf_domain_on_running_denominator(self, monkeypatch, nums,
                                                den, breach):
        """The leaf tests the numerators over back-substitution's running
        denominator, which need not be the lcm of the reduced weights."""
        from weightscape import weights
        from weightscape.errors import InternalInvariantError
        monkeypatch.setattr(weights, "_scaled_point",
                            lambda stages, n: (list(nums), den))
        if breach:
            with pytest.raises(InternalInvariantError,
                               match=r"the point .* leaves the domain"):
                ws.enumerate_chambers(0, 4, FINE)
        else:
            chambers = ws.enumerate_chambers(0, 4, FINE)
            assert {c.representative.weights for c in chambers} == \
                {tuple(F(x, den) for x in nums)}

    def test_n4_round_trip_and_no_duplicates(self):
        chambers = ws.enumerate_chambers(0, 4, FINE)
        codes = [c.sign_vector.codes() for c in chambers]
        assert len(set(codes)) == len(codes)
        for chamber in chambers:
            assert not chamber.sign_vector.has_on
            located = ws.locate(chamber.representative, FINE)
            assert located == chamber.sign_vector
            # strictly inside the open domain
            assert all(0 < w < 1 for w in chamber.representative.weights) or \
                all(0 < w <= 1 for w in chamber.representative.weights)

    def test_cache_round_trip(self, tmp_path):
        cache = str(tmp_path / "cache")
        first = ws.enumerate_chambers(0, 4, FINE, cache_dir=cache)
        path = tmp_path / "cache" / "chambers-g0-n4-fine.json"
        raw = path.read_bytes()
        again = ws.enumerate_chambers(0, 4, FINE, cache_dir=cache)
        assert again == first
        from weightscape.weights import chambers_json
        assert chambers_json(0, 4, FINE, again).encode("ascii") == raw

    def test_cache_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WEIGHTSCAPE_CACHE", str(tmp_path))
        ws.enumerate_chambers(0, 4, FINE)
        assert (tmp_path / "chambers-g0-n4-fine.json").exists()

    def test_corrupt_cache_replaced_without_leftovers(self, tmp_path):
        path = tmp_path / "chambers-g0-n4-fine.json"
        path.write_text("{not json")
        chambers = ws.enumerate_chambers(0, 4, FINE, cache_dir=str(tmp_path))
        from weightscape.weights import chambers_json
        assert path.read_text() == chambers_json(0, 4, FINE, chambers)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_failed_cache_write_keeps_old_entry(self, tmp_path, monkeypatch):
        from weightscape import jsonio
        path = tmp_path / "chambers-g0-n4-fine.json"
        path.write_text("{not json")

        def broken(payload):
            raise OSError("disk full")

        monkeypatch.setattr(jsonio, "canonical_dumps", broken)
        with pytest.raises(OSError):
            ws.enumerate_chambers(0, 4, FINE, cache_dir=str(tmp_path))
        assert path.read_text() == "{not json"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_corrupt_cache_recomputed(self, tmp_path):
        cache = str(tmp_path)
        path = tmp_path / "chambers-g0-n4-fine.json"
        path.write_text("{not json")
        first = ws.enumerate_chambers(0, 4, FINE, cache_dir=cache)
        assert first == ws.enumerate_chambers(0, 4, FINE)
        from weightscape.weights import chambers_json
        assert path.read_text() == chambers_json(0, 4, FINE, first)


@pytest.mark.parametrize("bad", ["fine", "strict", None, Mode.STRICT, []])
def test_granularity_must_be_a_member(bad):
    a = ws.validate(0, [1] * 5)
    b = ws.validate(0, [F(1, 2)] * 4 + [1])  # on the fine wall {1, 2}
    for call in (lambda: ws.walls(0, 5, bad), lambda: ws.locate(a, bad),
                 lambda: ws.same_chamber(a, b, bad),
                 lambda: ws.enumerate_chambers(0, 4, bad)):
        with pytest.raises(DomainError, match="granularity must be a "
                                              "Granularity, got "):
            call()


@pytest.mark.parametrize("bad", ["fine", "strict", None, FINE, "", False])
def test_mode_must_be_a_member(bad):
    data = ws.validate(0, [1, 1, 1])
    tree = ws.enumerate_strata(data, 0)[0].tree
    calls = [lambda: ws.validate(0, [1, 1, 1], bad),
             lambda: ws.is_stable(tree, data, bad),
             lambda: ws.is_stable(tree, data.weight_map(), bad)]
    if bad is not None:  # None selects from_json_dict's default mode
        calls.append(lambda: ws.WeightData.from_json_dict(
            {"genus": 0, "weights": [1, 1, 1]}, bad))
    for call in calls:
        with pytest.raises(DomainError, match="mode must be a Mode, got "):
            call()


def test_unhashable_n_is_a_domain_error():
    # the memo of the wall masks cannot hash a list: the check runs first
    with pytest.raises(DomainError,
                       match=r"n must be a positive integer, got \[5\]"):
        ws.walls(0, [5], FINE)


def test_wall_memo_is_shared_across_genera():
    # the wall set depends on n and the granularity only; a bool n is
    # refused before the memo, which does not tell True from 1
    from weightscape.weights import _wall_masks
    assert _wall_masks(0, 6, FINE) is _wall_masks(2, 6, FINE)
    assert _wall_masks(1, 1, COARSE) == ()
    with pytest.raises(DomainError, match="n must be a positive integer"):
        _wall_masks(1, True, COARSE)


@pytest.mark.parametrize("genus, n, granularity", [
    (0, "4", FINE), (0, 4.0, FINE), (0, True, FINE), ("0", 4, FINE),
    (-1, 4, FINE), (0, 2, FINE), (0, 4, "fine"), (0, 4, None),
    (0, 40, "fine"), ("0", 40, FINE), (0, [4], FINE), (0, 4, []),
], ids=["n-str", "n-float", "n-bool", "genus-str", "genus-negative",
        "genus0-n2", "granularity-str", "granularity-none",
        "n40-granularity-str", "n40-genus-str", "n-list", "granularity-list"])
def test_chamber_arguments_checked_before_limit_and_cache(
        tmp_path, monkeypatch, genus, n, granularity):
    monkeypatch.delenv("WEIGHTSCAPE_CACHE", raising=False)
    with pytest.raises(DomainError):
        ws.enumerate_chambers(genus, n, granularity, cache_dir=str(tmp_path))
    assert list(tmp_path.iterdir()) == []


def test_limit_refuses_before_building_walls(monkeypatch):
    from weightscape import weights

    def refuse(*args):
        raise AssertionError("the walls of an n above the limit were built")

    monkeypatch.setattr(weights, "_wall_masks", refuse)
    with pytest.raises(LimitExceeded):
        ws.enumerate_chambers(0, 40, FINE)


def test_deeply_nested_cache_recomputed(tmp_path):
    # json.loads gives up on this with a RecursionError: a stale entry too
    cold = ws.enumerate_chambers(0, 4, FINE)
    path = tmp_path / "chambers-g0-n4-fine.json"
    path.write_text("[" * 100000)
    assert ws.enumerate_chambers(0, 4, FINE, cache_dir=str(tmp_path)) == cold
    assert path.read_text() == chambers_json(0, 4, FINE, cold)

@pytest.mark.parametrize("kind", CACHE_TAMPERS)
def test_tampered_cache_recomputed(tmp_path, kind):
    cold = ws.enumerate_chambers(0, 4, FINE)
    text = chambers_json(0, 4, FINE, cold)
    path = tmp_path / "chambers-g0-n4-fine.json"
    path.write_text(json.dumps(tamper_chamber_cache(json.loads(text), kind)))
    assert ws.enumerate_chambers(0, 4, FINE, cache_dir=str(tmp_path)) == cold
    assert path.read_text() == text


@pytest.mark.parametrize("error", [PermissionError, FileNotFoundError])
def test_unreadable_cache_entry_recomputed(tmp_path, monkeypatch, error):
    # an entry that cannot be opened is stale like a corrupt one: the
    # chambers are recomputed and the entry is overwritten
    cold = ws.enumerate_chambers(0, 4, FINE)
    path = tmp_path / "chambers-g0-n4-fine.json"
    path.write_text("{not json")
    refuse_cache_read(monkeypatch, path, error)
    assert ws.enumerate_chambers(0, 4, FINE, cache_dir=str(tmp_path)) == cold
    assert path.read_text() == chambers_json(0, 4, FINE, cold)
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_short_representative_recomputed(tmp_path):
    # coarse (0, 5) has no walls, so no sign string tells the length, and
    # these four weights lie in the domain
    cold = ws.enumerate_chambers(0, 5, COARSE)
    text = chambers_json(0, 5, COARSE, cold)
    payload = json.loads(text)
    payload["chambers"][0]["representative"] = ["1/2", "1/2", "1/2", "3/4"]
    path = tmp_path / "chambers-g0-n5-coarse.json"
    path.write_text(json.dumps(payload))
    assert ws.enumerate_chambers(0, 5, COARSE, cache_dir=str(tmp_path)) == cold
    assert path.read_text() == text


@pytest.mark.parametrize("granularity", [FINE, COARSE])
@pytest.mark.parametrize("genus, n", [(g, n) for g in range(3)
                                      for n in range(3 if g == 0 else 1, 6)])
def test_cache_hit_is_served(tmp_path, monkeypatch, genus, n, granularity):
    # the writer's own file must pass every check of the read: a rejected
    # hit gives the same output, but runs the whole search again
    from weightscape import weights
    cold = ws.enumerate_chambers(genus, n, granularity, cache_dir=str(tmp_path))

    def no_search(*args):
        raise AssertionError("a cache hit ran the chamber search")

    monkeypatch.setattr(weights, "_extend", no_search)
    hit = ws.enumerate_chambers(genus, n, granularity, cache_dir=str(tmp_path))
    assert hit == cold
    assert chambers_json(genus, n, granularity, hit) == \
        chambers_json(genus, n, granularity, cold)
    # the hit seeds each representative's numerators from the parsed
    # weight strings, as `validate` does
    for chamber in hit:
        rep = chamber.representative
        assert rep.__dict__["scaled"] == integer_scaled(rep.weight_map())


# sha256 of chambers_json(g, n, FINE, ...) as computed before the integer
# Fourier-Motzkin kernel and implied-wall pruning, and (2, 5) before the
# incremental elimination: each must leave every sign vector and
# representative byte for byte unchanged
GOLDEN_FINE_CHAMBERS = {
    (0, 4): "827e38088af63e25ff6ef01471f86194e3904e4cecfcdd5a71541345c5573516",
    (1, 4): "701d035ffbffd51a6b345d4e9cae452e777d86aa7adeb2045237614bc8e91fac",
    (0, 5): "f07878b5395ebcfafbf754a02cb3df3d5e490bfec93b44f435382f952d08ad09",
    (1, 5): "6b0d664969f71e6f4513eb3f81a30faba7b4b626f7d9fb9e3e6821eb00a61eeb",
    (2, 5): "03dd4264209c6708021f9937a01f73aef131bb35b72ae08157be18eba8b06c1c",
}


@pytest.mark.parametrize("genus, n", sorted(GOLDEN_FINE_CHAMBERS))
def test_fine_chambers_golden_bytes(genus, n):
    from weightscape.weights import chambers_json
    text = chambers_json(genus, n, FINE, ws.enumerate_chambers(genus, n, FINE))
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    assert digest == GOLDEN_FINE_CHAMBERS[(genus, n)]


@pytest.mark.parametrize("genus, n", [(0, 4), (1, 4), (2, 4)])
def test_pruned_search_matches_unpruned(genus, n):
    from conftest import unpruned_chambers
    found = [(c.sign_vector.codes(), c.representative.weights)
             for c in ws.enumerate_chambers(genus, n, FINE)]
    assert found == unpruned_chambers(genus, n, FINE)


class TestPerturb:
    def test_half_weights(self):
        data = ws.validate(0, [F(1, 2)] * 5)
        shifted = ws.perturb_to_fine_chamber(data)
        vec = ws.locate(shifted, FINE)
        for wall, pos in zip(ws.walls(0, 5, FINE), vec.positions):
            expected = Position.BELOW if len(wall.subset) == 2 else Position.ABOVE
            assert pos == expected

    def test_wall_breach_names_the_input(self, monkeypatch):
        # an invariant breach carries the datum that reproduces it
        from weightscape import weights
        from weightscape.errors import InternalInvariantError
        data = ws.validate(0, [F(1, 2)] * 5)
        monkeypatch.setattr(weights, "_positions",
                            lambda data, granularity: (Position.ON,))
        with pytest.raises(InternalInvariantError,
                           match="landed on a wall") as info:
            ws.perturb_to_fine_chamber(data)
        assert str(data.to_json_dict()) in str(info.value)

    def test_classical_stays_above(self):
        shifted = ws.perturb_to_fine_chamber(ws.validate(0, [1, 1, 1, 1]))
        assert ws.locate(shifted, FINE).positions == (Position.ABOVE,) * 6

    def test_interior_stays_in_chamber(self, rng):
        from conftest import random_weight_data
        for _ in range(20):
            data = random_weight_data(rng, rng.randint(4, 6))
            if ws.locate(data, FINE).has_on:
                continue
            shifted = ws.perturb_to_fine_chamber(data)
            assert ws.same_chamber(data, shifted, FINE)

    def test_stratum_sets_agree(self, rng):
        # combinatorial content of the perturbation: same stable trees
        from conftest import random_weight_data
        for _ in range(6):
            data = random_weight_data(rng, 5)
            shifted = ws.perturb_to_fine_chamber(data)
            before = {ws.canonical_key(s.tree)
                      for s in ws.enumerate_strata(data, 2)}
            after = {ws.canonical_key(s.tree)
                     for s in ws.enumerate_strata(shifted, 2)}
            assert before == after


class TestUniversalCurveWeight:
    def test_classical(self):
        out = ws.universal_curve_weight(ws.validate(0, [1, 1, 1, 1]))
        assert out.weights == (F(1), F(1), F(1), F(1), F(1, 2))

    def test_on_wall_rejected(self):
        with pytest.raises(OnWall):
            ws.universal_curve_weight(ws.validate(0, [F(1, 2)] * 5))

    def test_output_valid_and_longer(self, rng):
        from conftest import random_weight_data
        for _ in range(20):
            data = random_weight_data(rng, rng.randint(4, 6))
            if ws.locate(data, FINE).has_on:
                continue
            out = ws.universal_curve_weight(data)
            assert out.n == data.n + 1
            ws.validate(out.genus, out.weights, Mode.STRICT)

    def test_wall_free_domain(self):
        out = ws.universal_curve_weight(ws.validate(0, [1, 1, 1]))
        assert out.weights[-1] == F(1, 2)


def test_sn_equivariance_of_chambers(rng):
    from conftest import permute_sign_vector
    chambers = ws.enumerate_chambers(0, 4, FINE)
    vectors = {c.sign_vector.positions for c in chambers}
    for _ in range(10):
        perm = list(range(1, 5))
        rng.shuffle(perm)
        mapped = {permute_sign_vector(c.sign_vector, perm, 4)
                  for c in chambers}
        assert mapped == vectors


@pytest.mark.parametrize("parse, payload, key", [
    (lambda p: ws.WeightData.from_json_dict(p), {"weights": [1, 1, 1]},
     "genus"),
    (ws.MarkedTree.from_json_dict,
     {"vertices": [{"genus": 0, "classes": [[1]]}], "edges": []}, "id"),
    (ws.Linearization.from_json_dict, {"s": ["1/2"] * 5}, "t"),
    (ws.ConfigType.from_json_dict, {}, "classes"),
], ids=["weight-data", "marked-tree", "linearization", "config-type"])
def test_missing_payload_key_is_a_domain_error(parse, payload, key):
    with pytest.raises(DomainError) as info:
        parse(payload)
    assert str(info.value) == f"the payload has no key {key!r}"


@pytest.mark.parametrize("parse, payload", [
    (ws.WeightData.from_json_dict, [1]),
    (ws.MarkedTree.from_json_dict, [1]),
    (ws.Linearization.from_json_dict, "x"),
    (ws.ConfigType.from_json_dict, 3),
], ids=["weight-data", "marked-tree", "linearization", "config-type"])
def test_payload_that_is_no_mapping_is_a_domain_error(parse, payload):
    with pytest.raises(DomainError) as info:
        parse(payload)
    assert str(info.value) == f"a payload must be a mapping, got {payload!r}"


def test_weight_json_round_trip():
    data = ws.validate(0, [F(2, 3), 1, F(1, 6), F(5, 6)])
    payload = data.to_json_dict()
    assert payload == {"genus": 0, "weights": ["2/3", "1", "1/6", "5/6"]}
    back = ws.WeightData.from_json_dict(payload)
    assert back == data

import random
from fractions import Fraction

import pytest

import weightscape as ws
from weightscape.errors import (AtypicalLinearization, DomainError,
                                DomainViolation, InternalInvariantError,
                                WeightOutOfRange)
from weightscape.git import GitVerdict

from conftest import fraction_sum

F = Fraction


def lin(*values):
    return ws.Linearization.make(values)


class TestLinearization:
    def test_normalization_enforced(self):
        with pytest.raises(DomainError):
            lin(F(1, 2), F(1, 2), F(1, 2))  # sums to 3/2

    def test_entries_below_one(self):
        with pytest.raises(WeightOutOfRange):
            lin(1, F(1, 2), F(1, 2))

    def test_json_round_trip(self):
        t = lin(*[F(1, 3)] * 6)
        assert ws.Linearization.from_json_dict(t.to_json_dict()) == t

    @pytest.mark.parametrize("t", ["111111", {"1": "1/3"}, 2])
    def test_t_must_be_a_list(self, t):
        with pytest.raises(DomainError, match="^t must be a list"):
            ws.Linearization.from_json_dict({"t": t})

    @pytest.mark.parametrize("make", [tuple, list])
    def test_direct_construction_matches_make(self, make):
        raw = make(["6/39", "10/39", "14/39", "22/39", "26/39"])
        direct, made = ws.Linearization(raw), ws.Linearization.make(raw)
        assert direct.t == made.t == tuple(F(x) for x in raw)
        assert direct == made and hash(direct) == hash(made)
        assert ws.tau_fine_preimage(direct) == ws.tau_fine_preimage(made)

    def test_data_excess_matches_fraction_sums(self):
        t = lin(F(1, 2), F(1, 3), F(1, 2), F(2, 3))
        den = t.data.scaled[1]
        for s, total in [((1, 3), 1), ((2, 4), 1), ((1, 2, 4), F(3, 2))]:
            assert fraction_sum(t.t, s) == total
            assert F(t.data.excess(s), den) == total - 1


class TestStability:
    def test_singletons_always_stable(self):
        t = lin(F(2, 5), F(2, 5), F(2, 5), F(2, 5), F(2, 5))
        config = ws.ConfigType.make([[i] for i in range(1, 6)])
        assert ws.stability(config, t) == GitVerdict.STABLE

    def test_strictly_semistable_triple(self):
        t = lin(*[F(1, 3)] * 6)
        config = ws.ConfigType.make([[1, 2, 3], [4], [5], [6]])
        assert ws.stability(config, t) == GitVerdict.STRICTLY_SEMISTABLE

    def test_unstable_heavy_class(self):
        t = lin(F(1, 2), F(1, 2), F(1, 2), F(1, 2))
        config = ws.ConfigType.make([[1, 2, 3], [4]])
        assert ws.stability(config, t) == GitVerdict.UNSTABLE

    def test_size_mismatch(self):
        t = lin(F(1, 2), F(1, 2), F(1, 2), F(1, 2))
        with pytest.raises(DomainError):
            ws.stability(ws.ConfigType.make([[1], [2], [3]]), t)

    def test_refinement_moves_toward_stable(self, rng):
        # splitting classes only lowers class sums
        order = [GitVerdict.STABLE, GitVerdict.STRICTLY_SEMISTABLE,
                 GitVerdict.UNSTABLE]
        for _ in range(30):
            n = rng.randint(4, 7)
            t = random_linearization(rng, n)
            classes = random_partition(rng, n)
            coarse = ws.ConfigType.make(classes)
            split = []
            for c in classes:
                c = sorted(c)
                if len(c) > 1 and rng.random() < 0.5:
                    cut = rng.randint(1, len(c) - 1)
                    split += [c[:cut], c[cut:]]
                else:
                    split.append(c)
            fine = ws.ConfigType.make(split)
            assert order.index(ws.stability(fine, t)) <= \
                order.index(ws.stability(coarse, t))

    def test_equivariance(self, rng):
        # sigma sends j to perm[j-1]; weights move by sigma^-1, classes by
        # sigma, so class sums are unchanged
        for _ in range(20):
            n = rng.randint(4, 6)
            t = random_linearization(rng, n)
            classes = random_partition(rng, n)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            permuted_t = ws.Linearization.make(
                tuple(t.t[perm.index(i + 1)] for i in range(n)))
            permuted_classes = [[perm[j - 1] for j in c] for c in classes]
            assert ws.stability(ws.ConfigType.make(classes), t) == \
                ws.stability(ws.ConfigType.make(permuted_classes), permuted_t)


class TestTypical:
    def test_symmetric_sixth_atypical(self):
        assert not ws.is_typical(lin(*[F(1, 3)] * 6))

    def test_mixed_atypical(self):
        assert not ws.is_typical(lin(F(2, 3), F(2, 3), F(1, 3), F(1, 3)))

    def test_typical_example(self):
        assert ws.is_typical(lin(F(5, 8), F(5, 8), F(5, 8), F(1, 8)))

    def test_typical_no_semistable(self, rng):
        for _ in range(20):
            t = random_linearization(rng, rng.randint(4, 6))
            if not ws.is_typical(t):
                continue
            for classes in (random_partition(rng, t.n) for _ in range(10)):
                verdict = ws.stability(ws.ConfigType.make(classes), t)
                assert verdict != GitVerdict.STRICTLY_SEMISTABLE


class TestSemistableTypes:
    def test_symmetric_sixth_has_ten(self):
        types = ws.strictly_semistable_types(lin(*[F(1, 3)] * 6))
        assert len(types) == 10
        assert all(1 in s and len(s) == 3 for s in types)

    def test_typical_empty(self):
        assert ws.strictly_semistable_types(
            lin(F(5, 8), F(5, 8), F(5, 8), F(1, 8))) == ()

    def test_four_halves(self):
        types = ws.strictly_semistable_types(lin(*[F(1, 2)] * 4))
        assert types == (frozenset({1, 2}), frozenset({1, 3}),
                         frozenset({1, 4}))

    def test_complement_duality(self, rng):
        for _ in range(20):
            t = random_linearization(rng, rng.randint(4, 6))
            everything = frozenset(range(1, t.n + 1))
            for s in ws.strictly_semistable_types(t):
                assert fraction_sum(t.t, s) == 1
                assert fraction_sum(t.t, everything - s) == 1


class TestTau:
    def test_halves(self):
        out = ws.tau(ws.validate(0, [F(1, 2)] * 5))
        assert out.t == (F(2, 5),) * 5

    def test_boundary_fixed(self):
        data = ws.validate(0, [F(2, 5), F(2, 5), F(2, 5), F(2, 5), F(2, 5)],
                           ws.Mode.BOUNDARY)
        assert ws.tau(ws.WeightData(0, data.weights)).t == data.weights

    def test_domain_violation(self):
        with pytest.raises(DomainViolation):
            ws.tau(ws.validate(0, [1, 1, 1, 1]))
        with pytest.raises(DomainViolation):
            ws.tau(ws.WeightData(0, (F(1, 2), F(1, 2), F(1, 2))))

    def test_hand_built_weights_read_as_validate_reads_them(self):
        assert ws.tau(ws.WeightData(0, ("1/2",) * 5)) == \
            ws.tau(ws.validate(0, ["1/2"] * 5))

    @pytest.mark.parametrize("weights, message", [
        ((F(1, 2),) * 4 + (0.5,), "a_5 = 0.5 is not an exact rational"),
        ((True,) + (F(1, 2),) * 4, "a_1 = True is not an exact rational"),
    ], ids=["float", "bool"])
    def test_inexact_weight_is_named(self, weights, message):
        with pytest.raises(DomainError) as info:
            ws.tau(ws.WeightData(0, weights))
        assert type(info.value) is DomainError
        assert str(info.value) == message


class TestTauPreimage:
    def test_round_trip(self, rng):
        for _ in range(20):
            t = random_typical(rng, rng.randint(4, 6))
            data = ws.tau_fine_preimage(t)
            assert ws.tau(data) == t
            assert not ws.locate(data, ws.Granularity.FINE).has_on

    def test_atypical_rejected(self):
        with pytest.raises(AtypicalLinearization):
            ws.tau_fine_preimage(lin(*[F(1, 3)] * 6))

    def test_wall_breach_names_the_linearization(self, monkeypatch):
        # an invariant breach carries the input that reproduces it
        from weightscape import git
        from weightscape.weights import Position
        t = lin(F(2, 5), F(2, 5), F(2, 5), F(2, 5), F(2, 5))
        monkeypatch.setattr(git, "_positions",
                            lambda data, granularity: (Position.ON,))
        with pytest.raises(InternalInvariantError,
                           match="landed on a fine wall") as info:
            ws.tau_fine_preimage(t)
        assert str(t.to_json_dict()) in str(info.value)


class TestChamberMatchesQuotient:
    def test_preimage_matches(self, rng):
        for _ in range(15):
            t = random_typical(rng, rng.randint(4, 6))
            data = ws.tau_fine_preimage(t)
            match = ws.chamber_matches_quotient(data, t)
            assert match
            assert match.ambiguous_subsets == ()

    def test_classical_mismatch(self):
        data = ws.validate(0, [1] * 5)
        match = ws.chamber_matches_quotient(data, lin(*[F(2, 5)] * 5))
        assert not match
        assert frozenset({1, 2}) in match.mismatched_subsets

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            ws.chamber_matches_quotient(ws.validate(0, [1] * 4),
                                        lin(*[F(2, 5)] * 5))

    def test_atypical_rejected(self):
        with pytest.raises(AtypicalLinearization):
            ws.chamber_matches_quotient(ws.validate(0, [1] * 6),
                                        lin(*[F(1, 3)] * 6))

    def test_ambiguity_reported(self):
        # a_1 + a_2 = 1 exactly: the subset is flagged either way
        data = ws.validate(0, [F(1, 2), F(1, 2), F(9, 10), 1])
        t = lin(F(1, 5), F(3, 10), F(3, 5), F(9, 10))
        assert ws.is_typical(t)
        match = ws.chamber_matches_quotient(data, t)
        assert frozenset({1, 2}) in match.ambiguous_subsets


@pytest.mark.parametrize("classes, message", [
    ([[1, 2], [3], [4.5]], "marking must be an integer, got 4.5"),
    ([[1, 2], [3], ["4"]], "marking must be an integer, got '4'"),
    ([[True], [2], [3]], "marking must be an integer, got True"),
    (["a"], "classes must be a list of lists"),
    (5, "classes must be a list of lists"),
    ([True], "classes must be a list of lists"),
    ([[1], [], [2]], "configuration classes must be nonempty"),
])
def test_config_type_grammar(classes, message):
    with pytest.raises(DomainError, match=message):
        ws.ConfigType.make(classes)


def test_config_type_json_round_trip():
    config = ws.ConfigType.make([[5, 3], [2], [1, 4]])
    assert config.to_json_dict() == {"classes": [[1, 4], [2], [3, 5]]}
    assert ws.ConfigType.from_json_dict(config.to_json_dict()) == config


def random_linearization(rng, n, attempts=2000):
    for _ in range(attempts):
        dens = rng.randint(3, 9)
        raw = [rng.randint(1, dens) for _ in range(n)]
        total = sum(raw)
        t = [F(2 * r, total) for r in raw]
        if all(0 < x < 1 for x in t):
            return ws.Linearization.make(t)
    raise AssertionError("no linearization sampled")


def random_typical(rng, n, attempts=2000):
    for _ in range(attempts):
        t = random_linearization(rng, n)
        if ws.is_typical(t):
            return t
    raise AssertionError("no typical linearization sampled")


def random_partition(rng, n):
    classes = {}
    for i in range(1, n + 1):
        classes.setdefault(rng.randint(0, n - 1), []).append(i)
    return list(classes.values())


@pytest.fixture
def rng():
    return random.Random(99)

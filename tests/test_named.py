from fractions import Fraction

import pytest

import weightscape as ws
from weightscape.curves import DivisorStatus
from weightscape.errors import DomainError
from weightscape.named import FamilyKind

from conftest import fraction_sum

F = Fraction


class TestWeightsFor:
    def test_losev_manin_n5(self):
        data = ws.weights_for(ws.losev_manin(5))
        assert data.weights == (F(1), F(1), F(1, 3), F(1, 3), F(1, 3))

    def test_kapranov_x0_n6(self):
        data = ws.weights_for(ws.kapranov_x(6, 0))
        assert data.weights == (F(1, 4),) * 5 + (F(1),)
        # the two region conditions: deleted-point sums stay at most 1,
        # the full light block exceeds 1, every pair with the heavy point
        # exceeds 1
        assert fraction_sum(data.weights, range(1, 5)) <= 1
        assert fraction_sum(data.weights, range(1, 6)) > 1
        assert all(fraction_sum(data.weights, (i, 6)) > 1
                   for i in range(1, 6))

    def test_kapranov_w11_n6(self):
        data = ws.weights_for(ws.kapranov_w(6, 1, 1))
        assert data.weights == (F(1, 4),) * 5 + (F(1),)

    def test_kapranov_w_top(self):
        data = ws.weights_for(ws.kapranov_w(6, 3, 1))
        assert data.weights == (F(1, 2), F(1, 2), F(1, 2), 1, 1, 1)

    def test_keel_y0_pinned_values(self):
        data = ws.weights_for(ws.keel_y(6, 0))
        assert data.weights == (F(3, 4),) * 3 + (F(1, 12),) * 3

    def test_index_guards(self):
        with pytest.raises(DomainError):
            ws.kapranov_x(6, 3)
        with pytest.raises(DomainError):
            ws.kapranov_w(6, 1, 4)
        with pytest.raises(DomainError):
            ws.keel_y(6, 4)

    def test_all_outputs_valid_and_self_classified(self):
        for n in (5, 6, 7):
            families = [ws.losev_manin(n)]
            families += [ws.kapranov_x(n, k) for k in range(n - 3)]
            families += [ws.keel_y(n, k) for k in range(2 * n - 8)]
            for fam in families:
                data = ws.weights_for(fam)
                ws.validate(data.genus, data.weights)
                assert fam in ws.classify(data), fam.tag


class TestClassify:
    def test_losev_manin(self):
        hits = ws.classify(ws.validate(0, [1, 1, F(1, 3), F(1, 3), F(1, 3)]))
        assert [f.tag for f in hits] == ["LM"]

    def test_keel_membership(self):
        hits = ws.classify(
            ws.validate(0, [F(3, 4), F(3, 4), F(3, 4), F(1, 8), F(1, 8)]))
        assert ws.keel_y(5, 0) in hits

    def test_classical_matches_nothing(self):
        assert ws.classify(ws.validate(0, [1, 1, 1, 1])) == ()

    def test_tag_parsing(self):
        assert ws.parse_tag("X(1)", 6) == ws.kapranov_x(6, 1)
        assert ws.parse_tag("W(2,1)", 6) == ws.kapranov_w(6, 2, 1)
        assert ws.parse_tag("LM", 5) == ws.losev_manin(5)
        with pytest.raises(DomainError):
            ws.parse_tag("Q(1)", 5)


class TestBlowupSequence:
    def test_x_chain_n6_counts(self):
        steps = ws.blowup_sequence(FamilyKind.KAPRANOV_X, 6)
        summary = [(s.source.tag, s.target.tag, s.exceptional_count)
                   for s in steps]
        assert summary == [("X(2)", "X(1)", 10), ("X(1)", "X(0)", 5)]

    def test_x_chain_counts_are_binomials(self):
        from math import comb
        for n in (5, 6, 7):
            steps = ws.blowup_sequence(FamilyKind.KAPRANOV_X, n)
            for step in steps:
                k = step.source.k
                assert step.exceptional_count == comb(n - 1, k)

    def test_x_chain_contractions_disjoint_and_compose(self):
        # each step contracts something new; their union is exactly the
        # full-chain contraction inventory
        n = 6
        steps = ws.blowup_sequence(FamilyKind.KAPRANOV_X, n)
        seen = set()
        for step in steps:
            assert not ws.is_reduction_iso(ws.weights_for(step.source),
                                           ws.weights_for(step.target))
            sides = {f.collapsed_side for f in step.exceptional}
            assert not (sides & seen)
            seen |= sides
        top = ws.weights_for(ws.kapranov_x(n, n - 4))
        bottom = ws.weights_for(ws.kapranov_x(n, 0))
        total = {f.collapsed_side
                 for f in ws.contracted_divisors(top, bottom)
                 if f.status == DivisorStatus.CONTRACTED}
        assert seen == total

    def test_y_chain_n5(self):
        steps = ws.blowup_sequence(FamilyKind.KEEL_Y, 5)
        assert [(s.source.tag, s.target.tag, s.exceptional_count)
                for s in steps] == [("Y(1)", "Y(0)", 3)]
        (step,) = steps
        for f in step.exceptional:
            side = f.collapsed_side
            assert len(side) == 3 and {4, 5} < side

    def test_y_chain_n6_first_diagonal_center(self):
        steps = ws.blowup_sequence(FamilyKind.KEEL_Y, 6)
        first = steps[0]
        assert (first.source.tag, first.target.tag) == ("Y(3)", "Y(2)")
        assert first.exceptional_count == 1
        assert first.exceptional[0].collapsed_side == frozenset({4, 5, 6})

    def test_y_chain_unsupported_beyond_seven(self):
        with pytest.raises(DomainError):
            ws.blowup_sequence(FamilyKind.KEEL_Y, 8)

    @pytest.mark.parametrize("kind, n, message", [
        (FamilyKind.KEEL_Y, 4, "the Y chain needs n >= 5"),
        (FamilyKind.KAPRANOV_W, 3, r"the \(r,s\) tower needs n >= 4"),
        (FamilyKind.KAPRANOV_X, 3, "the X chain needs n >= 4"),
        (FamilyKind.KAPRANOV_X, -5, "the X chain needs n >= 4"),
        (FamilyKind.KEEL_Y, -5, "the Y chain needs n >= 5"),
    ])
    def test_chain_below_its_least_n_is_domain_error(self, kind, n, message):
        """The same error the family's own constructor raises at that n."""
        with pytest.raises(DomainError, match=message):
            ws.blowup_sequence(kind, n)

    @pytest.mark.parametrize("kind", [FamilyKind.KAPRANOV_X,
                                      FamilyKind.KAPRANOV_W])
    def test_single_member_chain_has_no_steps(self, kind):
        assert ws.blowup_sequence(kind, 4) == ()

    def test_w_chain_first_step_n6(self):
        steps = ws.blowup_sequence(FamilyKind.KAPRANOV_W, 6)
        # ascending construction ends W(1,2) -> W(1,1); top starts the list
        assert steps[-1].source.tag == "W(1,2)"
        assert steps[-1].target.tag == "W(1,1)"
        assert steps[-1].exceptional_count == 4  # blow up q_1..q_{n-2}

    def test_w_chain_monotone_everywhere(self):
        for n in (5, 6, 7):
            steps = ws.blowup_sequence(FamilyKind.KAPRANOV_W, n)
            for step in steps:
                a = ws.weights_for(step.source)
                b = ws.weights_for(step.target)
                assert all(x >= y for x, y in zip(a.weights, b.weights))

import random
from fractions import Fraction
from functools import partial
from itertools import permutations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

import weightscape as ws
from weightscape import curves
from weightscape.curves import DegreeCase, DivisorKind, DivisorStatus
from weightscape.errors import (DomainError, LimitExceeded, NotAStable,
                                ResidualDegreeNotPositive,
                                UnequalWeightsInBlock, WeightsNotDominated)
from weightscape.named import FamilyKind
from weightscape.weights import Mode

from conftest import (brute_force_boundary, fraction_divisor_fate,
                      fraction_sum, graph_contract, rand_weight,
                      random_between, random_dominated, random_nodal_curve,
                      random_stable_tree, random_weight_data, relabel_tree)

F = Fraction


def one_vertex(n, classes=None):
    classes = classes or [[m] for m in range(1, n + 1)]
    return ws.marked_tree([(1, 0, classes)], [])


class TestLogDegree:
    def test_single_vertex(self):
        tree = one_vertex(4)
        assert ws.vertex_log_degree(tree, 1, ws.validate(0, [1, 1, 1, 1])) == 2

    def test_leaf_with_half_weights(self):
        tree = ws.marked_tree([(1, 0, [[1], [2]]), (2, 0, [[3], [4]])],
                              [(1, 2)])
        a = ws.validate(0, [1, 1, F(1, 2), F(1, 2)])
        assert ws.vertex_log_degree(tree, 2, a) == 0

    def test_genus_one_vertex(self):
        tree = ws.marked_tree([(1, 1, []), (2, 0, [[1], [2]])], [(1, 2)])
        a = ws.validate(1, [1, 1])
        assert ws.vertex_log_degree(tree, 1, a) == 1

    def test_self_loop_counts_twice(self):
        tree = ws.marked_tree([(1, 0, [[1], [2]])], [(1, 1)])
        a = ws.validate(1, [1, 1])
        assert ws.vertex_log_degree(tree, 1, a) == 2


class TestIsStable:
    def test_classical_interior(self):
        assert ws.is_stable(one_vertex(4), ws.validate(0, [1, 1, 1, 1]))

    def test_allowed_coincidence(self):
        tree = one_vertex(4, [[1], [2], [3, 4]])
        assert ws.is_stable(tree, ws.validate(0, [1, 1, F(1, 2), F(1, 2)]))

    def test_overweight_class(self):
        tree = one_vertex(4, [[1, 2], [3], [4]])
        report = ws.is_stable(tree, ws.validate(0, [1, 1, F(1, 2), F(1, 2)]))
        assert not report
        assert report.class_violations == ((1, (1, 2)),)

    def test_degree_violation_reported(self):
        tree = ws.marked_tree([(1, 0, [[1], [2], [3]]), (2, 0, [[4]])],
                              [(1, 2)])
        report = ws.is_stable(tree, ws.validate(0, [1, 1, 1, 1]))
        assert not report
        assert report.degree_violations == ((2, F(0)),)

    def test_node_supported_needs_zero_weight(self):
        cls = [ws.mark_class([1], node_supported=True), [2], [3], [4]]
        tree = one_vertex(4, cls)
        a = ws.validate(0, [F(1, 2), 1, 1, 1], Mode.ZERO_ALLOWED)
        report = ws.is_stable(tree, a, Mode.ZERO_ALLOWED)
        assert report.node_support_violations == ((1, (1,)),)
        zero = ws.validate(0, [0, 1, 1, 1], Mode.ZERO_ALLOWED)
        assert ws.is_stable(tree, zero, Mode.ZERO_ALLOWED)

    def test_marking_mismatch_rejected(self):
        with pytest.raises(DomainError):
            ws.is_stable(one_vertex(3), ws.validate(0, [1, 1, 1, 1]))

    def test_genus_mismatch_rejected(self):
        with pytest.raises(DomainError):
            ws.is_stable(one_vertex(4), ws.validate(1, [1, 1, 1, 1]))


class TestStabilize:
    def test_type_one_collapse(self):
        tree = ws.marked_tree([(1, 0, [[1], [2]]), (2, 0, [[3], [4]])],
                              [(1, 2)])
        a = ws.validate(0, [1, 1, 1, 1])
        b = ws.validate(0, [1, 1, F(1, 2), F(1, 2)])
        out = ws.stabilize(tree, a, b)
        assert out == one_vertex(4, [[1], [2], [3, 4]])
        assert ws.is_stable(out, b)

    def test_identity(self):
        a = ws.validate(0, [1, 1, 1, 1])
        tree = ws.marked_tree([(1, 0, [[1], [2]]), (2, 0, [[3], [4]])],
                              [(1, 2)])
        assert ws.stabilize(tree, a, a) == tree

    def test_type_two_contraction_markings_land_on_node(self):
        tree = ws.marked_tree(
            [(1, 0, [[1], [2]]), (2, 0, [[3]]), (3, 0, [[4], [5]])],
            [(1, 2), (2, 3)])
        a = ws.validate(0, [1, 1, 1, 1, 1])
        b = ws.validate(0, [1, 1, 0, 1, 1], Mode.ZERO_ALLOWED)
        out = ws.stabilize(tree, a, b)
        expected = ws.marked_tree(
            [(1, 0, [[1], [2], ws.mark_class([3], node_supported=True)]),
             (3, 0, [[4], [5]])],
            [(1, 3)])
        assert out == expected
        assert ws.is_stable(out, b, Mode.ZERO_ALLOWED)

    def test_type_two_chain_merges_into_one_node_class(self):
        tree = ws.marked_tree(
            [(1, 0, [[1], [2]]), (2, 0, [[3]]), (3, 0, [[4]]),
             (4, 0, [[5], [6]])],
            [(1, 2), (2, 3), (3, 4)])
        a = ws.validate(0, [1, 1, F(1, 2), F(1, 2), 1, 1])
        b = ws.validate(0, [1, 1, 0, 0, 1, 1], Mode.ZERO_ALLOWED)
        out = ws.stabilize(tree, a, b)
        node_classes = [c for v in out.vertices for c in v.classes
                        if c.node_supported]
        assert len(node_classes) == 1
        assert node_classes[0].markings == frozenset({3, 4})
        assert len(out.vertices) == 2

    def test_genus_one_leaf_collapse(self):
        tree = ws.marked_tree([(1, 1, []), (2, 0, [[1], [2]])], [(1, 2)])
        a = ws.validate(1, [1, 1])
        b = ws.validate(1, [F(1, 4), F(1, 4)])
        out = ws.stabilize(tree, a, b)
        assert out == ws.marked_tree([(1, 1, [[1, 2]])], [])

    def test_not_stable_rejected(self):
        tree = ws.marked_tree([(1, 0, [[1], [2], [3]]), (2, 0, [[4]])],
                              [(1, 2)])
        a = ws.validate(0, [1, 1, 1, 1])
        with pytest.raises(NotAStable):
            ws.stabilize(tree, a, a)

    def test_domination_required(self):
        a = ws.validate(0, [1, 1, F(1, 2), F(1, 2)])
        b = ws.validate(0, [1, 1, 1, 1])
        with pytest.raises(WeightsNotDominated):
            ws.stabilize(one_vertex(4, [[1], [2], [3, 4]]), a, b)


class TestForget:
    def test_drop_one_marking(self):
        a = ws.validate(0, [1, 1, 1, 1, 1])
        out = ws.forget(one_vertex(5), a, [1, 2, 3, 4])
        assert out == one_vertex(4)

    def test_collapse_after_forget(self):
        tree = ws.marked_tree([(1, 0, [[1], [2], [3]]), (2, 0, [[4], [5]])],
                              [(1, 2)])
        a = ws.validate(0, [1, 1, 1, 1, 1])
        out = ws.forget(tree, a, [1, 2, 3, 4])
        assert out == one_vertex(4)

    def test_residual_degree_guard(self):
        a = ws.validate(0, [1, 1, 1, 1])
        with pytest.raises(ResidualDegreeNotPositive):
            ws.forget(one_vertex(4), a, [1, 2])

    def test_labels_preserved(self):
        a = ws.validate(0, [1, 1, 1, 1, 1])
        out = ws.forget(one_vertex(5), a, [1, 3, 5])
        assert out.markings == frozenset({1, 3, 5})


class TestEnumerateStrata:
    def test_classical_n4(self):
        strata = ws.enumerate_strata(ws.validate(0, [1, 1, 1, 1]), 1)
        assert [s.codimension for s in strata] == [0, 1, 1, 1]

    def test_classical_n5_counts(self):
        strata = ws.enumerate_strata(ws.validate(0, [1] * 5), 2)
        counts = {c: sum(1 for s in strata if s.codimension == c)
                  for c in (0, 1, 2)}
        assert counts == {0: 1, 1: 10, 2: 15}

    def test_classical_n6_counts(self):
        strata = ws.enumerate_strata(ws.validate(0, [1] * 6), 3)
        counts = {c: sum(1 for s in strata if s.codimension == c)
                  for c in (0, 1, 2, 3)}
        assert counts == {0: 1, 1: 25, 2: 105, 3: 105}

    def test_losev_manin_codim1(self):
        strata = ws.enumerate_strata(ws.validate(0, [1, 1, F(1, 2), F(1, 2)]), 1)
        level1 = [s for s in strata if s.codimension == 1]
        assert len(level1) == 3
        kinds = sorted(len(s.tree.vertices) for s in level1)
        assert kinds == [1, 2, 2]  # one coincidence stratum, two nodal

    def test_codimension_bound(self):
        strata = ws.enumerate_strata(ws.validate(0, [1] * 5), 10)
        assert max(s.codimension for s in strata) <= 2

    def test_limit_guard(self):
        with pytest.raises(LimitExceeded):
            ws.enumerate_strata(ws.validate(0, [1] * 9), 1)

    @pytest.mark.parametrize("limit", [-1, True, 4.5, "8"])
    def test_limit_grammar(self, limit):
        with pytest.raises(DomainError, match="limit must be"):
            ws.enumerate_strata(ws.validate(0, [1] * 4), 1, limit=limit)

    def test_all_output_stable_and_deterministic(self, rng):
        data = random_weight_data(rng, 5)
        strata = ws.enumerate_strata(data, 2)
        assert all(ws.is_stable(s.tree, data) for s in strata)
        assert all(s.tree.codimension == s.codimension for s in strata)
        assert strata == ws.enumerate_strata(data, 2)


class TestBoundaryDivisors:
    @pytest.mark.parametrize("weights,nodal,coincidence", [
        ([1, 1, 1, 1, 1], 10, 0),
        ([1, 1, 1, 1, 1, 1], 25, 0),
        ([1, 1, F(1, 2), F(1, 2)], 2, 1),
    ])
    def test_counts(self, weights, nodal, coincidence):
        divisors = ws.boundary_divisors(ws.validate(0, weights))
        got_nodal = [d for d in divisors if d.kind == DivisorKind.NODAL]
        got_pairs = [d for d in divisors if d.kind == DivisorKind.COINCIDENCE]
        assert (len(got_nodal), len(got_pairs)) == (nodal, coincidence)

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            data = random_weight_data(rng, rng.randint(4, 7))
            nodal, pairs = brute_force_boundary(data)
            divisors = ws.boundary_divisors(data)
            got_nodal = {frozenset((d.members, d.complement))
                         for d in divisors if d.kind == DivisorKind.NODAL}
            got_pairs = {d.members for d in divisors
                         if d.kind == DivisorKind.COINCIDENCE}
            assert got_nodal == nodal
            assert got_pairs == pairs

    def test_past_the_shared_divisor_bound(self):
        # n = 13 has 2^12 - 1 nodal sides and 78 pairs, more keys than the
        # shared-divisor cache holds
        a = ws.validate(0, [1, 1, F(5, 6), F(3, 4), F(2, 3), F(1, 2), F(1, 2),
                            F(1, 3), F(1, 3), F(1, 4), F(1, 4), F(1, 6),
                            F(1, 6)])
        b = ws.validate(0, [w / 3 for w in a.weights], Mode.ZERO_ALLOWED)
        nodal, pairs = brute_force_boundary(a)
        divisors = ws.boundary_divisors(a)
        assert {frozenset((d.members, d.complement)) for d in divisors
                if d.kind == DivisorKind.NODAL} == nodal
        assert {d.members for d in divisors
                if d.kind == DivisorKind.COINCIDENCE} == pairs
        assert len(divisors) == len(nodal) + len(pairs)
        assert list(divisors) == sorted(divisors,
                                        key=ws.BoundaryDivisor.sort_key)
        fates = ws.contracted_divisors(a, b)
        assert [f.divisor for f in fates] == list(divisors)
        for fate in fates:
            assert (fate.status, fate.collapsed_side) == \
                fraction_divisor_fate(fate.divisor, b.weights)
            if fate.status == DivisorStatus.CONTRACTED:
                side = fate.collapsed_side
                assert fate.factor_weights.weights == tuple(
                    b.weights[j - 1] for j in range(1, 14) if j not in side) \
                    + (fraction_sum(b.weights, side),)
        assert {f.status for f in fates} == set(DivisorStatus)
        singletons = [[m] for m in range(1, 14)]
        assert ws.symmetrized_boundary_count(a, singletons) == len(divisors)
        # two equal-weight blocks: an orbit is what each side holds of each
        equal = ws.validate(0, [F(1, 2)] * 6 + [F(1, 3)] * 7)
        blocks = [range(1, 7), range(7, 14)]
        nodal, pairs = brute_force_boundary(equal)

        def counts(side):
            return tuple(len(side.intersection(blk)) for blk in blocks)

        orbits = {frozenset(map(counts, sides)) for sides in nodal} | \
            {counts(pair) for pair in pairs}
        assert ws.symmetrized_boundary_count(equal, blocks) == len(orbits)

    def test_divisors_are_shared_values(self):
        first = ws.validate(0, [1] * 6)
        second = ws.validate(0, [1, 1, 1, F(1, 2), F(1, 3), F(1, 6)])
        ours = {d: d for d in ws.boundary_divisors(first)}
        shared = [d for d in ws.boundary_divisors(second) if d in ours]
        assert shared and all(ours[d] is d for d in shared)
        preserved = [f for f in ws.contracted_divisors(second, second)]
        assert all(f.divisor is d for f, d in
                   zip(preserved, ws.boundary_divisors(second)))
        assert preserved[0] is ws.contracted_divisors(second, second)[0]

    def test_shared_divisor_cache_is_bounded(self):
        maxsize = curves._preserved.cache_info().maxsize
        assert maxsize is not None
        assert maxsize >= 2 ** 11 - 1 + 66  # every divisor of n = 12

    def test_matches_codim1_strata(self, rng):
        for _ in range(10):
            data = random_weight_data(rng, 5)
            divisors = ws.boundary_divisors(data)
            trees = set()
            for d in divisors:
                if d.kind == DivisorKind.NODAL:
                    t = ws.marked_tree(
                        [(1, 0, [[m] for m in sorted(d.members)]),
                         (2, 0, [[m] for m in sorted(d.complement)])],
                        [(1, 2)])
                else:
                    classes = [[m] for m in range(1, data.n + 1)
                               if m not in d.members]
                    classes.append(sorted(d.members))
                    t = ws.marked_tree([(1, 0, classes)], [])
                trees.add(ws.canonical_key(t))
            level1 = {ws.canonical_key(s.tree)
                      for s in ws.enumerate_strata(data, 1)
                      if s.codimension == 1}
            assert trees == level1


class TestContractedDivisors:
    def test_spec_example(self):
        a = ws.validate(0, [1] * 5)
        b = ws.validate(0, [1, 1, F(1, 3), F(1, 3), F(1, 3)])
        fates = ws.contracted_divisors(a, b)
        by_status = {}
        for f in fates:
            by_status.setdefault(f.status, []).append(f)
        assert len(by_status[DivisorStatus.CONTRACTED]) == 1
        contracted = by_status[DivisorStatus.CONTRACTED][0]
        assert contracted.collapsed_side == frozenset({3, 4, 5})
        assert contracted.factor_weights.weights == (F(1), F(1), F(1))
        assert len(by_status[DivisorStatus.BECOMES_COINCIDENCE]) == 3
        assert len(by_status[DivisorStatus.PRESERVED]) == 6

    def test_identity_preserves_everything(self):
        a = ws.validate(0, [1] * 5)
        fates = ws.contracted_divisors(a, a)
        assert all(f.status == DivisorStatus.PRESERVED for f in fates)

    def test_fates_match_stabilize(self, rng):
        # contracting the two-vertex tree of a nodal divisor must agree
        # with the divisor's fate: a collapsed side of size r leaves a
        # one-vertex tree with an r-class, preserved divisors keep both
        # vertices
        for _ in range(12):
            n = rng.randint(4, 6)
            a = random_weight_data(rng, n)
            b = random_dominated(rng, a)
            for fate in ws.contracted_divisors(a, b):
                if fate.divisor.kind != DivisorKind.NODAL:
                    continue
                tree = ws.marked_tree(
                    [(1, 0, [[m] for m in sorted(fate.divisor.members)]),
                     (2, 0, [[m] for m in sorted(fate.divisor.complement)])],
                    [(1, 2)])
                reduced = ws.stabilize(tree, a, b)
                if fate.status == DivisorStatus.PRESERVED:
                    assert len(reduced.vertices) == 2
                else:
                    assert len(reduced.vertices) == 1
                    merged = {c.markings for v in reduced.vertices
                              for c in v.classes if len(c.markings) > 1}
                    assert merged == {fate.collapsed_side}

    def test_factor_weights_are_valid(self, rng):
        # the factors are built without `validate`; it must accept each as
        # it stands
        contracted = 0
        for _ in range(40):
            n = rng.randint(5, 8)
            a = random_weight_data(rng, n)
            b = random_dominated(rng, a)
            for fate in ws.contracted_divisors(a, b):
                f = fate.factor_weights
                if f is not None:
                    contracted += 1
                    assert f == ws.validate(0, f.weights, Mode.ZERO_ALLOWED)
                    assert f.scaled == \
                        ws.validate(0, f.weights, Mode.ZERO_ALLOWED).scaled
        assert contracted >= 20

    def test_kapranov_first_step(self):
        a = ws.weights_for(ws.kapranov_x(6, 1))
        b = ws.weights_for(ws.kapranov_x(6, 0))
        fates = ws.contracted_divisors(a, b)
        contracted = [f for f in fates if f.status == DivisorStatus.CONTRACTED]
        assert len(contracted) == 5
        for f in contracted:
            heavy = (f.divisor.members if 6 in f.divisor.members
                     else f.divisor.complement)
            assert len(heavy) == 2 and 6 in heavy
        assert not [f for f in fates
                    if f.status == DivisorStatus.BECOMES_COINCIDENCE]


class TestReductionIso:
    def test_true_for_identity(self):
        a = ws.validate(0, [1] * 5)
        assert ws.is_reduction_iso(a, a)

    def test_false_for_triple_crossing(self):
        a = ws.validate(0, [1] * 5)
        b = ws.validate(0, [1, 1, F(1, 3), F(1, 3), F(1, 3)])
        assert not ws.is_reduction_iso(a, b)

    def test_true_within_chamber(self, rng):
        for _ in range(15):
            data = random_weight_data(rng, 5)
            if ws.locate(data, ws.Granularity.FINE).has_on:
                continue
            shifted = ws.perturb_to_fine_chamber(data)
            assert ws.is_reduction_iso(data, shifted)


class TestBlowupProfile:
    def test_sliver_true(self):
        data = ws.validate(0, [F(1, 3)] * 6, Mode.BOUNDARY)
        assert ws.is_blowup_profile(data, [1, 2, 3, 4])

    def test_two_heavy_entries_false(self):
        data = ws.validate(0, [1, 1, F(1, 4), F(1, 4), F(1, 4)])
        assert not ws.is_blowup_profile(data, [1, 2, 3])

    def test_triple_halves_true(self):
        data = ws.validate(0, [F(1, 2), F(1, 2), F(1, 2), F(3, 4), F(3, 4)])
        assert ws.is_blowup_profile(data, [1, 2, 3])

    def test_small_subset_rejected(self):
        with pytest.raises(DomainError):
            ws.is_blowup_profile(ws.validate(0, [1] * 4), [1, 2])


class TestDegreeVanishing:
    def test_exceptional_cases(self):
        assert ws.degree_vanishing_case(0, 3, 0, 1, 2, 3) == DegreeCase.EXCEPTIONAL_1
        assert ws.degree_vanishing_case(1, 1, 0, 1, 1, 2) == DegreeCase.EXCEPTIONAL_2

    def test_sigma_zero_vanishes(self):
        assert ws.degree_vanishing_case(0, 3, 0, 1, 0, 2) == DegreeCase.VANISHES
        assert ws.degree_vanishing_case(2, 1, 3, 2, 0, 4) == DegreeCase.VANISHES

    def test_uncovered_corner(self):
        # sigma = N = 2 with degree >= 0: no vanishing claim
        assert ws.degree_vanishing_case(0, 4, 0, 1, 2, 2) == DegreeCase.NONVANISHING

    def test_parameter_guards(self):
        with pytest.raises(DomainError):
            ws.degree_vanishing_case(0, 0, 0, 1, 0, 2)  # M not ample
        with pytest.raises(DomainError):
            ws.degree_vanishing_case(0, 3, 0, 0, 0, 2)
        with pytest.raises(DomainError):
            ws.degree_vanishing_case(0, 3, 0, 1, 3, 2)


class TestSymmetrizedCount:
    def test_single_block(self):
        data = ws.validate(0, [1] * 5)
        assert ws.symmetrized_boundary_count(data, [[1, 2, 3, 4, 5]]) == 1

    def test_trivial_blocks(self):
        data = ws.validate(0, [1, 1, F(1, 2), F(1, 2)])
        singletons = [[i] for i in range(1, 5)]
        assert ws.symmetrized_boundary_count(data, singletons) == \
            len(ws.boundary_divisors(data))

    def test_two_blocks(self):
        data = ws.validate(0, [1, 1, F(1, 2), F(1, 2)])
        assert ws.symmetrized_boundary_count(data, [[1, 2], [3, 4]]) == 2

    def test_unequal_weights_rejected(self):
        data = ws.validate(0, [1, 1, F(1, 2), F(1, 2)])
        with pytest.raises(UnequalWeightsInBlock):
            ws.symmetrized_boundary_count(data, [[1, 2, 3], [4]])

    def test_matches_brute_force_orbits(self, rng):
        # random equal-weight blocks; the oracle applies every product of
        # in-block permutations to each divisor and counts the orbits
        def form(divisor, perm):
            sides = [divisor.members] + ([divisor.complement]
                                         if divisor.complement else [])
            return divisor.kind, frozenset(
                frozenset(perm[m] for m in side) for side in sides)

        for _ in range(60):
            n = rng.randint(3, 7)
            marks = list(range(1, n + 1))
            rng.shuffle(marks)
            cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
            blocks = [marks[i:j] for i, j in zip([0] + cuts, cuts + [n])]
            while True:
                level = [rand_weight(rng, 6) for _ in blocks]
                weight_of = {m: w for blk, w in zip(blocks, level)
                             for m in blk}
                if sum(weight_of.values()) > 2:
                    break
            data = ws.validate(0, [weight_of[m] for m in range(1, n + 1)])
            # the identity comes first
            group = [{m: image for blk, perm in zip(blocks, images)
                      for m, image in zip(blk, perm)}
                     for images in product(*map(permutations, blocks))]
            seen, orbits = set(), 0
            for divisor in ws.boundary_divisors(data):
                if form(divisor, group[0]) not in seen:
                    orbits += 1
                    seen.update(form(divisor, perm) for perm in group)
            assert ws.symmetrized_boundary_count(data, blocks) == orbits


class TestReductionProperties:
    def test_confluence_under_relabeling(self, rng):
        for _ in range(30):
            n = rng.randint(4, 6)
            a = random_weight_data(rng, n)
            b = random_dominated(rng, a)
            tree = random_stable_tree(rng, a)
            direct = ws.stabilize(tree, a, b)
            shuffled = ws.stabilize(relabel_tree(tree, rng), a, b)
            assert ws.canonical_key(direct) == ws.canonical_key(shuffled)

    def test_functoriality(self, rng):
        for _ in range(30):
            n = rng.randint(4, 6)
            a = random_weight_data(rng, n)
            c = random_dominated(rng, a)
            b = random_between(rng, c, a)
            tree = random_stable_tree(rng, a)
            direct = ws.stabilize(tree, a, c)
            composed = ws.stabilize(ws.stabilize(tree, a, b), b, c)
            assert ws.canonical_key(direct) == ws.canonical_key(composed)

    def test_output_stable_and_idempotent(self, rng):
        for _ in range(30):
            n = rng.randint(4, 6)
            a = random_weight_data(rng, n)
            b = random_dominated(rng, a)
            tree = random_stable_tree(rng, a)
            out = ws.stabilize(tree, a, b)
            assert ws.is_stable(out, b)
            assert ws.stabilize(tree, a, a) == tree
            assert ws.stabilize(out, b, b) == out


def _outcome(call):
    try:
        return call().to_json_dict()
    except ws.WeightscapeError as exc:
        return type(exc), str(exc)


def _new_node_classes(tree, payload):
    """Node-supported classes of the output that the input did not have."""
    before = {c.markings for v in tree.vertices for c in v.classes
              if c.node_supported}
    return [frozenset(c) for v in payload["vertices"]
            for c, ns in zip(v["classes"], v["node_supported"])
            if ns and frozenset(c) not in before]


def test_contract_matches_graph_oracle(monkeypatch):
    # stabilize and forget on random nodal curves (genus-1 vertices,
    # self-loops, repeated edges, targets with zero weights) must give what
    # the `_Graph` contraction loop gave, errors included
    rng = random.Random(13)
    cases = []
    for _ in range(1500):
        tree, a = random_nodal_curve(rng, rng.randint(3, 7))
        target = a.weights
        for _ in range(20):
            shrunk = [w * rng.choice((0, 0, F(1, 4), F(1, 2), 1))
                      for w in a.weights]
            if 2 * a.genus - 2 + sum(shrunk) > 0:
                target = shrunk
                break
        b = ws.validate(a.genus, target, Mode.ZERO_ALLOWED)
        keep = rng.sample(range(1, a.n + 1), rng.randint(1, a.n))
        cases += [(tree, partial(ws.stabilize, tree, a, b)),
                  (tree, partial(ws.forget, tree, a, keep))]
    got = [_outcome(call) for _, call in cases]
    monkeypatch.setattr(curves, "_contract", graph_contract)
    assert got == [_outcome(call) for _, call in cases]
    # most calls give a tree; type II contractions, and chains of at least
    # two contractions, do leave new node-supported classes
    reduced = [(tree, out) for (tree, _), out in zip(cases, got)
               if isinstance(out, dict)]
    squeezed = [(tree, out) for tree, out in reduced
                if _new_node_classes(tree, out)]
    assert len(reduced) >= 2500 and len(squeezed) >= 100
    assert sum(len(tree.vertices) - len(out["vertices"]) >= 2
               for tree, out in squeezed) >= 10


class TestZeroWeightChains:
    def test_functoriality_through_zero_targets(self):
        a = ws.validate(0, [1, 1, 1, 1, 1])
        b = ws.validate(0, [1, 1, F(1, 2), F(1, 2), 1])
        c = ws.validate(0, [1, 1, 0, 0, 1], Mode.ZERO_ALLOWED)
        for stratum in ws.enumerate_strata(a, 2):
            direct = ws.stabilize(stratum.tree, a, c)
            composed = ws.stabilize(ws.stabilize(stratum.tree, a, b), b, c)
            assert ws.canonical_key(direct) == ws.canonical_key(composed)
            assert ws.is_stable(direct, c, Mode.ZERO_ALLOWED)
            assert direct.markings == frozenset(range(1, 6))


class TestAdjacentChambers:
    def test_single_wall_crossing_is_coincidence_only(self):
        # straddle the a_1 + a_2 = 1 wall, away from every other wall:
        # the crossing has size 2, so the reduction is an isomorphism and
        # the only divisor fate change is nodal -> coincidence
        eps = F(1, 100)
        base = (F(1, 2), F(1, 2), F(9, 10), F(9, 10), F(9, 10))
        above = ws.validate(0, (base[0] + eps, base[1] + eps) + base[2:])
        below = ws.validate(0, (base[0] - eps, base[1] - eps) + base[2:])
        fates = ws.contracted_divisors(above, below)
        statuses = {f.status for f in fates}
        assert DivisorStatus.CONTRACTED not in statuses
        changed = [f for f in fates
                   if f.status == DivisorStatus.BECOMES_COINCIDENCE]
        assert [f.collapsed_side for f in changed] == [frozenset({1, 2})]
        assert ws.is_reduction_iso(above, below)


class TestFineChamberConstancy:
    def test_stable_sets_agree(self, rng):
        fine = ws.Granularity.FINE
        for _ in range(8):
            a = random_weight_data(rng, 5)
            if ws.locate(a, fine).has_on:
                continue
            b = ws.perturb_to_fine_chamber(a)
            assert ws.same_chamber(a, b, fine)
            for stratum in ws.enumerate_strata(a, 2):
                assert ws.is_stable(stratum.tree, b)
            for stratum in ws.enumerate_strata(b, 2):
                assert ws.is_stable(stratum.tree, a)


class TestTreeJson:
    def test_round_trip_byte_stable(self):
        tree = ws.marked_tree(
            [(2, 0, [[4], [5]]),
             (1, 0, [[1], ws.mark_class([2, 3], node_supported=False)])],
            [(2, 1)])
        payload = tree.to_json_dict()
        again = ws.MarkedTree.from_json_dict(payload)
        assert again == tree
        assert again.to_json_dict() == payload

    def test_schema_shape(self):
        tree = ws.marked_tree([(1, 1, [ws.mark_class([1], True)])], [(1, 1)])
        payload = tree.to_json_dict()
        assert payload == {
            "vertices": [{"id": 1, "genus": 1, "classes": [[1]],
                          "node_supported": [True]}],
            "edges": [[1, 1]],
        }


@pytest.mark.parametrize("call, message", [
    (lambda: ws.mark_class([1.7, 2]), "marking must be an integer, got 1.7"),
    (lambda: ws.mark_class([True]), "marking must be an integer, got True"),
    (lambda: ws.marked_tree([(1.0, 0, [[1], [2], [3]])]),
     "vertex id must be an integer, got 1.0"),
    (lambda: ws.marked_tree([(1, "0", [[1], [2], [3]])]),
     "genus must be an integer, got '0'"),
    (lambda: ws.marked_tree([(1, 0, [[1], [2]]), (2, 0, [[3], [4]])],
                            [(1, 2.0)]),
     "edge end must be an integer, got 2.0"),
    (lambda: ws.is_blowup_profile(ws.validate(0, [1] * 5), [1.9, 2.5, 3.2]),
     "subset entry must be an integer, got 1.9"),
    (lambda: ws.symmetrized_boundary_count(ws.validate(0, [1] * 5),
                                           [[1, 2, 3], [4, 5.0]]),
     "block entry must be an integer, got 5.0"),
    (lambda: ws.forget(one_vertex(5), ws.validate(0, [1] * 5), [1, 2, 3.5]),
     "keep entry must be an integer, got 3.5"),
    (lambda: ws.is_stable(one_vertex(3), {1: 1, 2: 1, 3.0: 1}),
     "marking must be an integer, got 3.0"),
    (lambda: ws.degree_vanishing_case(True, 3, 0, 1, 0, 2),
     "g must be an integer, got True"),
    (lambda: ws.degree_vanishing_case(0, 3.0, 0, 1, 0, 2),
     "b must be an integer, got 3.0"),
    (lambda: ws.degree_vanishing_case(0, 3, 0, 1.0, 0, 2),
     "k must be an integer, got 1.0"),
    (lambda: ws.degree_vanishing_case(0, 3, 0, 1, True, 2),
     "sigma must be an integer, got True"),
    (lambda: ws.degree_vanishing_case(0, 3, 0, 1, 0, 2.0),
     "N must be an integer, got 2.0"),
    (lambda: ws.kapranov_x(6.0, 1), "n must be an integer, got 6.0"),
    (lambda: ws.kapranov_w(6, True, 1), "r must be an integer, got True"),
    (lambda: ws.kapranov_w(6, 1, 1.0), "s must be an integer, got 1.0"),
    (lambda: ws.keel_y(6, True), "k must be an integer, got True"),
    (lambda: ws.losev_manin(5.0), "n must be an integer, got 5.0"),
    (lambda: ws.blowup_sequence(FamilyKind.KAPRANOV_X, 6.0),
     "n must be an integer, got 6.0"),
    (lambda: ws.kapranov_ledger(6, 1.0, F(1, 2)),
     "k must be an integer, got 1.0"),
    (lambda: ws.kapranov_ample_lc_range(True),
     "n must be an integer, got True"),
    (lambda: ws.keel_ledger(6.5, F(1, 3), F(2, 3)),
     "n must be an integer, got 6.5"),
], ids=["mark_class", "mark_class-bool", "vertex-id", "vertex-genus",
        "edge-end", "is_blowup_profile", "symmetrized_boundary_count",
        "forget-keep", "weight-map-key", "degree-g", "degree-b", "degree-k",
        "degree-sigma", "degree-N", "kapranov_x", "kapranov_w-r",
        "kapranov_w-s", "keel_y", "losev_manin", "blowup_sequence",
        "kapranov_ledger", "kapranov_ample_lc_range", "keel_ledger"])
def test_markings_and_ids_must_be_integers(call, message):
    # int() would truncate 1.7 to 1 and read 1.0 as the vertex id 1; an
    # integer parameter given as a bool or a float passed or ended in a
    # TypeError traceback
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("vertices, edges, message", [
    ([(1, 0, [[1], []])], [], "coincidence classes must be nonempty"),
    ([], [], "a tree needs at least one vertex"),
    ([(1, 0, [[1]]), (1, 0, [[2]])], [], "vertex ids must be unique"),
    ([(1, 0, [[1], [2]])], [(3, 1)], "edge (1,3) references a missing vertex"),
    ([(1, -1, [[1]])], [], "vertex genus must be nonnegative"),
    ([(1, 0, [[1, 2], [2, 3]])], [],
     "marking assigned to more than one class"),
    ([(1, 0, [[1], [2]]), (2, 0, [[2], [3]])], [(1, 2)],
     "marking assigned to more than one class"),
    ([(1, 0, [[1]]), (2, 0, [[2]]), (3, 0, [[3]])], [(1, 2)],
     "the dual graph must be connected"),
    # several faults: the first in the order above wins
    ([(2, -1, [[1], [1]]), (2, 0, [[2]]), (4, 0, [])], [(2, 5)],
     "vertex ids must be unique"),
    ([(3, 0, [[1, 2]]), (1, -2, [[2]]), (2, 0, [[]])], [(1, 3)],
     "coincidence classes must be nonempty"),
    ([(3, 0, [[1, 2]]), (1, 0, [[2]]), (2, -1, [[3]]), (4, 0, [])],
     [(1, 3), (4, 3)], "vertex genus must be nonnegative"),
    ([(1, 0, [[1, 2]]), (2, 0, [[2]]), (3, 0, [[3]])], [(3, 7), (1, 6)],
     "edge (1,6) references a missing vertex"),
], ids=["empty-class", "no-vertex", "duplicate-id", "missing-end",
        "negative-genus", "overlap-one-vertex", "overlap-two-vertices",
        "disconnected", "duplicate-wins", "empty-class-wins", "genus-wins",
        "first-edge-wins"])
def test_marked_tree_structural_errors(vertices, edges, message):
    with pytest.raises(DomainError) as info:
        ws.marked_tree(vertices, edges)
    assert str(info.value) == message


@pytest.mark.parametrize("vertices, edges", [
    ([(1, 0, [[1]]), (2, 0, [[2]]), (3, 0, [[3]])], [(1, 2), (2, 9)]),
    ([(1, 0, [[1]]), (1, 0, [[2]])], []),
    ([(1, 0, [[1]]), (2, 0, [[2]]), (3, 0, [[3]])], [(1, 2)]),
    ([(1, -1, [[1]])], []),
    ([(1, 1.0, [[1]])], []),
    ([(1, 0, [[1]]), (2, True, [[2]])], [(1, 2)]),
    ([(1, 0, [[1], []])], []),
    ([(1, 0, [[1, 2], [2, 3]])], []),
    ([(1, 0, [[1], [2]]), (2, 0, [[2], [3]])], [(1, 2)]),
], ids=["missing-end", "duplicate-id", "disconnected", "negative-genus",
        "float-genus", "bool-genus", "empty-class", "overlap-one-vertex",
        "overlap-two-vertices"])
def test_hand_built_tree_structural_errors(vertices, edges):
    """MarkedTree and MarkClass check themselves: building one directly
    raises the DomainError that `marked_tree` gives for the same input."""
    with pytest.raises(DomainError) as expected:
        ws.marked_tree(vertices, edges)
    with pytest.raises(DomainError) as info:
        curves.MarkedTree(
            tuple(curves.Vertex(vid, genus, tuple(
                curves.MarkClass(frozenset(c)) for c in classes))
                for vid, genus, classes in vertices), tuple(edges))
    assert str(info.value) == str(expected.value)


@pytest.mark.parametrize("value", [0.1, True, "abc"])
@pytest.mark.parametrize("call", [ws.is_stable,
                                  lambda tree, a: ws.vertex_log_degree(tree, 1,
                                                                       a)],
                         ids=["is_stable", "vertex_log_degree"])
def test_weight_map_values_must_be_exact(call, value):
    # Fraction(0.1) would read the float's binary value, and True as 1
    tree = ws.marked_tree([(1, 0, [[1], [2], [3]])])
    with pytest.raises(DomainError) as info:
        call(tree, {1: 1, 2: value, 3: 1})
    assert str(info.value) == f"a_2 = {value!r} is not an exact rational"


@pytest.mark.parametrize("weights", [{1: 1, 2: 1}, [1, 1, 1, 1]],
                         ids=["marking-unweighted", "weight-unmarked"])
def test_vertex_log_degree_refuses_mismatched_weights(weights):
    """`vertex_log_degree` refuses weights whose indices are not the tree's
    markings, with the error `is_stable` gives."""
    tree = ws.marked_tree([(1, 0, [[1], [2], [3]])])
    if isinstance(weights, list):
        weights = ws.validate(0, weights)
    message = r"tree markings \[1, 2, 3\] do not match the weight indices"
    for call in (ws.is_stable, ws.vertex_log_degree):
        args = (weights,) if call is ws.is_stable else (1, weights)
        with pytest.raises(DomainError, match=message):
            call(tree, *args)


def test_vertex_log_degree_refuses_another_genus():
    """`vertex_log_degree` refuses weight data of another genus than the
    tree's arithmetic genus, with the error `is_stable` gives."""
    tree = ws.marked_tree([(1, 0, [[1], [2], [3]])])
    weights = ws.validate(1, [1, 1, 1])
    message = "tree has arithmetic genus 0, weight data has genus 1"
    for call in (ws.is_stable, ws.vertex_log_degree):
        args = (weights,) if call is ws.is_stable else (1, weights)
        with pytest.raises(DomainError, match=message):
            call(tree, *args)


@st.composite
def dominated_weight_pairs(draw):
    n = draw(st.integers(4, 6))
    dens = draw(st.integers(2, 8))
    big = tuple(Fraction(draw(st.integers(1, dens)), dens) for _ in range(n))
    assume(sum(big) > 2)
    cut = tuple(Fraction(draw(st.integers(6, 10)), 10) for _ in range(n))
    small = tuple(b * c for b, c in zip(big, cut))
    assume(sum(small) > 2)
    return ws.validate(0, big), ws.validate(0, small), draw(st.integers(0, 10**6))


@settings(max_examples=60, deadline=None)
@given(dominated_weight_pairs())
def test_stabilize_properties_hypothesis(pair):
    a, b, seed = pair
    tree = random_stable_tree(random.Random(seed), a)
    reduced = ws.stabilize(tree, a, b)
    assert ws.is_stable(reduced, b)
    assert ws.stabilize(reduced, b, b) == reduced
    assert reduced.markings == tree.markings
    assert len(reduced.vertices) <= len(tree.vertices)


class TestCanonicalForm:
    def test_relabel_invariance(self, rng):
        for _ in range(20):
            a = random_weight_data(rng, 6)
            tree = random_stable_tree(rng, a)
            other = relabel_tree(tree, rng)
            assert ws.canonical_key(tree) == ws.canonical_key(other)
            assert ws.canonical_form(tree) == ws.canonical_form(other)

    def test_relabel_invariance_with_genus_and_node_support(self, rng):
        """Raised genera, node-supported classes and two identical unmarked
        genus-1 leaves, whose sibling keys tie."""
        for _ in range(40):
            tree = random_stable_tree(rng, random_weight_data(
                rng, rng.randint(3, 7)))
            new = max(tree.vertex_ids) + 1
            anchor = rng.choice(tree.vertex_ids)
            vertices = [(v.id, rng.randint(0, 2),
                         [ws.mark_class(c.markings, rng.random() < 0.5)
                          for c in v.classes]) for v in tree.vertices]
            decorated = ws.marked_tree(
                vertices + [(new, 1, []), (new + 1, 1, [])],
                list(tree.edges) + [(anchor, new), (anchor, new + 1)])
            form = ws.canonical_form(decorated)
            assert form.vertex_ids == tuple(range(1, len(form.vertices) + 1))
            assert ws.canonical_form(form) == form
            for _ in range(3):
                other = relabel_tree(decorated, rng)
                assert ws.canonical_key(other) == ws.canonical_key(decorated)
                assert ws.canonical_form(other) == form

    def test_form_of_tied_genus_one_leaves(self):
        tree = ws.marked_tree(
            [(5, 0, [[4], ws.mark_class([1, 3], True)]), (9, 1, []),
             (3, 1, []), (2, 2, [ws.mark_class([2], True), [6]]),
             (7, 0, [[5]])],
            [(5, 9), (5, 3), (2, 5), (7, 2)])
        assert ws.canonical_form(tree).to_json_dict() == {
            "vertices": [
                {"id": 1, "genus": 0, "classes": [[1, 3], [4]],
                 "node_supported": [True, False]},
                {"id": 2, "genus": 1, "classes": [], "node_supported": []},
                {"id": 3, "genus": 1, "classes": [], "node_supported": []},
                {"id": 4, "genus": 2, "classes": [[2], [6]],
                 "node_supported": [True, False]},
                {"id": 5, "genus": 0, "classes": [[5]],
                 "node_supported": [False]}],
            "edges": [[1, 2], [1, 3], [1, 4], [4, 5]]}
        key = ws.canonical_key(tree)
        assert key[2][0] == key[2][1] == (1, (), ())

    def test_rejects_loops(self):
        loop = ws.marked_tree([(1, 0, [[1], [2]])], [(1, 1)])
        with pytest.raises(DomainError):
            ws.canonical_key(loop)


@pytest.fixture
def rng():
    return random.Random(13)

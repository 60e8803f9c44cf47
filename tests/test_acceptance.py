"""Acceptance criteria.

Each test prints one PASS/FAIL line and enforces the stated wall-clock
budget; every numeric comparison is exact rational equality.
"""

import random
import time
from fractions import Fraction
from itertools import permutations, product

import pytest

import weightscape as ws
from weightscape.curves import DegreeCase, DivisorKind
from weightscape.errors import DomainError
from weightscape.named import FamilyKind

from conftest import (brute_force_boundary, grid_sign_vectors,
                      permute_sign_vector, random_between, random_dominated,
                      random_stable_tree, random_weight_data, relabel_tree)

F = Fraction
FINE = ws.Granularity.FINE


class _Budget:
    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.label} {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.label} exceeded its {self.seconds}s budget "
                f"({elapsed:.2f}s)")
        return False


def test_criterion_01_remark76_reproduction():
    with _Budget("01 remark76 bundle", 1.0):
        rng_report = ws.remark76_check()
        assert rng_report.ample_lc_range.lower_exclusive == F(2, 5)
        assert rng_report.ample_lc_range.upper_inclusive == F(1, 2)
        types = ws.strictly_semistable_types(
            ws.Linearization.make([F(1, 3)] * 6))
        assert len(types) == 10
        steps = {(s.source.k, s.target.k): s.exceptional_count
                 for s in ws.blowup_sequence(FamilyKind.KAPRANOV_X, 6)}
        assert steps[(1, 0)] == 5
        assert steps[(2, 1)] == 10


def test_criterion_02_keel_choice():
    with _Budget("02 Keel coefficient choice", 1.0):
        for n in range(5, 13):
            alpha, beta = F(1, n - 3), F(2, n - 3)
            good = ws.keel_ledger(n, alpha, beta)
            assert good.ample and good.log_canonical
            broken = ws.keel_ledger(n, alpha, beta + F(1, 100))
            assert not broken.log_canonical


def test_criterion_03_kapranov_sweep():
    with _Budget("03 Kapranov threshold sweep", 1.0):
        for n in range(5, 13):
            for i in range(1, 51):
                alpha = F(i, 50)
                verdict = ws.kapranov_ledger(n, n - 4, alpha).log_canonical
                assert verdict == (alpha <= F(2, n - 2))


def _tree_shapes(k):
    """Unlabeled trees on k nodes as (edges, automorphisms) pairs."""
    if k == 1:
        return [((), [(0,)])]
    shapes = {}
    for seq in product(range(k), repeat=k - 2):
        edges = _pruefer_to_edges(seq, k)
        key = min(
            tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in edges))
            for p in permutations(range(k)))
        shapes.setdefault(key, edges)
    out = []
    for edges in shapes.values():
        edge_set = set(tuple(sorted(e)) for e in edges)
        autos = [p for p in permutations(range(k))
                 if all(tuple(sorted((p[a], p[b]))) in edge_set
                        for a, b in edge_set)]
        out.append((tuple(edge_set), autos))
    return out


def _pruefer_to_edges(seq, k):
    seq = list(seq)
    degree = [1] * k
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = min(i for i in range(k) if degree[i] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    last = [i for i in range(k) if degree[i] == 1]
    edges.append((last[0], last[1]))
    return edges


def test_criterion_04_deligne_mumford_agreement():
    # With unit weights, trees with more than n-3 edges fail both notions
    # outright: the vertex degrees sum to n-2, so some vertex has at most
    # two special points.  The scan below is exhaustive over the rest:
    # every labeled tree with singleton classes and at most n-3 edges.
    from weightscape.curves import MarkClass, MarkedTree, Vertex

    with _Budget("04 Deligne-Mumford agreement", 30.0):
        total = 0
        for n in range(3, 8):
            data = ws.validate(0, [1] * n)
            wmap = data.weight_map()
            stable_count = 0
            for k in range(1, max(2, n - 1)):
                if k - 1 > n - 3:
                    break
                for edges, autos in _tree_shapes(k):
                    tree_edges = tuple(sorted(
                        tuple(sorted((a + 1, b + 1))) for a, b in edges))
                    for assign in product(range(k), repeat=n):
                        if any(tuple(p[v] for v in assign) < assign
                               for p in autos):
                            continue
                        # in canonical order already: build the frozen tree
                        # directly, skipping only `marked_tree`'s sorting
                        # (the constructor still runs the structural check)
                        vertices = tuple(
                            Vertex(i + 1, 0, tuple(
                                MarkClass(frozenset((m + 1,)))
                                for m in range(n) if assign[m] == i))
                            for i in range(k))
                        tree = MarkedTree(vertices, tree_edges)
                        verdict = bool(ws.is_stable(tree, wmap))
                        special = {
                            v.id: tree.valence(v.id) + sum(
                                len(c.markings) for c in v.classes)
                            for v in tree.vertices}
                        dm = all(s >= 3 for s in special.values())
                        assert verdict == dm
                        stable_count += verdict
                        total += 1
            expected = len(ws.enumerate_strata(data, n - 3))
            assert stable_count == expected
        # deterministic size of the full scan across n = 3..7
        assert total == 98520


def test_criterion_05_boundary_counts():
    with _Budget("05 boundary divisor counts", 1.0):
        cases = [([1] * 5, 10, 0), ([1] * 6, 25, 0),
                 ([1, 1, F(1, 2), F(1, 2)], 2, 1)]
        for weights, nodal, coincidence in cases:
            data = ws.validate(0, weights)
            divisors = ws.boundary_divisors(data)
            got_nodal = {frozenset((d.members, d.complement))
                         for d in divisors if d.kind == DivisorKind.NODAL}
            got_pairs = {d.members for d in divisors
                         if d.kind == DivisorKind.COINCIDENCE}
            oracle_nodal, oracle_pairs = brute_force_boundary(data)
            assert len(got_nodal) == nodal and len(got_pairs) == coincidence
            assert got_nodal == oracle_nodal
            assert got_pairs == oracle_pairs


def test_criterion_06_reduction_properties():
    with _Budget("06 reduction properties (200 trials)", 60.0):
        rng = random.Random(2024)
        for trial in range(200):
            n = 4 + trial % 4  # n in 4..7
            a = random_weight_data(rng, n)
            c = random_dominated(rng, a)
            b = random_between(rng, c, a)
            tree = random_stable_tree(rng, a)

            direct = ws.stabilize(tree, a, c)
            composed = ws.stabilize(ws.stabilize(tree, a, b), b, c)
            assert ws.canonical_key(direct) == ws.canonical_key(composed)

            shuffled = ws.stabilize(relabel_tree(tree, rng), a, b)
            assert ws.canonical_key(shuffled) == \
                ws.canonical_key(ws.stabilize(tree, a, b))

            assert ws.is_stable(ws.stabilize(tree, a, b), b)
            assert ws.stabilize(tree, a, a) == tree


def test_criterion_07_chamber_suite():
    with _Budget("07 chamber enumeration vs grid oracle", 120.0):
        rng = random.Random(7)
        for n in (4, 5):
            chambers = ws.enumerate_chambers(0, n, FINE)
            codes = {c.sign_vector.codes() for c in chambers}
            assert len(codes) == len(chambers)
            assert codes == grid_sign_vectors(n)
            for chamber in chambers:
                assert ws.locate(chamber.representative, FINE) == \
                    chamber.sign_vector
            vectors = {c.sign_vector.positions for c in chambers}
            for _ in range(25):
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                assert {permute_sign_vector(c.sign_vector, perm, n)
                        for c in chambers} == vectors


def test_criterion_08_fine_chamber_constancy():
    with _Budget("08 fine-chamber constancy", 60.0):
        rng = random.Random(88)
        done = 0
        while done < 50:
            n = 5 if done % 2 == 0 else 6
            a = random_weight_data(rng, n)
            if ws.locate(a, FINE).has_on:
                continue
            b = ws.perturb_to_fine_chamber(a)
            assert ws.same_chamber(a, b, FINE)
            strata_a = ws.enumerate_strata(a, n - 3)
            for stratum in strata_a:
                assert ws.is_stable(stratum.tree, b)
            strata_b = ws.enumerate_strata(b, n - 3)
            assert len(strata_b) == len(strata_a)
            for stratum in strata_b:
                assert ws.is_stable(stratum.tree, a)
            done += 1


def test_criterion_09_git_chamber_matching():
    with _Budget("09 GIT quotient matching", 10.0):
        rng = random.Random(55)
        done = 0
        while done < 50:
            n = 5 if done % 2 == 0 else 6
            t = _random_typical(rng, n)
            a = ws.tau_fine_preimage(t)
            assert ws.chamber_matches_quotient(a, t)
            done += 1
        match = ws.chamber_matches_quotient(
            ws.validate(0, [1] * 5), ws.Linearization.make([F(2, 5)] * 5))
        assert not match


def _random_typical(rng, n, attempts=5000):
    for _ in range(attempts):
        dens = rng.randint(3, 9)
        raw = [rng.randint(1, dens) for _ in range(n)]
        total = sum(raw)
        t = [F(2 * r, total) for r in raw]
        if all(0 < x < 1 for x in t):
            lin = ws.Linearization.make(t)
            if ws.is_typical(lin):
                return lin
    raise AssertionError("no typical linearization sampled")


def test_criterion_10_degree_case_table():
    with _Budget("10 degree-formula case table", 1.0):
        seen = set()
        for g, b, d, k, sigma, N in product(
                range(0, 4), range(0, 7), range(0, 5), range(1, 4),
                range(0, 3), (2, 3, 4)):
            deg_m = k * (2 * g - 2 + b) + d
            if deg_m < 1:
                with pytest.raises(DomainError):
                    ws.degree_vanishing_case(g, b, d, k, sigma, N)
                continue
            got = ws.degree_vanishing_case(g, b, d, k, sigma, N)
            # independent recomputation from the other form of the degree
            deg_f = (2 * g - 2 + b) + sigma - N * deg_m
            if deg_f < 0:
                expected = DegreeCase.VANISHES
            elif (d, k, g, b) == (0, 1, 0, 3):
                expected = DegreeCase.EXCEPTIONAL_1
            elif (d, k, g, b) == (0, 1, 1, 1):
                expected = DegreeCase.EXCEPTIONAL_2
            else:
                expected = DegreeCase.NONVANISHING
            assert got == expected
            if sigma == 0:
                assert got == DegreeCase.VANISHES
            covered = (N >= 4 or (N == 3 and sigma <= 1) or sigma == 0
                       or (N == 3 and sigma == 2) or (N == 2 and sigma <= 1))
            if covered:
                assert got != DegreeCase.NONVANISHING
            seen.add(got)
        assert seen == {DegreeCase.VANISHES, DegreeCase.EXCEPTIONAL_1,
                        DegreeCase.EXCEPTIONAL_2, DegreeCase.NONVANISHING}

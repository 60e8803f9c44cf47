"""The public surface of the package: the names `weightscape` exports, the
module each one lives in, and how they resolve in a fresh process."""

import json
import os
import re
import subprocess
import sys

import pytest

import weightscape as ws

EXPORTS = {
    "errors": [
        "AtypicalLinearization", "BoundarySumMismatch", "DegreeNotPositive",
        "DomainError", "DomainViolation", "InternalInvariantError",
        "LimitExceeded", "NonterminatingContraction", "NotAStable", "OnWall",
        "ResidualDegreeNotPositive", "UnequalWeightsInBlock",
        "WeightOutOfRange", "WeightsNotDominated", "WeightscapeError"],
    "ratcore": ["Rational", "rat", "rat_str"],
    "weights": [
        "Chamber", "Granularity", "Mode", "Position", "SignVector", "Wall",
        "WeightData", "enumerate_chambers", "locate",
        "perturb_to_fine_chamber", "same_chamber", "universal_curve_weight",
        "validate", "walls"],
    "curves": [
        "BoundaryDivisor", "DegreeCase", "DivisorFate", "DivisorKind",
        "DivisorStatus", "MarkClass", "MarkedTree", "StabilityReport",
        "Stratum", "Vertex", "boundary_divisors", "canonical_form",
        "canonical_key", "contracted_divisors", "degree_vanishing_case",
        "enumerate_strata", "forget", "is_blowup_profile", "is_reduction_iso",
        "is_stable", "mark_class", "marked_tree", "stabilize",
        "symmetrized_boundary_count", "vertex_log_degree"],
    "git": [
        "ConfigType", "GitVerdict", "Linearization", "QuotientMatch",
        "chamber_matches_quotient", "is_typical", "stability",
        "strictly_semistable_types", "tau", "tau_fine_preimage"],
    "logcanon": [
        "AmpleLcRange", "DiscrepancyLedger", "KeelLedgerResult", "LedgerStep",
        "Remark76Report", "kapranov_ample_lc_range", "kapranov_ledger",
        "keel_ledger", "remark76_check"],
    "named": [
        "BlowupStep", "FamilyKind", "NamedFamily", "blowup_sequence",
        "classify", "kapranov_w", "kapranov_x", "keel_y", "losev_manin",
        "parse_tag", "weights_for"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)

# Run in a fresh process, so that every name is read before anything has
# bound it in the package: `dir` first, then each name, then `import *`.
SURFACE = """\
import importlib, json, sys
import weightscape
listed = dir(weightscape)
homes = json.loads(sys.argv[1])
foreign = [name for module, names in homes.items() for name in names
           if getattr(weightscape, name) is not getattr(
               importlib.import_module("weightscape." + module), name)]
namespace = {}
exec("from weightscape import *", namespace)
print(json.dumps({"all": weightscape.__all__, "dir": listed,
                  "foreign": foreign,
                  "star": sorted(set(namespace) - {"__builtins__"})}))
"""


def test_exported_names():
    assert len(NAMES) == 87
    assert sorted(ws.__all__) == NAMES


def test_names_resolve_to_their_home_modules():
    child = subprocess.run(
        [sys.executable, "-c", SURFACE, json.dumps(EXPORTS)],
        capture_output=True, text=True, check=True,
        env={**os.environ,
             "PYTHONPATH": os.path.dirname(os.path.dirname(ws.__file__))})
    surface = json.loads(child.stdout)
    assert sorted(surface["all"]) == NAMES
    assert set(NAMES) <= set(surface["dir"])
    assert surface["foreign"] == []
    assert surface["star"] == NAMES


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        ws.no_such_name
    assert not hasattr(ws, "no_such_name")


def _unit(n):
    return ws.validate(0, [1] * n)


def _root(n):
    return ws.marked_tree([(1, 0, [[m] for m in range(1, n + 1)])], [])


_GENUS_1 = ws.validate(1, ["1/2"] * 3)

# (call, exception type, message fragment): input errors of the public
# entry points, one row each
INPUT_ERRORS = {
    "validate-no-weights": (lambda: ws.validate(0, []), ws.DomainError,
                            "at least one weight"),
    "strata-genus-1": (lambda: ws.enumerate_strata(_GENUS_1, 1),
                       ws.DomainError, "implemented for genus 0"),
    "boundary-genus-1": (lambda: ws.boundary_divisors(_GENUS_1),
                         ws.DomainError, "implemented for genus 0"),
    "classify-genus-1": (lambda: ws.classify(_GENUS_1), ws.DomainError,
                         "live in genus 0"),
    "tau-genus-1": (lambda: ws.tau(_GENUS_1), ws.DomainError,
                    "defined for genus 0"),
    "quotient-genus-1": (
        lambda: ws.chamber_matches_quotient(
            _GENUS_1, ws.Linearization.make(["2/5"] * 5)),
        ws.DomainError, "defined for genus 0"),
    "config-overlapping-classes": (
        lambda: ws.ConfigType.make([[1, 2], [2, 3]]), ws.DomainError,
        "must be disjoint"),
    "config-classes-miss-a-marking": (
        lambda: ws.ConfigType.make([[1, 2], [4]]), ws.DomainError,
        "must cover 1..n"),
    "symmetrized-blocks-no-partition": (
        lambda: ws.symmetrized_boundary_count(_unit(5), [[1, 2], [3]]),
        ws.DomainError, "must partition the marking indices"),
    "symmetrized-blocks-empty-block": (
        lambda: ws.symmetrized_boundary_count(_unit(5),
                                              [[1, 2, 3, 4, 5], []]),
        ws.DomainError, "must partition the marking indices"),
    "forget-keep-out-of-range": (
        lambda: ws.forget(_root(5), _unit(5), [1, 9]), ws.DomainError,
        "nonempty subset of the marking indices"),
    "forget-unstable-tree": (
        lambda: ws.forget(ws.marked_tree(
            [(1, 0, [[1], [2], [3], [4]]), (2, 0, [[5]])], [(1, 2)]),
            _unit(5), [1, 2, 3, 4]),
        ws.NotAStable, "not stable for the source weights"),
    "stabilize-different-lengths": (
        lambda: ws.stabilize(_root(5), _unit(5), _unit(4)), ws.DomainError,
        "different genus or length"),
    "kapranov-w-r-too-large": (lambda: ws.kapranov_w(6, 4, 1),
                               ws.DomainError, "need 1 <= r <= n-3"),
    "losev-manin-n-2": (lambda: ws.losev_manin(2), ws.DomainError,
                        "needs n >= 3"),
    "parse-tag-bad-index": (lambda: ws.parse_tag("X(a)", 6), ws.DomainError,
                            "cannot parse family tag"),
    "parse-tag-not-a-string": (lambda: ws.parse_tag(5, 6), ws.DomainError,
                               "a family tag must be a string, got 5"),
    "keel-ledger-n-4": (lambda: ws.keel_ledger(4, "1/2", "1/2"),
                        ws.DomainError, "needs n >= 5"),
    "keel-ledger-negative-alpha": (
        lambda: ws.keel_ledger(6, "-1", "1/2"), ws.DomainError,
        "coefficients must be nonnegative"),
    "ample-lc-range-n-4": (lambda: ws.kapranov_ample_lc_range(4),
                           ws.DomainError, "needs n >= 5"),
    "degree-case-negative-genus": (
        lambda: ws.degree_vanishing_case(-1, 1, 1, 1, 1, 2), ws.DomainError,
        "g must be a nonnegative integer"),
    "degree-case-N-1": (
        lambda: ws.degree_vanishing_case(0, 1, 1, 1, 1, 1), ws.DomainError,
        "N must be an integer >= 2"),
    "blowup-profile-out-of-range": (
        lambda: ws.is_blowup_profile(_unit(5), [1, 2, 9]), ws.DomainError,
        "subset out of range"),
    "canonical-key-no-markings": (
        lambda: ws.canonical_key(ws.marked_tree([(1, 0, [])], [])),
        ws.DomainError, "needs at least one marking"),
    "vertex-unknown-id": (lambda: _root(5).vertex(9), ws.DomainError,
                          "no vertex with id 9"),
    "blowup-sequence-losev-manin": (
        lambda: ws.blowup_sequence(ws.FamilyKind.LOSEV_MANIN, 5),
        ws.DomainError, "no blow-up chain"),
}


@pytest.mark.parametrize("call, error, fragment", INPUT_ERRORS.values(),
                         ids=INPUT_ERRORS.keys())
def test_input_errors(call, error, fragment):
    with pytest.raises(error, match=re.escape(fragment)):
        call()

"""The public surface of the package: the names `weightscape` exports, the
module each one lives in, and how they resolve in a fresh process."""

import json
import os
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

"""weightscape: exact combinatorics of weighted pointed stable curves.

Everything is computed in exact rational arithmetic.  The package covers
the weight-domain chamber decompositions, stability and contraction of
dual trees, boundary and exceptional-locus bookkeeping, GIT stability of
point configurations on the line, the named chamber families, and the
discrepancy ledgers of the standard blow-up towers.

Public names resolve on first use (PEP 562): reading one imports its home
module, so a program loads only the modules whose names it uses.
"""

import importlib

_HOME = {name: module for module, names in [
    ("errors", "AtypicalLinearization BoundarySumMismatch DegreeNotPositive "
     "DomainError DomainViolation InternalInvariantError LimitExceeded "
     "NonterminatingContraction NotAStable OnWall ResidualDegreeNotPositive "
     "UnequalWeightsInBlock WeightOutOfRange WeightsNotDominated "
     "WeightscapeError"),
    ("ratcore", "Rational rat rat_str"),
    ("weights", "Chamber Granularity Mode Position SignVector Wall "
     "WeightData enumerate_chambers locate perturb_to_fine_chamber "
     "same_chamber universal_curve_weight validate walls"),
    ("curves", "BoundaryDivisor DegreeCase DivisorFate DivisorKind "
     "DivisorStatus MarkClass MarkedTree StabilityReport Stratum Vertex "
     "boundary_divisors canonical_form canonical_key contracted_divisors "
     "degree_vanishing_case enumerate_strata forget is_blowup_profile "
     "is_reduction_iso is_stable mark_class marked_tree stabilize "
     "symmetrized_boundary_count vertex_log_degree"),
    ("git", "ConfigType GitVerdict Linearization QuotientMatch "
     "chamber_matches_quotient is_typical stability "
     "strictly_semistable_types tau tau_fine_preimage"),
    ("logcanon", "AmpleLcRange DiscrepancyLedger KeelLedgerResult "
     "LedgerStep Remark76Report kapranov_ample_lc_range kapranov_ledger "
     "keel_ledger remark76_check"),
    ("named", "BlowupStep FamilyKind NamedFamily blowup_sequence classify "
     "kapranov_w kapranov_x keel_y losev_manin parse_tag weights_for"),
] for name in names.split()}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    globals()[name] = value = getattr(module, name)  # later reads skip this
    return value


def __dir__():
    return sorted({*globals(), *__all__})

"""Discrepancy ledgers for the two standard blow-up towers of genus-0
moduli and the associated ampleness / log-canonical inequality checks.

Both towers start from a projective base (projective space for the
Kapranov chain, a product of lines for the Keel chain).  Each ledger row
records, for one blow-up step, the coefficient of the exceptional divisor
in the canonical class, its multiplicity in the pulled-back boundary, and
the resulting discrepancy; log canonical means every discrepancy is at
least -1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import DomainError
from .ratcore import rat_str, rational
from .weights import _integer

_NEG_ONE = Fraction(-1)


@dataclass(frozen=True)
class LedgerStep:
    index: int
    family: str                       # "point" tower vs "diagonal" tower
    canonical_coefficient: Fraction
    multiplicities: tuple[tuple[str, Fraction], ...]
    discrepancy: Fraction

    def to_json_dict(self) -> dict:
        return {
            "step": self.index,
            "family": self.family,
            "canonical_coefficient": rat_str(self.canonical_coefficient),
            "multiplicities": {name: rat_str(m)
                               for name, m in self.multiplicities},
            "discrepancy": rat_str(self.discrepancy),
        }


@dataclass(frozen=True)
class DiscrepancyLedger:
    n: int
    coefficients: tuple[tuple[str, Fraction], ...]
    steps: tuple[LedgerStep, ...]

    @property
    def log_canonical(self) -> bool:
        return all(s.discrepancy >= _NEG_ONE for s in self.steps)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "coefficients": {name: rat_str(v) for name, v in self.coefficients},
            "steps": [s.to_json_dict() for s in self.steps],
            "log_canonical": self.log_canonical,
        }


def kapranov_ledger(n: int, k: int, alpha) -> DiscrepancyLedger:
    """Ledger for the first k blow-up steps over projective space with
    boundary coefficient alpha: step r has canonical coefficient n-3-r and
    boundary multiplicity C(n-1-r, 2)."""
    alpha = rational(alpha, "alpha")
    if _integer(n, "n") < 5:
        raise DomainError("the tower needs n >= 5")
    if not 1 <= _integer(k, "k") <= n - 4:
        raise DomainError(f"need 1 <= k <= n-4 = {n - 4}, got {k}")
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    steps = []
    for r in range(1, k + 1):
        coeff = Fraction(n - 3 - r)
        mult = Fraction(comb(n - 1 - r, 2))
        steps.append(LedgerStep(r, "point", coeff, (("boundary", mult),),
                                coeff - alpha * mult))
    return DiscrepancyLedger(n, (("alpha", alpha),), tuple(steps))


@dataclass(frozen=True)
class AmpleLcRange:
    """Exact interval (lower, upper] of boundary coefficients that keep the
    log divisor both ample and log canonical."""
    lower_exclusive: Fraction
    upper_inclusive: Fraction

    @property
    def nonempty(self) -> bool:
        return self.lower_exclusive < self.upper_inclusive

    def contains(self, alpha) -> bool:
        return self.lower_exclusive < rational(alpha, "alpha") \
            <= self.upper_inclusive

    def to_json_dict(self) -> dict:
        return {"lower_exclusive": rat_str(self.lower_exclusive),
                "upper_inclusive": rat_str(self.upper_inclusive),
                "nonempty": self.nonempty}


def kapranov_ample_lc_range(n: int) -> AmpleLcRange:
    """Ampleness needs alpha > 2/(n-1); log canonicity caps it at 2/(n-2)."""
    if _integer(n, "n") < 5:
        raise DomainError("the tower needs n >= 5")
    return AmpleLcRange(Fraction(2, n - 1), Fraction(2, n - 2))


@dataclass(frozen=True)
class KeelLedgerResult:
    ledger: DiscrepancyLedger
    ample: bool
    log_canonical: bool
    beta_bound_ok: bool          # beta <= 2/(n-3)
    alpha_beta_bound_ok: bool    # alpha + beta (n-4)/2 <= 1

    def to_json_dict(self) -> dict:
        payload = self.ledger.to_json_dict()
        payload.update({
            "ample": self.ample,
            "log_canonical": self.log_canonical,
            "beta_bound_ok": self.beta_bound_ok,
            "alpha_beta_bound_ok": self.alpha_beta_bound_ok,
        })
        return payload


def keel_ledger(n: int, alpha, beta) -> KeelLedgerResult:
    """Both discrepancy families of the tower over the product of lines
    with coefficients alpha (fiber divisors) and beta (diagonals).

    First family (r = 1..n-4): n-3-r - alpha(n-2-r) - beta C(n-2-r, 2).
    Second family (r = 1..n-5): n-4-r - beta C(n-2-r, 2).
    Ampleness of the base log divisor is 3 alpha + (n-4) beta > 2.
    """
    alpha, beta = rational(alpha, "alpha"), rational(beta, "beta")
    if _integer(n, "n") < 5:
        raise DomainError("the tower needs n >= 5")
    if alpha < 0 or beta < 0:
        raise DomainError("boundary coefficients must be nonnegative")
    steps = []
    for r in range(1, n - 3):
        coeff = Fraction(n - 3 - r)
        fmult = Fraction(n - 2 - r)
        dmult = Fraction(comb(n - 2 - r, 2))
        steps.append(LedgerStep(
            r, "point", coeff, (("fiber", fmult), ("diagonal", dmult)),
            coeff - alpha * fmult - beta * dmult))
    for r in range(1, n - 4):
        coeff = Fraction(n - 4 - r)
        dmult = Fraction(comb(n - 2 - r, 2))
        steps.append(LedgerStep(
            n - 4 + r, "diagonal", coeff, (("fiber", Fraction(0)),
                                           ("diagonal", dmult)),
            coeff - beta * dmult))
    ledger = DiscrepancyLedger(n, (("alpha", alpha), ("beta", beta)),
                               tuple(steps))
    return KeelLedgerResult(
        ledger=ledger,
        ample=3 * alpha + (n - 4) * beta > 2,
        log_canonical=ledger.log_canonical,
        beta_bound_ok=beta <= Fraction(2, n - 3),
        alpha_beta_bound_ok=alpha + beta * Fraction(n - 4, 2) <= 1)


@dataclass(frozen=True)
class Remark76Report:
    ample_lc_range: AmpleLcRange
    semistable_type_count: int
    point_center_count: int      # centers of the first Kapranov-chain step
    line_center_count: int       # centers of the second step

    def to_json_dict(self) -> dict:
        return {
            "ample_lc_range": self.ample_lc_range.to_json_dict(),
            "semistable_type_count": self.semistable_type_count,
            "point_center_count": self.point_center_count,
            "line_center_count": self.line_center_count,
        }


def remark76_check() -> Remark76Report:
    """Bundle the n = 6 facts: the ample-and-log-canonical window
    (2/5, 1/2], the ten strictly semistable classes of the symmetric
    one-third linearization, and the five point / ten line blow-up centers
    of the length-6 Kapranov chain."""
    from .git import Linearization, strictly_semistable_types
    from .named import FamilyKind, blowup_sequence

    third = Fraction(1, 3)
    ss = strictly_semistable_types(Linearization.make([third] * 6))
    steps = blowup_sequence(FamilyKind.KAPRANOV_X, 6)
    by_step = {(s.source.k, s.target.k): s.exceptional_count for s in steps}
    return Remark76Report(
        ample_lc_range=kapranov_ample_lc_range(6),
        semistable_type_count=len(ss),
        point_center_count=by_step[(1, 0)],
        line_center_count=by_step[(2, 1)])

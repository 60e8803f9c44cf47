"""Exact rationals, and the integer elimination engine of the chamber search.

Rationals are `fractions.Fraction` values (always reduced, denominator
positive); every computation in the package stays exact, floats never
appear.  Rationals serialize as "p/q" in lowest terms, or "p" when the
denominator is 1 -- which is precisely `str(Fraction)`.

The chamber search decides which sign patterns of the walls bound an
open chamber by Fourier-Motzkin elimination on integer rows (coeffs,
bound), meaning coeffs . x < bound.  That is the contract: every row is
strict, and the first rows bound every variable on both sides (the
search starts from the domain rows 0 < a_j < 1), so each interval of the
back-substitution is open and two-sided.  Coefficients and bound are
integers throughout: every row a stage derives is a positive integer
combination of earlier ones divided by a positive gcd, which keeps its
solution set.  The elimination is kept as stages, one per variable: a
stage maps the primitive direction of each row involving its variable to
the tightest such row (parallel rows are pruned by dominance only).
`_extend` adds rows to stages: a row that tightens a stage meets that
stage's opposite-sign rows, each pair once, and only those combinations
and the rows free of the variable enter the next stage, so a search
adding one row at a time pays for the new pairs only.

Interior points are reconstructed deterministically by back-substitution
through the stages (`_scaled_point`), taking the midpoint of each open
interval.  It runs on integers too: the fixed values are numerators over
one running denominator, and a stage's limits are compared by
cross-multiplying; a caller that wants `Fraction`s builds one per
coordinate, at the end.  Each interval is a fiber of a projection of the
solution set, so a point depends on the solution set only: rows an
incremental stage keeps beyond a from-scratch one (combinations of a row
later displaced by a tighter parallel one) are implied and move no
limit.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Union

from .errors import DomainError, InternalInvariantError

Rational = Fraction
RationalLike = Union[Fraction, int, str]


def rat(value: RationalLike) -> Fraction:
    """Parse a rational from an int, a Fraction, or a "p/q" string.

    Floats are rejected on purpose: exactness is the contract.  So are
    bools, which Python would otherwise read as the integers 0 and 1.
    """
    if isinstance(value, bool):
        raise DomainError(f"a bool is not a rational: {value!r}")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"not an exact rational: {value!r}")


def rational(value, name: str) -> Fraction:
    """`rat(value)`, except that a value that is no exact rational (a
    float, a bool, a malformed string, a zero denominator) raises
    DomainError naming it: `a_1 = 0.5 is not an exact rational`."""
    try:
        return rat(value)
    except (TypeError, ValueError, ZeroDivisionError, DomainError) as exc:
        raise DomainError(f"{name} = {value!r} is not an exact rational") \
            from exc


def rat_str(value: RationalLike) -> str:
    """Serialize as "p/q" in lowest terms ("p" when the denominator is 1)."""
    return str(rat(value))


def _extend(stages, rows):
    """`stages` with `rows` added, or None when a variable-free row is
    violated; the given stages are left as they are.  A stage is (var,
    kept), each row of kept stored as (coeffs, bound, scale) with coeffs
    == scale * its direction and divided by the gcd of its entries.
    """
    extended = []
    for var, kept in stages:
        fresh = {}
        down = []
        for row in rows:
            coeffs, bound = row
            if not coeffs[var]:
                if any(coeffs):
                    down.append(row)
                elif bound <= 0:
                    return None
                continue
            scale = gcd(*coeffs)
            common = gcd(scale, bound)
            if common > 1:
                coeffs = tuple([c // common for c in coeffs])
                bound //= common
                scale //= common
            key = coeffs if scale == 1 else tuple([c // scale for c in coeffs])
            prev = kept.get(key)
            if prev is not None and bound * prev[2] >= prev[1] * scale:
                continue
            if not fresh:  # the first change here copies the stage
                kept = dict(kept)
            kept[key] = fresh[key] = (coeffs, bound, scale)
        if fresh:
            lowers = [r for r in kept.values() if r[0][var] < 0]
            uppers = [r for key, r in kept.items()
                      if r[0][var] > 0 and key not in fresh]
            for row in fresh.values():
                # a new upper meets every lower, a new lower the old uppers
                pairs = ((row, low) for low in lowers) if row[0][var] > 0 \
                    else ((up, row) for up in uppers)
                for (uc, ub, _), (lc, lb, _) in pairs:
                    mu, ml = -lc[var], uc[var]
                    down.append((tuple([mu * u + ml * lv
                                        for u, lv in zip(uc, lc)]),
                                 mu * ub + ml * lb))
        extended.append((var, kept))
        rows = down
    # every stage variable is gone, so each remaining row is variable-free
    for _, bound in rows:
        if bound <= 0:
            return None
    return tuple(extended)


def _stages(variables):
    """No rows yet, eliminating `variables` in this order."""
    return tuple((v, {}) for v in variables)


def _scaled_point(stages, dimension: int) -> tuple[list, int]:
    """Back-substitution through the stages, the last variable first.  The
    fixed values are integer numerators `nums` over one running denominator
    `den`, raised only when a pick needs it."""
    nums, den = [0] * dimension, 1
    for var, kept in reversed(stages):
        p, q = _pick(var, kept.values(), nums, den)
        common = gcd(p, q)
        p, q = p // common, q // common
        if den % q:
            scale = q // gcd(den, q)
            nums = [x * scale for x in nums]
            den *= scale
        nums[var] = p * (den // q)
    return nums, den


def _pick(var, rows, nums, den):
    """Midpoint (p, q), the value p / q, of the open interval the rows of
    x_var's stage leave for it once the later variables are fixed at
    nums / den.

    A row bounds x_var by (bound * den - coeffs . nums) / (c_var * den).
    Each side keeps its tightest limit as (a, c), the value a / (c * den)
    with c = |c_var| > 0, and limits are compared by cross-multiplying.
    """
    upper = lower = None
    for coeffs, bound, _ in rows:
        a, c = bound * den - sum(map(mul, coeffs, nums)), coeffs[var]
        prev = upper if c > 0 else lower
        # on either side, prev[0] * c > a * prev[1] exactly when a / c is
        # tighter than prev
        if prev is not None and prev[0] * c <= a * prev[1]:
            continue
        if c > 0:
            upper = (a, c)
        else:
            lower = (-a, -c)
    if upper is None or lower is None or \
            upper[0] * lower[1] <= lower[0] * upper[1]:
        raise InternalInvariantError(
            f"empty interval or a missing limit for x_{var} during "
            "back-substitution")
    (u, cu), (low, cl) = upper, lower
    return low * cu + u * cl, 2 * cl * cu * den

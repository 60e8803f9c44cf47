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
adding one row at a time pays for the new pairs only.  When one side of a
hyperplane is empty, the open solution set lies on the other side, so a
search keeps the parent's stages for that side and adds no row.

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
        fresh = None
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
            if scale > 1 and (common := gcd(scale, bound)) > 1:
                coeffs = tuple([c // common for c in coeffs])
                bound //= common
                scale //= common
            key = coeffs if scale == 1 else tuple([c // scale for c in coeffs])
            prev = kept.get(key)
            if prev is not None and bound * prev[2] >= prev[1] * scale:
                continue
            if fresh is None:  # the first change here copies the stage
                kept, fresh = dict(kept), {}
            kept[key] = fresh[key] = (coeffs, bound, scale)
        if fresh is not None:
            lowers = uppers = None  # each built once, when a row needs it
            for row in fresh.values():
                # a new upper meets every lower, a new lower the old uppers
                if row[0][var] > 0:
                    if lowers is None:
                        lowers = [r for r in kept.values() if r[0][var] < 0]
                    ups, lows = (row,), lowers
                else:
                    if uppers is None:
                        uppers = [r for key, r in kept.items()
                                  if r[0][var] > 0 and key not in fresh]
                    ups, lows = uppers, (row,)
                for uc, ub, _ in ups:
                    for lc, lb, _ in lows:
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
        if common > 1:
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
    Each side keeps its tightest limit as two ints, the value a / (c * den)
    with c = |c_var| > 0, and limits are compared by cross-multiplying.
    The start values (1, 0) and (-1, 0) stand for +inf and -inf: any row
    is tighter, and c = 0 is left only on a side no row bounds.
    """
    up, cu, low, cl = 1, 0, -1, 0
    for coeffs, bound, _ in rows:
        a, c = bound * den - sum(map(mul, coeffs, nums)), coeffs[var]
        # a / c is tighter than the side's limit exactly when this holds
        if c > 0:
            if up * c > a * cu:
                up, cu = a, c
        elif low * c > a * cl:
            low, cl = -a, -c
    if not cu or not cl or up * cl <= low * cu:
        raise InternalInvariantError(
            f"empty interval or a missing limit for x_{var} during "
            "back-substitution")
    return low * cu + up * cl, 2 * cl * cu * den

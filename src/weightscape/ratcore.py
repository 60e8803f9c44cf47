"""Exact rational arithmetic and exact linear feasibility.

Rationals are `fractions.Fraction` values (always reduced, denominator
positive); every computation in the package stays exact, floats never
appear.  Rationals serialize as "p/q" in lowest terms, or "p" when the
denominator is 1 -- which is precisely `str(Fraction)`.

Feasibility of a system of strict/non-strict linear inequalities and
equalities is decided by Fourier-Motzkin elimination on integer rows,
with `Fraction` only at the edges: equalities are rewritten as
substitutions first, then the remaining variables are eliminated in index
order, propagating a strictness flag (the sum of a strict and a
non-strict bound is strict).  The elimination is kept as stages, one per
variable: a stage maps the primitive direction of each row involving its
variable to the tightest such row (parallel rows are pruned by dominance
only).  `_extend` adds rows to stages: a row that tightens a stage meets
that stage's opposite-sign rows, each pair once, and only those
combinations and the rows free of the variable enter the next stage, so
a search adding one row at a time pays for the new pairs only.

Interior points are reconstructed deterministically by back-substitution
through the stages (`_scaled_point`), taking the midpoint of each
feasible interval.  It runs on integers too: the fixed values are
numerators over one running denominator, a stage's limits are compared by
cross-multiplying, and `_point` builds a `Fraction` once per coordinate,
at the end.  Each interval is a fiber of a projection of the solution set,
so without equalities a point depends on the solution set only: rows an
incremental stage keeps beyond a from-scratch one (combinations of a row
later displaced by a tighter parallel one) are implied and move no limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence, Union

from .errors import DimensionMismatch, DomainError, InternalInvariantError

Rational = Fraction
RationalLike = Union[Fraction, int, str]

LESS = "<"
AT_MOST = "<="
EQUAL = "="
RELATIONS = (LESS, AT_MOST, EQUAL)


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


@dataclass(frozen=True)
class LinearConstraint:
    """sum(coefficients[i] * x_i) REL constant, REL in {<, <=, =}."""

    coefficients: tuple[Fraction, ...]
    constant: Fraction
    relation: str

    def __post_init__(self):
        if self.relation not in RELATIONS:
            raise DimensionMismatch(f"unknown relation {self.relation!r}")

    @classmethod
    def make(cls, coefficients: Iterable[RationalLike], constant: RationalLike,
             relation: str) -> "LinearConstraint":
        return cls(tuple(rat(c) for c in coefficients), rat(constant), relation)

    @classmethod
    def less(cls, coefficients, constant) -> "LinearConstraint":
        return cls.make(coefficients, constant, LESS)

    @classmethod
    def at_most(cls, coefficients, constant) -> "LinearConstraint":
        return cls.make(coefficients, constant, AT_MOST)

    @classmethod
    def equal(cls, coefficients, constant) -> "LinearConstraint":
        return cls.make(coefficients, constant, EQUAL)

    def holds_at(self, point: Sequence[Fraction]) -> bool:
        value = sum((c * x for c, x in zip(self.coefficients, point)), Fraction(0))
        if self.relation == LESS:
            return value < self.constant
        if self.relation == AT_MOST:
            return value <= self.constant
        return value == self.constant


@dataclass(frozen=True)
class ConstraintSystem:
    dimension: int
    constraints: tuple[LinearConstraint, ...]

    def __post_init__(self):
        if self.dimension < 1:
            raise DimensionMismatch("dimension must be >= 1")
        for c in self.constraints:
            if len(c.coefficients) != self.dimension:
                raise DimensionMismatch(
                    f"constraint has {len(c.coefficients)} coefficients, "
                    f"system dimension is {self.dimension}")

    @classmethod
    def make(cls, dimension: int, constraints: Iterable[LinearConstraint]):
        return cls(dimension, tuple(constraints))

    def satisfied_by(self, point: Sequence[Fraction]) -> bool:
        return all(c.holds_at(point) for c in self.constraints)


# Inequality rows are (coeffs, bound, strict) meaning coeffs . x < bound
# when strict, <= bound otherwise.  Coefficients and bound are integers
# throughout: rows are scaled to integers on entry, and every later row is
# a positive integer combination of earlier ones divided by a positive
# gcd.  Positive scaling preserves each row's solution set exactly.


def _int_scaled(coeffs, const):
    scale = lcm(const.denominator, *(c.denominator for c in coeffs))
    return tuple(int(c * scale) for c in coeffs), int(const * scale)


def _split_rows(system: ConstraintSystem):
    ineqs, eqs = [], []
    for c in system.constraints:
        coeffs, const = _int_scaled(c.coefficients, c.constant)
        if c.relation == EQUAL:
            eqs.append((coeffs, const))
        else:
            ineqs.append((coeffs, const, c.relation == LESS))
    return ineqs, eqs


def _substitute(coeffs, const, pivot, eq_coeffs, eq_const):
    # Eliminate x_p from sum(r_i x_i) REL b with the equality row e:
    # |e_p| * r - (r_p * sgn(e_p)) * e has zero p-coefficient, and the
    # positive multiplier |e_p| preserves the relation direction.
    f = coeffs[pivot]
    if f == 0:
        return coeffs, const
    ep = eq_coeffs[pivot]
    mult = abs(ep)
    factor = f if ep > 0 else -f
    new_coeffs = tuple(mult * r - factor * e
                       for r, e in zip(coeffs, eq_coeffs))
    return new_coeffs, mult * const - factor * eq_const


def _apply_equalities(ineqs, eqs):
    """Pivot out equalities; returns (ineqs, substitutions) or None if inconsistent."""
    subs = []  # (pivot, eq_coeffs, eq_const): x_p = (const - sum e_i x_i)/e_p
    pending = list(eqs)
    while pending:
        coeffs, const = pending.pop(0)
        pivot = next((i for i, c in enumerate(coeffs) if c != 0), None)
        if pivot is None:
            if const != 0:
                return None
            continue
        subs.append((pivot, coeffs, const))
        ineqs = [(*_substitute(rc, rb, pivot, coeffs, const), rs)
                 for rc, rb, rs in ineqs]
        pending = [_substitute(rc, rb, pivot, coeffs, const)
                   for rc, rb in pending]
    return ineqs, subs


def _extend(stages, rows):
    """`stages` with `rows` added, or None when a variable-free row is
    violated; the given stages are left as they are.  A stage is (var,
    kept), each row of kept stored as (coeffs, bound, strict, scale) with
    coeffs == scale * its direction and divided by the gcd of its entries.
    """
    extended = []
    for var, kept in stages:
        fresh = {}
        down = []
        for row in rows:
            coeffs, bound, strict = row
            if not coeffs[var]:
                if any(coeffs):
                    down.append(row)
                elif bound < 0 or (strict and bound == 0):
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
            if prev is not None:
                mine, theirs = bound * prev[3], prev[1] * scale
                if mine > theirs or (mine == theirs and (prev[2] or not strict)):
                    continue
            if not fresh:  # the first change here copies the stage
                kept = dict(kept)
            kept[key] = fresh[key] = (coeffs, bound, strict, scale)
        if fresh:
            lowers = [r for r in kept.values() if r[0][var] < 0]
            uppers = [r for key, r in kept.items()
                      if r[0][var] > 0 and key not in fresh]
            for row in fresh.values():
                # a new upper meets every lower, a new lower the old uppers
                pairs = ((row, low) for low in lowers) if row[0][var] > 0 \
                    else ((up, row) for up in uppers)
                for (uc, ub, us, _), (lc, lb, ls, _) in pairs:
                    mu, ml = -lc[var], uc[var]
                    down.append((tuple([mu * u + ml * lv
                                        for u, lv in zip(uc, lc)]),
                                 mu * ub + ml * lb, us or ls))
        extended.append((var, kept))
        rows = down
    # every stage variable is gone, so each remaining row is variable-free
    for _, bound, strict in rows:
        if bound < 0 or (strict and bound == 0):
            return None
    return tuple(extended)


def _stages(variables):
    """No rows yet, eliminating `variables` in this order."""
    return tuple((v, {}) for v in variables)


def _point(stages, dimension: int) -> list:
    """`_scaled_point` as one Fraction per coordinate."""
    nums, den = _scaled_point(stages, dimension)
    return [Fraction(x, den) for x in nums]


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


def _solve_rows(dimension: int, ineqs, eqs, want_point: bool):
    """Row-level solver shared by the public API and internal hot paths.

    Rows must already be integer-scaled (see _int_scaled / _split_rows).
    """
    pivoted = _apply_equalities(ineqs, eqs)
    if pivoted is None:
        return False, None
    rows, subs = pivoted
    sub_vars = {p for p, _, _ in subs}
    stages = _extend(_stages(v for v in range(dimension) if v not in sub_vars),
                     rows)
    if stages is None:
        return False, None
    if not want_point:
        return True, None

    values = _point(stages, dimension)
    for pivot, eq_coeffs, eq_const in reversed(subs):
        acc = Fraction(eq_const)
        for i, e in enumerate(eq_coeffs):
            if i != pivot and e != 0:
                acc -= e * values[i]
        values[pivot] = acc / eq_coeffs[pivot]
    return True, tuple(values)


def _solve(system: ConstraintSystem, want_point: bool):
    ineqs, eqs = _split_rows(system)
    feasible, point = _solve_rows(system.dimension, ineqs, eqs, want_point)
    if point is not None and not system.satisfied_by(point):
        raise InternalInvariantError("reconstructed point violates the system")
    return feasible, point


def _pick(var, rows, nums, den):
    """Midpoint (p, q), the value p / q, of the interval the rows of x_var's
    stage leave for it once the later variables are fixed at nums / den.

    A row bounds x_var by (bound * den - coeffs . nums) / (c_var * den).
    Each side keeps its tightest limit as (a, c, strict), the value
    a / (c * den) with c = |c_var| > 0, and limits are compared by
    cross-multiplying; on equal limits the strict one is the tighter.
    """
    upper = lower = None
    for coeffs, bound, strict, _ in rows:
        a, c = bound * den - sum(map(mul, coeffs, nums)), coeffs[var]
        prev = upper if c > 0 else lower
        # on either side, gap > 0 exactly when a / c is tighter than prev
        if prev is not None:
            gap = prev[0] * c - a * prev[1]
            if gap < 0 or (gap == 0 and not strict):
                continue
        if c > 0:
            upper = (a, c, strict)
        else:
            lower = (-a, -c, strict)
    if upper is None:
        return (0, 1) if lower is None else \
            (lower[0] + lower[1] * den, lower[1] * den)
    u, cu, upper_strict = upper
    if lower is None:
        return u - cu * den, cu * den
    low, cl, lower_strict = lower
    gap = u * cl - low * cu
    if gap > 0:
        return low * cu + u * cl, 2 * cl * cu * den
    if gap == 0 and not (upper_strict or lower_strict):
        return low, cl * den
    raise InternalInvariantError("empty interval during back-substitution")


def is_feasible(system: ConstraintSystem) -> bool:
    """Exact feasibility, strict inequalities included."""
    return _solve(system, want_point=False)[0]


def find_interior_point(system: ConstraintSystem) -> Optional[tuple[Fraction, ...]]:
    """A rational point satisfying every constraint, or None when infeasible.

    Deterministic for a fixed input: back-substitution through the
    elimination order, midpoint of each feasible interval.
    """
    return _solve(system, want_point=True)[1]

"""GIT stability of n-point configurations on the line.

A linearization is a positive rational weight tuple normalized to sum 2
with every entry below 1.  A configuration is abstracted to the partition
recording which points coincide; stability depends on nothing else.  A
coincidence class is allowed exactly when its weight-sum stays below 1,
strictly semistable classes sum to exactly 1, and the linearization is
typical when no subset at all sums to 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .errors import (AtypicalLinearization, DomainError, DomainViolation,
                     InternalInvariantError)
from .ratcore import rat_str
from .weights import (Granularity, Mode, Position, WeightData,
                      _boundary_masks, _field, _integer, _listed, _marks,
                      _masks, _positions, _valid, rationals, validate)

@dataclass(frozen=True)
class Linearization:
    t: tuple[Fraction, ...]
    # t as validated genus-0 weight data; every subset test reads its excess
    data: WeightData = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        data = validate(0, self.t, Mode.BOUNDARY)
        object.__setattr__(self, "t", data.weights)  # as Fractions, a tuple
        object.__setattr__(self, "data", data)

    @classmethod
    def make(cls, values: Iterable) -> "Linearization":
        return cls(rationals(values, "t"))

    @property
    def n(self) -> int:
        return len(self.t)

    def to_json_dict(self) -> dict:
        return {"t": [rat_str(v) for v in self.t]}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "Linearization":
        return cls.make(_field(payload, "t"))


@dataclass(frozen=True)
class ConfigType:
    """Set partition of {1..n} into coincidence classes."""

    classes: tuple[frozenset[int], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for c in self.classes:
            if not c:
                raise DomainError("configuration classes must be nonempty")
            if seen & c:
                raise DomainError("configuration classes must be disjoint")
            seen.update(c)
        if seen != set(range(1, len(seen) + 1)):
            raise DomainError("configuration classes must cover 1..n")

    @classmethod
    def make(cls, classes: list[list[int]]) -> "ConfigType":
        """Parse a list of lists of integer markings (not bools)."""
        normalized = sorted((frozenset(_integer(m, "marking") for m in c)
                             for c in _listed(classes, "classes", list)),
                            key=sorted)
        return cls(tuple(normalized))

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.classes)

    def to_json_dict(self) -> dict:
        return {"classes": [sorted(c) for c in self.classes]}

    @classmethod
    def from_json_dict(cls, payload: dict) -> "ConfigType":
        return cls.make(_field(payload, "classes"))


class GitVerdict(Enum):
    STABLE = "Stable"
    STRICTLY_SEMISTABLE = "StrictlySemistable"
    UNSTABLE = "Unstable"


def stability(config: ConfigType, lin: Linearization) -> GitVerdict:
    """Stable iff every class sums below 1; unstable iff some class sums
    above 1; strictly semistable otherwise."""
    if config.n != lin.n:
        raise DomainError("configuration and linearization sizes differ")
    worst = max(map(lin.data.excess, config.classes))
    if worst < 0:
        return GitVerdict.STABLE
    if worst > 0:
        return GitVerdict.UNSTABLE
    return GitVerdict.STRICTLY_SEMISTABLE


def is_typical(lin: Linearization) -> bool:
    """True iff no nonempty subset of the weights sums to exactly 1."""
    return 0 not in lin.data.excess_table()  # empty, full set: -den, den


def strictly_semistable_types(lin: Linearization) -> tuple[frozenset[int], ...]:
    """Subsets summing to exactly 1, one per complement pair; the canonical
    representative is the side containing index 1, one of the nodal sides
    of `_boundary_masks`.  The weights sum to 2, so a subset sums to 1
    exactly when its complement does, and the full set never does."""
    table = lin.data.excess_table()
    return tuple(_marks(mask) for mask, _ in _boundary_masks(lin.n)[1]
                 if table[mask] == 0)


def tau(data: WeightData) -> Linearization:
    """Normalize weight data with sum >= 2 and entries below 1 onto the
    boundary: divide by half the total."""
    if data.genus != 0:
        raise DomainError("tau is defined for genus 0")
    nums, den = data.scaled  # every weight an exact rational, or DomainError
    total = sum(nums.values())
    if total < 2 * den or any(not 0 < x < den for x in nums.values()):
        raise DomainViolation(
            "tau needs sum(b) >= 2 and 0 < b_i < 1 for every i")
    return Linearization.make(tuple(Fraction(2 * x, total)
                                    for x in nums.values()))


def tau_fine_preimage(lin: Linearization) -> WeightData:
    """A canonical interior weight datum mapping to the given typical
    boundary point under tau: scale by s = (1 + 1/M)/2 where M is the
    largest subset sum below 1.  The result lies in an open fine chamber."""
    excesses = lin.data.excess_table()[1:-1]  # the nonempty proper subsets
    if 0 in excesses:
        raise AtypicalLinearization("the linearization admits a subset sum of 1")
    # M = (den + e) / den for the largest negative excess e (the full set
    # sums to 2, so it is never below), and s = (2 den + e) / (2 (den + e))
    e = max(x for x in excesses if x < 0)
    den = lin.data.scaled[1]
    scale = Fraction(2 * den + e, 2 * (den + e))
    data = validate(0, tuple(scale * t for t in lin.t), Mode.STRICT)
    if Position.ON in _positions(data, Granularity.FINE):
        raise InternalInvariantError(f"scaled weights of {lin.to_json_dict()}"
                                     " landed on a fine wall")
    return data


@dataclass(frozen=True)
class QuotientMatch:
    matches: bool
    mismatched_subsets: tuple[frozenset[int], ...]
    ambiguous_subsets: tuple[frozenset[int], ...]  # subsets with sum(a) = 1

    def __bool__(self) -> bool:
        return self.matches


def chamber_matches_quotient(data: WeightData, lin: Linearization) -> QuotientMatch:
    """Compare the coincidence patterns allowed on an irreducible stable
    curve (sum(a_S) <= 1) with the stable configuration types
    (sum(t_S) < 1), over every subset of size >= 2.

    Subsets with sum(a_S) exactly 1 sit on a wall; they are reported as
    ambiguities rather than silently resolved.
    """
    data = _valid(data, Mode.STRICT)
    if data.genus != 0:
        raise DomainError("quotient matching is defined for genus 0")
    if data.n != lin.n:
        raise DomainError("weight data and linearization sizes differ")
    table_t = lin.data.excess_table()
    if 0 in table_t:  # not is_typical(lin), on the table read below
        raise AtypicalLinearization("the linearization admits a subset sum of 1")
    table = data.excess_table()
    mismatched, ambiguous = [], []
    for mask in _masks(data.n)[data.n + 1:]:  # two markings or more
        excess = table[mask]
        if excess == 0:
            ambiguous.append(_marks(mask))
        if (excess <= 0) != (table_t[mask] < 0):  # curve vs GIT allowed
            mismatched.append(_marks(mask))
    return QuotientMatch(not mismatched, tuple(mismatched), tuple(ambiguous))

"""The weight domain, its coarse and fine wall sets, and chamber machinery.

The domain for (genus g, n points) is 0 < a_j <= 1 with a_1 + ... + a_n >
2 - 2g.  A wall is the hyperplane sum_{j in S} a_j = 1 for a marked subset
S; the fine decomposition uses 2 <= |S| <= n-2, the coarse one the strict
range 2 < |S| < n-2 (taken literally, so it is empty for n <= 5).  Open
chambers are the feasible all-strict sign assignments over the wall set.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, lcm
from typing import Iterable, Mapping, Optional

from . import jsonio
from .errors import (BoundarySumMismatch, DegreeNotPositive, DomainError,
                     InternalInvariantError, LimitExceeded, OnWall,
                     WeightOutOfRange)
from .ratcore import rat, rat_str, rational, _extend, _scaled_point, _stages

DEFAULT_ENUM_LIMIT = 8
CACHE_ENV_VAR = "WEIGHTSCAPE_CACHE"

_ZERO = Fraction(0)


class Mode(Enum):
    STRICT = "strict"        # 0 < a_j <= 1 and 2g-2+sum > 0
    ZERO_ALLOWED = "zero"    # 0 <= a_j <= 1 and 2g-2+sum > 0
    BOUNDARY = "boundary"    # g=0 only: 0 < a_j < 1 and sum = 2


_NONZERO_MODES = frozenset({Mode.STRICT, Mode.ZERO_ALLOWED})


@dataclass(frozen=True)
class WeightData:
    genus: int
    weights: tuple[Fraction, ...]

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def total(self) -> Fraction:
        return sum(self.weights, _ZERO)

    def weight_map(self) -> dict[int, Fraction]:
        """1-based marking index -> weight."""
        return {i + 1: w for i, w in enumerate(self.weights)}

    def excess(self, subset: Iterable[int]) -> int:
        """den * (sum_{j in S} a_j - 1) on the `scaled` numerators: its sign
        places S above (+), on (0) or below (-) its wall."""
        nums, den = self.scaled
        return sum(map(nums.__getitem__, subset)) - den

    def excess_table(self) -> list[int]:
        """`excess` of every subset, indexed by bitmask (marking m is bit
        m-1): 2^n integers, built by doubling over the markings."""
        nums, den = self.scaled
        table = [-den]
        for w in nums.values():  # markings 1..n in order
            table += [e + w for e in table]
        return table

    @cached_property
    def scaled(self) -> tuple[dict[int, int], int]:
        """`integer_scaled` of the weights, once per datum and read only; a
        weight that is no exact rational raises DomainError, as in validate."""
        return integer_scaled(dict(enumerate(rationals(self.weights, "a"), 1)))

    def to_json_dict(self) -> dict:
        return {"genus": self.genus, "weights": [rat_str(w) for w in self.weights]}

    @classmethod
    def from_json_dict(cls, payload: dict, mode: "Mode" = None) -> "WeightData":
        return validate(_field(payload, "genus"), _field(payload, "weights"),
                        Mode.ZERO_ALLOWED if mode is None else mode)


def integer_scaled(weights: Mapping[int, Fraction]) -> tuple[dict[int, int], int]:
    """(nums, den) with weights[m] == nums[m] / den exactly, den the least
    common denominator: subset-sum and degree tests then compare integers."""
    den = lcm(*(w.denominator for w in weights.values()))
    return {m: w.numerator * (den // w.denominator)
            for m, w in weights.items()}, den


def rationals(values, name: str) -> tuple[Fraction, ...]:
    """A list or tuple of rationals, the entries named name_1, name_2, ...
    Anything else, a string or a mapping included, raises DomainError."""
    if not isinstance(values, (list, tuple)):
        raise DomainError(f"{name} must be a list of rationals, "
                          f"got {values!r}")
    try:
        return tuple(map(rat, values))
    except (TypeError, ValueError, ZeroDivisionError, DomainError):
        # rerun by name, so the error names the first bad entry
        return tuple(rational(v, f"{name}_{i}")
                     for i, v in enumerate(values, start=1))


def _listed(value, name: str, kind: type,
            length: Optional[int] = None) -> list:
    if not isinstance(value, list) or length not in (None, len(value)) or \
            not all(isinstance(x, kind) for x in value):
        size = "" if length is None else f"{length} "
        raise DomainError(f"{name} must be a list of {size}{kind.__name__}s, "
                          f"got {value!r}")
    return value


def _field(payload: dict, key: str):
    """payload[key]; a payload that is no mapping, or a missing key, is an
    input error, not a TypeError or KeyError."""
    if not isinstance(payload, Mapping):
        raise DomainError(f"a payload must be a mapping, got {payload!r}")
    try:
        return payload[key]
    except KeyError:
        raise DomainError(f"the payload has no key {key!r}") from None


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    return value


def validate(genus, weights, mode: Mode = Mode.STRICT) -> WeightData:
    """Check the domain conditions for the given mode and build a WeightData.

    Raises WeightOutOfRange (with the offending index), DegreeNotPositive
    when 2g-2+sum <= 0, or BoundarySumMismatch in BOUNDARY mode.
    """
    if not isinstance(mode, Mode):
        raise DomainError(f"mode must be a Mode, got {mode!r}")
    if not isinstance(genus, int) or isinstance(genus, bool) or genus < 0:
        raise DomainError(f"genus must be a nonnegative integer, got {genus!r}")
    ws = rationals(weights, "a")
    if not ws:
        raise DomainError("at least one weight is required")
    if mode == Mode.BOUNDARY and genus != 0:
        raise DomainError("BOUNDARY mode is defined for genus 0 only")
    # integer checks on what becomes `scaled`; Fractions only in errors
    nums, den = scaled = integer_scaled(dict(enumerate(ws, start=1)))
    low, high, rule = {Mode.STRICT: (1, den, "0 < a_{} <= 1"),
                       Mode.ZERO_ALLOWED: (0, den, "0 <= a_{} <= 1"),
                       Mode.BOUNDARY: (1, den - 1, "0 < a_{} < 1")}[mode]
    if (least := min(nums.values())) < low or max(nums.values()) > high:
        i = next(i for i, x in nums.items() if not low <= x <= high)
        raise WeightOutOfRange(i, ws[i - 1],
                               f"need {rule.format(i)}, got {ws[i - 1]}")
    total = sum(nums.values())
    if mode == Mode.BOUNDARY:
        if total != 2 * den:
            raise BoundarySumMismatch(
                f"weights must sum to 2, got {Fraction(total, den)}")
    elif (degree := (2 * genus - 2) * den + total) <= 0:
        raise DegreeNotPositive(f"2g-2+sum(a) = {Fraction(degree, den)} <= 0")
    data = WeightData(genus, ws)
    data.__dict__["scaled"] = scaled  # what the cached property would give
    # every mode the datum satisfies, which `_valid` trusts: a sum of 2 is
    # no positive degree in genus 0, and STRICT is ZERO_ALLOWED without zeros
    data.__dict__["_modes"] = _NONZERO_MODES \
        if least and mode != Mode.BOUNDARY else frozenset({mode})
    return data


def _valid(data, mode: Mode) -> WeightData:
    """`data` itself when `validate` built it and recorded `mode` for it;
    any other datum, hand-built, replaced or of a subclass, is validated."""
    if type(data) is WeightData and mode in data.__dict__.get("_modes", ()):
        return data
    return validate(data.genus, data.weights, mode)


class Granularity(Enum):
    COARSE = "coarse"
    FINE = "fine"


@dataclass(frozen=True)
class Wall:
    subset: frozenset[int]
    granularity: Granularity

    def sort_key(self):
        return (len(self.subset), tuple(sorted(self.subset)))


class Position(Enum):
    ABOVE = "A"   # sum_S a > 1
    BELOW = "B"   # sum_S a < 1
    ON = "O"      # sum_S a = 1


_BY_SIGN = (Position.ON, Position.ABOVE, Position.BELOW)  # by sign of excess


@dataclass(frozen=True)
class SignVector:
    genus: int
    n: int
    granularity: Granularity
    positions: tuple[Position, ...]  # aligned with walls(genus, n, granularity)

    @property
    def has_on(self) -> bool:
        return Position.ON in self.positions

    def codes(self) -> str:
        # `_value_` is a plain attribute; `value` and an Enum's hash run
        # Python code per member
        return "".join([p._value_ for p in self.positions])


@dataclass(frozen=True)
class Chamber:
    sign_vector: SignVector
    representative: WeightData


def walls(genus: int, n: int, granularity: Granularity) -> tuple[Wall, ...]:
    """All subsets in the granularity's size range, sorted by size then
    lexicographically: the walls of `_wall_masks`, as marking sets."""
    return tuple(Wall(_marks(m), granularity)
                 for m in _wall_masks(genus, n, granularity))


@lru_cache(maxsize=1 << 12)  # every mask up to n = 12
def _marks(mask: int) -> frozenset[int]:
    """The markings of a bitmask, one shared frozenset per mask."""
    return frozenset(m for m in range(1, mask.bit_length() + 1)
                     if mask >> (m - 1) & 1)


@lru_cache(maxsize=None)
def _masks(n: int) -> tuple[int, ...]:
    """Every bitmask over n markings in the order of `combinations`: by
    size, then lexicographically in the markings."""
    return tuple(sum(1 << m for m in s) for size in range(n + 1)
                 for s in combinations(range(n), size))


@lru_cache(maxsize=None)
def _boundary_masks(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The candidates of the genus-0 boundary over n markings, each in the
    order of `_masks`: the mask of every pair, and the (mask, complement)
    of every nodal side, which holds marking 1 and is not every marking.
    Weights only choose among them."""
    full, order = (1 << n) - 1, _masks(n)
    return (order[n + 1:n + 1 + comb(n, 2)],
            tuple((m, full ^ m) for m in order if m & 1 and m != full))


def _wall_masks(genus: int, n: int, granularity: Granularity) -> tuple[int, ...]:
    """The bitmask of every wall, in the order of `_masks` (marking m is
    bit m-1, as in `WeightData.excess_table`).

    Every subset S in the granularity's size range is a wall: weight 1/|S|
    on S and 1 elsewhere lies in the domain, on the hyperplane, since
    |S| <= n-2 makes the total at least 3 > 2-2g.  The arguments are
    checked before the memo, which cannot hash a list.
    """
    _check_wall_args(genus, n, granularity)
    return _memo_wall_masks(n, granularity)


@lru_cache(maxsize=None)
def _memo_wall_masks(n: int, granularity: Granularity) -> tuple[int, ...]:
    # 2 <= |S| <= n-2 when fine, 2 < |S| < n-2 (taken literally) when coarse
    low, high = (2, n - 1) if granularity == Granularity.FINE else (3, n - 2)
    return tuple(m for m in _masks(n) if low <= m.bit_count() < high)


def _check_wall_args(genus, n, granularity) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if not isinstance(genus, int) or isinstance(genus, bool) or genus < 0:
        raise DomainError(f"genus must be a nonnegative integer, got {genus!r}")
    if genus == 0 and n < 3:
        raise DomainError("genus 0 requires n >= 3")
    if not isinstance(granularity, Granularity):
        raise DomainError(f"granularity must be a Granularity, got {granularity!r}")


def locate(data: WeightData, granularity: Granularity) -> SignVector:
    """Exact position of the weight datum against every wall."""
    data = _valid(data, Mode.ZERO_ALLOWED)
    return SignVector(data.genus, data.n, granularity,
                      _positions(data, granularity))


def _positions(data: WeightData, granularity: Granularity) -> tuple[Position, ...]:
    """`locate`'s positions, for a datum already known to be valid."""
    masks = _wall_masks(data.genus, data.n, granularity)
    return tuple([_BY_SIGN[(e > 0) - (e < 0)]
                  for e in map(data.excess_table().__getitem__, masks)])


def _in_domain(genus: int, nums, den: int) -> bool:
    """0 < a_j <= 1 and 2g-2+sum(a) > 0 for the weights a_j = x / den, x in
    the collection nums."""
    return all(0 < x <= den for x in nums) and \
        (2 * genus - 2) * den + sum(nums) > 0


def same_chamber(a: WeightData, b: WeightData, granularity: Granularity) -> bool:
    """True iff both lie in the same open chamber.  Raises OnWall if either
    datum sits on a wall."""
    if (a.genus, a.n) != (b.genus, b.n):
        raise DomainError("weight data have different genus or length")
    loc_a = locate(a, granularity)
    loc_b = locate(b, granularity)
    if loc_a.has_on or loc_b.has_on:
        raise OnWall("weight datum lies on a wall")
    return loc_a == loc_b


def chambers_payload(genus: int, n: int, granularity: Granularity,
                     chambers: tuple[Chamber, ...]) -> dict:
    """The JSON object of a chamber list, as `chambers_json` dumps it."""
    return {
        "genus": genus,
        "n": n,
        "granularity": granularity.value,
        "walls": [sorted(w.subset) for w in walls(genus, n, granularity)],
        "count": len(chambers),
        "chambers": [
            {"signs": ch.sign_vector.codes(),
             "representative": [rat_str(w) for w in ch.representative.weights]}
            for ch in chambers
        ],
    }


def _cached_chambers(path: str, genus: int, n: int,
                     granularity: Granularity) -> Optional[tuple[Chamber, ...]]:
    """The chambers stored in a cache file, or None when it is missing,
    cannot be read or fails a check.  The header and wall list must match;
    each representative must be a list of n canonical `rat_str` weights
    inside the domain whose own sign string, free of ON, is the stored one;
    the sign strings must increase strictly, as the search emits them.
    Each distinct weight string is parsed once."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            payload = json.loads(fh.read())
        entries = payload["chambers"]
        if [payload["genus"], payload["n"], payload["granularity"],
                payload["walls"], payload["count"]] != \
                [genus, n, granularity.value,
                 [sorted(w.subset) for w in walls(genus, n, granularity)],
                 len(entries)]:
            return None
        parsed: dict[str, tuple[Fraction, int, int]] = {}
        out, last = [], None
        for entry in entries:
            signs, strings = entry["signs"], entry["representative"]
            if not isinstance(strings, list) or len(strings) != n:
                return None
            for s in strings:
                if s not in parsed:
                    w = Fraction(s)
                    if str(w) != s:
                        return None
                    parsed[s] = w, w.numerator, w.denominator
            parts = [parsed[s] for s in strings]
            den = lcm(*(q for _, _, q in parts))
            nums = {m: p * (den // q)
                    for m, (_, p, q) in enumerate(parts, start=1)}
            rep = WeightData(genus, tuple(w for w, _, _ in parts))
            rep.__dict__["scaled"] = nums, den  # as `validate` seeds it
            if not _in_domain(genus, nums.values(), den):
                return None
            vec = SignVector(genus, n, granularity,
                             _positions(rep, granularity))
            if vec.has_on or vec.codes() != signs or \
                    last is not None and signs <= last:
                return None
            out.append(Chamber(vec, rep))
            last = signs
        return tuple(out)
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError,
            RecursionError):
        return None


def _check_limit(n: int, limit: Optional[int]) -> None:
    """Raise LimitExceeded when n exceeds `limit` (DEFAULT_ENUM_LIMIT when
    None); a limit that is no nonnegative integer is a DomainError."""
    cap = DEFAULT_ENUM_LIMIT if limit is None else _integer(limit, "limit")
    if cap < 0:
        raise DomainError(f"limit must be nonnegative, got {cap}")
    if n > cap:
        raise LimitExceeded(f"n = {n} exceeds the enumeration limit {cap}")


def enumerate_chambers(genus: int, n: int, granularity: Granularity, *,
                       limit: Optional[int] = None,
                       cache_dir: Optional[str] = None) -> tuple[Chamber, ...]:
    """Every feasible On-free sign vector over the wall set, each with an
    interior representative, in increasing sign-string order, `A` before
    `B`.

    Results are cached as one JSON file per (genus, n, granularity) under
    `cache_dir` (or $WEIGHTSCAPE_CACHE).  A file is served only when it
    can be read and passes every check of `_cached_chambers`, and is
    recomputed and overwritten otherwise; cache hits are byte-identical to
    recomputation.
    """
    _check_wall_args(genus, n, granularity)
    _check_limit(n, limit)
    cache_dir = cache_dir or os.environ.get(CACHE_ENV_VAR)
    if cache_dir:
        path = os.path.join(
            cache_dir, f"chambers-g{genus}-n{n}-{granularity.value}.json")
        cached = _cached_chambers(path, genus, n, granularity)
        if cached is not None:
            return cached
        # missing, unreadable or stale entry: recompute and overwrite

    masks = _wall_masks(genus, n, granularity)
    # integer solver rows (coeffs, bound), each coeffs . a < bound, for the
    # domain 0 < a_j < 1 and sum(a) > 2-2g; a_j < 1 stands for a_j <= 1,
    # since every other row is strict and a_j = 1 bounds no open chamber
    rows = [(tuple(-(i == j) for i in range(n)), 0) for j in range(n)]
    rows += [(tuple(int(i == j) for i in range(n)), 1) for j in range(n)]
    rows.append(((-1,) * n, 2 * genus - 2))
    # Walls whose ABOVE sign follows from signs decided before them: a
    # subset one smaller (all weights are positive), and in genus 0 the
    # complement (the total exceeds 2).  Walls come by size, so both are
    # decided earlier whenever they are walls.
    index_of = {mask: i for i, mask in enumerate(masks)}
    full = (1 << n) - 1
    forcing = []  # per wall: (earlier wall, sign) pairs that imply ABOVE
    for i, mask in enumerate(masks):
        pairs = [(index_of[mask ^ 1 << j], Position.ABOVE) for j in range(n)
                 if mask >> j & 1 and mask ^ 1 << j in index_of]
        if genus == 0 and index_of.get(full ^ mask, i) < i:
            pairs.append((index_of[full ^ mask], Position.BELOW))
        forcing.append(pairs)
    # per wall, each side with its one-row extension: BELOW is sum_S a < 1,
    # ABOVE is -sum_S a < -1; BELOW comes first, so ABOVE is popped first
    sides = [[(position, [(tuple(side * (mask >> j & 1) for j in range(n)),
                           side)])
              for position, side in ((Position.BELOW, 1),
                                     (Position.ABOVE, -1))]
             for mask in masks]
    chambers: list[Chamber] = []
    signs: list[Position] = []

    # Depth-first sign assignment on a stack of (wall index, stages, sign of
    # the previous wall).  `stages` holds the elimination of the domain rows
    # and the rows of the signs so far: each side extends it by one row, and
    # a side whose extension is infeasible is cut; an implied sign adds none.
    # A leaf back-substitutes once, which gives the point that elimination
    # from scratch would pick, since that depends on the polyhedron only.
    stack = [(0, _extend(_stages(range(n)), rows), None)]  # domain nonempty
    while stack:
        index, stages, sign = stack.pop()
        if index:  # cut the signs back to this entry's depth
            signs[index - 1:] = [sign]
        if index == len(masks):
            vec = SignVector(genus, n, granularity, tuple(signs))
            nums, den = _scaled_point(stages, n)
            rep = WeightData(genus, tuple(Fraction(x, den) for x in nums))
            if not _in_domain(genus, nums, den):
                raise InternalInvariantError(
                    f"the point {rep.to_json_dict()} of the {granularity.value}"
                    f" chamber {vec.codes()} leaves the domain")
            chambers.append(Chamber(vec, rep))
        elif any(signs[j] == implied for j, implied in forcing[index]):
            stack.append((index + 1, stages, Position.ABOVE))
        else:
            for position, added in sides[index]:
                extended = _extend(stages, added)
                if extended is not None:
                    stack.append((index + 1, extended, position))
    result = tuple(chambers)

    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        # write a temp file private to this thread in the same directory,
        # then rename it over the entry: readers see the old file or the
        # whole new one, never a part
        tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
        try:
            with open(tmp, "w", encoding="ascii") as fh:
                fh.write(chambers_json(genus, n, granularity, result))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    return result


def chambers_json(genus: int, n: int, granularity: Granularity,
                  chambers: tuple[Chamber, ...]) -> str:
    """Canonical serialization, byte-identical to the cache file."""
    return jsonio.canonical_dumps(
        chambers_payload(genus, n, granularity, chambers))


def perturb_to_fine_chamber(data: WeightData) -> WeightData:
    """Shift every weight down by eps/n so the result lies in an open fine
    chamber with the same stable trees.

    eps is half the largest value keeping every strict condition strict:
    below-walls stay below with margin, above-walls above with margin, the
    degree condition keeps its margin, and every weight stays positive.
    """
    data = _valid(data, Mode.STRICT)
    nums, den = data.scaled
    # the degree, least-weight and wall slacks, as numerators over den
    slacks = [(2 * data.genus - 2) * den + sum(nums.values()),
              min(nums.values())]
    masks = _wall_masks(data.genus, data.n, Granularity.FINE)
    slacks += [abs(e) for e in map(data.excess_table().__getitem__, masks) if e]
    step = Fraction(min(slacks), 2 * den * data.n)  # eps / n
    shifted = validate(data.genus, tuple(w - step for w in data.weights),
                       Mode.STRICT)
    if Position.ON in _positions(shifted, Granularity.FINE):
        raise InternalInvariantError(
            f"perturbation of {data.to_json_dict()} landed on a wall")
    return shifted


def universal_curve_weight(data: WeightData) -> WeightData:
    """Append a small weight eps realizing the universal curve: eps is half
    the minimum distance |sum_S a - 1| over the fine walls.  Raises OnWall
    when the input sits on a fine wall."""
    data = _valid(data, Mode.STRICT)
    masks = _wall_masks(data.genus, data.n, Granularity.FINE)
    gaps = list(map(abs, map(data.excess_table().__getitem__, masks)))
    if 0 in gaps:
        wall = walls(data.genus, data.n, Granularity.FINE)[gaps.index(0)]
        raise OnWall(f"weight datum lies on the wall {sorted(wall.subset)}")
    # A wall-free domain (e.g. n = 3, genus 0) leaves eps unconstrained;
    # 1/2 is the canonical choice.
    eps = Fraction(min(gaps), 2 * data.scaled[1]) if gaps else Fraction(1, 2)
    return validate(data.genus, data.weights + (eps,), Mode.STRICT)

"""Named weight-chamber families and their blow-up chains.

Four families of genus-0 moduli carry standard names: the two Kapranov
towers over projective space (the (r,s)-indexed one and the single-index
X chain), the Keel tower over a product of lines, and the Losev-Manin
space.  `weights_for` emits a canonical weight representative for each
tag; `classify` tests arbitrary weight data against the printed
inequality systems of the X, Y, and Losev-Manin regions (the (r,s) tower
is generator-only: no inequality list is printed for it).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Optional

from .curves import DivisorFate, DivisorStatus, contracted_divisors
from .errors import DomainError, InternalInvariantError
from .weights import Mode, WeightData, _integer, _valid, validate


class FamilyKind(Enum):
    KAPRANOV_W = "W"
    KAPRANOV_X = "X"
    KEEL_Y = "Y"
    LOSEV_MANIN = "LM"


@dataclass(frozen=True)
class NamedFamily:
    kind: FamilyKind
    n: int
    r: Optional[int] = None
    s: Optional[int] = None
    k: Optional[int] = None

    @property
    def tag(self) -> str:
        if self.kind == FamilyKind.KAPRANOV_W:
            return f"W({self.r},{self.s})"
        if self.kind == FamilyKind.KAPRANOV_X:
            return f"X({self.k})"
        if self.kind == FamilyKind.KEEL_Y:
            return f"Y({self.k})"
        return "LM"


def kapranov_w(n: int, r: int, s: int) -> NamedFamily:
    if _integer(n, "n") < 4:
        raise DomainError("the (r,s) tower needs n >= 4")
    if not 1 <= _integer(r, "r") <= n - 3:
        raise DomainError(f"need 1 <= r <= n-3 = {n - 3}, got r = {r}")
    if not 1 <= _integer(s, "s") <= n - r - 2:
        raise DomainError(f"need 1 <= s <= n-r-2 = {n - r - 2}, got s = {s}")
    return NamedFamily(FamilyKind.KAPRANOV_W, n, r=r, s=s)


def kapranov_x(n: int, k: int) -> NamedFamily:
    if _integer(n, "n") < 4:
        raise DomainError("the X chain needs n >= 4")
    if not 0 <= _integer(k, "k") <= n - 4:
        raise DomainError(f"need 0 <= k <= n-4 = {n - 4}, got k = {k}")
    return NamedFamily(FamilyKind.KAPRANOV_X, n, k=k)


def keel_y(n: int, k: int) -> NamedFamily:
    if _integer(n, "n") < 5:
        raise DomainError("the Y chain needs n >= 5")
    if not 0 <= _integer(k, "k") <= 2 * n - 9:
        raise DomainError(f"need 0 <= k <= 2n-9 = {2 * n - 9}, got k = {k}")
    return NamedFamily(FamilyKind.KEEL_Y, n, k=k)


def losev_manin(n: int) -> NamedFamily:
    if _integer(n, "n") < 3:
        raise DomainError("the Losev-Manin family needs n >= 3")
    return NamedFamily(FamilyKind.LOSEV_MANIN, n)


def parse_tag(tag: str, n: int) -> NamedFamily:
    tag = tag.strip()
    if tag == "LM":
        return losev_manin(n)
    for kind in ("W", "X", "Y"):
        if tag.startswith(kind + "(") and tag.endswith(")"):
            body = tag[2:-1]
            parts = [p.strip() for p in body.split(",")]
            try:
                numbers = [int(p) for p in parts]
            except ValueError:
                raise DomainError(f"cannot parse family tag {tag!r}")
            if kind == "W" and len(numbers) == 2:
                return kapranov_w(n, *numbers)
            if kind == "X" and len(numbers) == 1:
                return kapranov_x(n, numbers[0])
            if kind == "Y" and len(numbers) == 1:
                return keel_y(n, numbers[0])
    raise DomainError(f"unknown family tag {tag!r}")


def weights_for(family: NamedFamily) -> WeightData:
    """Canonical weight representative of the named region.

    The (r,s) tower uses its displayed tuple; the X chain pins the free
    parameter at its closed upper endpoint 1/(n-2-k) with last weight 1;
    the Y chain uses a = 3/4 throughout with eps = 1/(4(n-3-k)) along the
    first tower and eps = 1/(n-3-k) along the second; Losev-Manin is
    (1, 1, 1/(n-2), ..., 1/(n-2)).
    """
    n = family.n
    if family.kind == FamilyKind.KAPRANOV_W:
        base = Fraction(1, n - family.r - 1)
        ws = (base,) * (n - family.r - 1) + (family.s * base,) \
            + (Fraction(1),) * family.r
    elif family.kind == FamilyKind.KAPRANOV_X:
        a = Fraction(1, n - 2 - family.k)
        ws = (a,) * (n - 1) + (Fraction(1),)
    elif family.kind == FamilyKind.KEEL_Y:
        a = Fraction(3, 4)
        if family.k <= n - 4:
            eps = Fraction(1, 4 * (n - 3 - family.k))
        else:
            eps = Fraction(1, n - 3 - (family.k - (n - 4)))
        ws = (a, a, a) + (eps,) * (n - 3)
    else:
        ws = (Fraction(1), Fraction(1)) + (Fraction(1, n - 2),) * (n - 2)
    return validate(0, ws, Mode.STRICT)


def _threshold(table: list[int], fixed: int, pool: range, cut: int) -> bool:
    """True iff, for every nonempty S in pool, a range of consecutive
    markings, fixed + S lies above its wall exactly when |S| > cut; fixed
    is a bitmask and table the datum's `excess_table`, which `classify`
    builds once for every matcher."""
    return all((table[fixed | sub << pool.start - 1] > 0) ==
               (sub.bit_count() > cut) for sub in range(1, 1 << len(pool)))


def _matches_x(table: list[int], n: int, k: int) -> bool:
    if any(table[1 << i - 1 | 1 << n - 1] <= 0 for i in range(1, n)):
        return False
    return _threshold(table, 0, range(1, n), n - k - 2)


def _matches_y(table: list[int], n: int, k: int) -> bool:
    if any(table[1 << i - 1 | 1 << j - 1] <= 0
           for i, j in combinations((1, 2, 3), 2)):
        return False
    tail = range(4, n + 1)
    if k <= n - 4:
        # first tower: thresholds on a_i + (subset of the small weights)
        return all(_threshold(table, 1 << (i - 1), tail, n - 3 - k)
                   for i in (1, 2, 3))
    # second tower: thresholds on the small weights alone
    return _threshold(table, 0, tail, n - 3 - (k - (n - 4)))


def _matches_losev_manin(table: list[int], n: int) -> bool:
    if any(table[1 | 1 << i - 1] <= 0 for i in range(2, n + 1)) or \
            any(table[2 | 1 << i - 1] <= 0 for i in range(3, n + 1)):
        return False
    return _threshold(table, 0, range(3, n + 1), n - 2)


def classify(data: WeightData) -> tuple[NamedFamily, ...]:
    """All named regions (X chain, Y chain, Losev-Manin) whose printed
    inequality system the weight data satisfies; empty when none match.
    Overlapping Y descriptions may legitimately both match."""
    data = _valid(data, Mode.STRICT)
    if data.genus != 0:
        raise DomainError("named families live in genus 0")
    n, table = data.n, data.excess_table()
    hits: list[NamedFamily] = []
    if n >= 4:
        for k in range(0, n - 3):
            if _matches_x(table, n, k):
                hits.append(kapranov_x(n, k))
    if n >= 5:
        for k in range(0, 2 * n - 8):
            if _matches_y(table, n, k):
                hits.append(keel_y(n, k))
    if n >= 3 and _matches_losev_manin(table, n):
        hits.append(losev_manin(n))
    return tuple(hits)


@dataclass(frozen=True)
class BlowupStep:
    source: NamedFamily
    target: NamedFamily
    fates: tuple[DivisorFate, ...]
    exceptional: tuple[DivisorFate, ...]   # the CONTRACTED entries

    @property
    def exceptional_count(self) -> int:
        return len(self.exceptional)


def _chain(kind: FamilyKind, n: int) -> list[NamedFamily]:
    """The family's members top down.  Below the family's least n, its
    lowest member raises the family's own DomainError."""
    if kind == FamilyKind.KAPRANOV_X:
        kapranov_x(n, 0)
        return [kapranov_x(n, k) for k in range(n - 4, -1, -1)]
    if kind == FamilyKind.KEEL_Y:
        keel_y(n, 0)
        if n > 7:
            raise DomainError(
                "the canonical equal-weight Y representatives stop being "
                "componentwise comparable across the tower splice for n > 7")
        return [keel_y(n, k) for k in range(2 * n - 9, -1, -1)]
    if kind == FamilyKind.KAPRANOV_W:
        kapranov_w(n, 1, 1)
        pairs = [(r, s) for r in range(1, n - 2) for s in range(1, n - r - 1)]
        pairs.sort(reverse=True)
        return [kapranov_w(n, r, s) for r, s in pairs]
    raise DomainError(f"no blow-up chain for family kind {kind}")


def blowup_sequence(kind: FamilyKind, n: int) -> tuple[BlowupStep, ...]:
    """Steps of the named tower, top down.  Each step classifies every
    boundary divisor of the source weights under the reduction to the
    target weights; the contracted entries are the exceptional inventory.

    For the X chain the step X_k -> X_(k-1) contracts exactly the
    divisors whose side through the heavy point has size k+1, C(n-1, k)
    of them.
    """
    chain = _chain(kind, n)
    steps = []
    for source, target in zip(chain, chain[1:]):
        a = weights_for(source)
        b = weights_for(target)
        fates = contracted_divisors(a, b)
        exceptional = tuple(f for f in fates
                            if f.status == DivisorStatus.CONTRACTED)
        step = BlowupStep(source, target, fates, exceptional)
        if kind == FamilyKind.KAPRANOV_X:
            k = source.k
            expected = {
                frozenset(c) | {n}
                for c in combinations(range(1, n), k)}
            seen = set()
            for fate in exceptional:
                side = (fate.divisor.members
                        if n in fate.divisor.members
                        else fate.divisor.complement)
                seen.add(side)
            if seen != expected:
                raise InternalInvariantError(
                    "X-chain inventory disagrees with the k+1 description")
        steps.append(step)
    return tuple(steps)

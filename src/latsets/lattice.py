"""Chain-product lattices and their points.

D_{l1,...,lk} is the product of k chains with l_i elements each.  A point
is an integer vector (v_1,...,v_k) with 0 <= v_i <= l_i - 1; the order is
componentwise, meet is the componentwise minimum and join the componentwise
maximum.  The Boolean lattice B_n is the special case with every l_i = 2,
where a point is the indicator vector of a subset of {1..n} and meet/join
are intersection/union.

The canonical order used everywhere (enumeration, tie breaking, file
output) is lexicographic on the coordinate vectors.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

DEFAULT_ENUMERATION_CAP = 1 << 24


def _is_int(value) -> bool:
    """True for ints but not bools, which JSON true/false would smuggle in."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True, slots=True)
class Point:
    """A lattice point: coords[i] is the position along chain i (0-based)."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        coords = tuple(self.coords)
        for c in coords:
            if not _is_int(c) or c < 0:
                raise ValueError(f"coordinates must be non-negative integers, got {c!r}")
        object.__setattr__(self, "coords", coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __and__(self, other: "Point") -> "Point":
        return meet(self, other)

    def __or__(self, other: "Point") -> "Point":
        return join(self, other)

    def __repr__(self) -> str:
        return f"Point{self.coords}"


def _trusted_point(coords: tuple) -> Point:
    """A Point from a tuple of non-negative ints, skipping their validation;
    only for coordinates that are valid by construction."""
    p = object.__new__(Point)
    object.__setattr__(p, "coords", coords)
    return p


def _check_dims(a: Point, b: Point) -> None:
    if len(a.coords) != len(b.coords):
        raise ValueError(
            f"dimension mismatch: {len(a.coords)} vs {len(b.coords)} coordinates"
        )


def meet(a: Point, b: Point) -> Point:
    """Componentwise minimum (greatest lower bound)."""
    _check_dims(a, b)
    return Point(tuple(map(min, a.coords, b.coords)))


def join(a: Point, b: Point) -> Point:
    """Componentwise maximum (least upper bound)."""
    _check_dims(a, b)
    return Point(tuple(map(max, a.coords, b.coords)))


def leq(a: Point, b: Point) -> bool:
    """Lattice order: a precedes b iff a_i <= b_i for every coordinate."""
    _check_dims(a, b)
    return all(x <= y for x, y in zip(a.coords, b.coords))


def rank(a: Point) -> int:
    """Coordinate sum; on B_n this is the size of the encoded subset."""
    return sum(a.coords)


def canonical_key(p: Point) -> tuple[int, ...]:
    """Sort key realizing the canonical (lexicographic coordinate) order."""
    return p.coords


@dataclass(frozen=True)
class ChainProductLattice:
    """The lattice D_{l1,...,lk}; lengths[i] is the element count of chain i."""

    lengths: tuple[int, ...]

    def __post_init__(self) -> None:
        lengths = tuple(self.lengths)
        if len(lengths) < 1:
            raise ValueError("a chain product needs at least one chain")
        for l in lengths:
            if not _is_int(l) or l < 1:
                raise ValueError(f"chain lengths must be integers >= 1, got {l!r}")
        object.__setattr__(self, "lengths", lengths)

    @property
    def k(self) -> int:
        return len(self.lengths)

    @property
    def size(self) -> int:
        return math.prod(self.lengths)

    @property
    def is_boolean(self) -> bool:
        return all(l == 2 for l in self.lengths)

    def bottom(self) -> Point:
        return Point((0,) * self.k)

    def top(self) -> Point:
        return Point(tuple(l - 1 for l in self.lengths))

    def contains(self, p: Point) -> bool:
        return len(p.coords) == self.k and all(
            0 <= c < l for c, l in zip(p.coords, self.lengths)
        )

    def validate_point(self, p: Point) -> None:
        if not self.contains(p):
            raise ValueError(f"{p!r} is not a point of {format_lattice_spec(self)}")

    @classmethod
    def boolean(cls, n: int) -> "ChainProductLattice":
        """B_n as the chain product D_2^n."""
        if n < 1:
            raise ValueError("B_n needs n >= 1")
        return cls((2,) * n)

    @classmethod
    def chain_power(cls, l: int, k: int) -> "ChainProductLattice":
        """D_l^k: k chains of l elements each."""
        return cls((l,) * k)


@dataclass(frozen=True)
class PointSet:
    """A family of distinct points of one lattice, in a fixed order."""

    lattice: ChainProductLattice
    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        pts = tuple(p if isinstance(p, Point) else Point(tuple(p)) for p in self.points)
        seen: set[Point] = set()
        for p in pts:
            self.lattice.validate_point(p)
            if p in seen:
                raise ValueError(f"duplicate point {p!r}")
            seen.add(p)
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_coords(
        cls, lattice: ChainProductLattice, coords: Iterable[Sequence[int]]
    ) -> "PointSet":
        return cls(lattice, tuple(Point(tuple(c)) for c in coords))

    @property
    def size(self) -> int:
        return len(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __contains__(self, p: Point) -> bool:
        return p in set(self.points)

    def canonical(self) -> "PointSet":
        """The same family with points sorted in canonical order."""
        return PointSet(self.lattice, tuple(sorted(self.points, key=canonical_key)))


def _check_cap(lattice: ChainProductLattice, cap: int) -> None:
    if lattice.size > cap:
        raise ValueError(
            f"lattice too large to enumerate: {lattice.size} points exceeds cap {cap}"
        )


def enumerate_lattice(
    lattice: ChainProductLattice, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[Point]:
    """All points of the lattice in canonical order.

    Rejects lattices with more than `cap` points (default 2^24) to avoid
    accidental memory blowups.
    """
    _check_cap(lattice, cap)
    return [Point(coords) for coords in itertools.product(*map(range, lattice.lengths))]


def enumerate_masks(lattice: ChainProductLattice) -> list[int]:
    """The masks (mask_codec) of all points in canonical order, under the default cap."""
    _check_cap(lattice, DEFAULT_ENUMERATION_CAP)
    return list(map(sum, itertools.product(*_chain_tables(lattice))))


def is_antichain(s: PointSet) -> bool:
    """True iff no two points are comparable (for masks: a & b is a or b)."""
    encode, _ = mask_codec(s.lattice)
    masks = [encode(p) for p in s.points]
    return not any(a & b in (a, b) for a, b in itertools.combinations(masks, 2))


# ---------------------------------------------------------------------------
# Subset encoding and bit-mask codes
# ---------------------------------------------------------------------------

def subset_encode(subset: Iterable[int], n: int) -> Point:
    """Indicator point of a subset of {1..n}: element i sets coordinate i-1."""
    if n < 1:
        raise ValueError("B_n needs n >= 1")
    coords = [0] * n
    for e in subset:
        if not _is_int(e) or not 1 <= e <= n:
            raise ValueError(f"subset element {e!r} outside 1..{n}")
        if coords[e - 1]:
            raise ValueError(f"duplicate subset element {e}")
        coords[e - 1] = 1
    return Point(tuple(coords))


def subset_decode(p: Point) -> tuple[int, ...]:
    """Sorted 1-indexed elements of the subset encoded by a B_n point."""
    if any(c not in (0, 1) for c in p.coords):
        raise ValueError(f"{p!r} is not a point of a Boolean lattice")
    return tuple(i + 1 for i, c in enumerate(p.coords) if c)


def point_to_mask(p: Point) -> int:
    """Packed bit-vector of a B_n point; bit i is coordinate i.

    Bitwise AND/OR on masks agree with meet/join on the coordinate form.
    """
    mask = 0
    for i, c in enumerate(p.coords):
        if c not in (0, 1):
            raise ValueError(f"{p!r} is not a point of a Boolean lattice")
        mask |= c << i
    return mask


def mask_to_point(mask: int, n: int) -> Point:
    if mask < 0 or mask >> n:
        raise ValueError(f"mask {mask:#x} does not fit {n} bits")
    return Point(tuple((mask >> i) & 1 for i in range(n)))


def _chain_tables(lattice: ChainProductLattice) -> list[list[int]]:
    """Per chain: value -> its thermometer mask; the last one is the whole block."""
    offsets = itertools.accumulate([l - 1 for l in lattice.lengths], initial=0)
    return [[((1 << v) - 1) << offset for v in range(l)]
            for l, offset in zip(lattice.lengths, offsets)]


def mask_codec(lattice: ChainProductLattice) -> tuple[Callable, Callable]:
    """(encode, decode) of the thermometer code of a chain product.

    Chain i owns an (l_i - 1)-bit block at offset sum_{j<i} (l_j - 1), and
    value v sets the low v bits of its block.  This is Birkhoff's
    representation by join-irreducibles: D_{l1..lk} embeds in B_m,
    m = sum(l_i - 1), as a sublattice, so meet and join become & and |,
    and a <= b iff mask(a) & mask(b) == mask(a).  On B_n the code is
    point_to_mask.  The encoder expects points of the lattice.
    """
    tables = _chain_tables(lattice)

    def encode(p: Point) -> int:
        return sum(map(list.__getitem__, tables, p.coords))

    def decode(mask: int) -> Point:
        return _trusted_point(tuple((mask & table[-1]).bit_count() for table in tables))

    return encode, decode


# ---------------------------------------------------------------------------
# Lattice spec strings: b:<n> | d:<l1>,<l2>[,...] | d:<l>^<k>
# ---------------------------------------------------------------------------

def _decimal(text: str) -> int:
    """The integer written as ASCII decimal digits; int() alone also takes
    signs, inner underscores, surrounding spaces and non-ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)


def parse_lattice_spec(spec: str) -> ChainProductLattice:
    """Parse a lattice spec string such as "b:4", "d:3,5" or "d:3^4"; its
    numbers are ASCII decimal digits."""
    text = spec.strip().lower()
    if ":" not in text:
        raise ValueError(f"bad lattice spec {spec!r}: expected b:<n> or d:<lengths>")
    kind, _, rest = text.partition(":")
    if kind == "b":
        try:
            n = _decimal(rest)
        except ValueError:
            raise ValueError(f"bad lattice spec {spec!r}: b: needs an integer") from None
        return ChainProductLattice.boolean(n)
    if kind == "d":
        if "^" in rest:
            base, _, exp = rest.partition("^")
            try:
                l, k = _decimal(base), _decimal(exp)
            except ValueError:
                raise ValueError(f"bad lattice spec {spec!r}: d:<l>^<k> needs integers") from None
            return ChainProductLattice.chain_power(l, k)
        try:
            lengths = tuple(_decimal(part) for part in rest.split(","))
        except ValueError:
            raise ValueError(f"bad lattice spec {spec!r}: d: needs integer lengths") from None
        return ChainProductLattice(lengths)
    raise ValueError(f"bad lattice spec {spec!r}: unknown kind {kind!r}")


def format_lattice_spec(lattice: ChainProductLattice) -> str:
    if lattice.is_boolean:
        return f"b:{lattice.k}"
    return "d:" + ",".join(str(l) for l in lattice.lengths)

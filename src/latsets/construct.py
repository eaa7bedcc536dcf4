"""Explicit strongly cancellative families.

Three constructions: the antidiagonal on a product of two chains of size
min(l1, l2), the block composition that raises an incomparable base family
on D_l^k1 to D_l^k, and the chain-power family of size l^floor(k/2)
obtained by composing the antidiagonal with itself.  On B_n = D_2^n the
chain-power family is the pair-block family of size 2^floor(n/2).

All outputs are sorted in canonical order so repeated runs are
byte-identical.  A family of more than DEFAULT_ENUMERATION_CAP (2^24)
points is refused before any of it is built.
"""

from __future__ import annotations

import itertools

from .lattice import (
    DEFAULT_ENUMERATION_CAP,
    ChainProductLattice,
    Point,
    PointSet,
    canonical_key,
    is_antichain,
)
from .verify import is_strongly_cancellative


def _check_size(base: int, exponent: int) -> None:
    """Reject a family of base**exponent points above DEFAULT_ENUMERATION_CAP
    before it is built.  The exponent is clipped so that no huge power is
    computed: base >= 2 to the cap's bit length already exceeds the cap."""
    cap = DEFAULT_ENUMERATION_CAP
    if base ** min(exponent, cap.bit_length()) > cap:
        raise ValueError(
            f"construction too large: {base}^{exponent} points exceeds cap {cap}"
        )


def block_construction_bn(n: int) -> PointSet:
    """Subsets of {1..n} picking exactly one element from each block
    {2i-1, 2i}, i = 1..floor(n/2); size 2^floor(n/2).

    For odd n the last element is never used.  The family is strongly
    cancellative: two members differ inside some block, and the element
    chosen there separates every anchored meet and join.  It is the
    chain-power family on D_2^n = B_n.
    """
    if n < 2:
        raise ValueError(f"block construction needs n >= 2, got {n}")
    return power_construction(2, n)


def diagonal_construction(l1: int, l2: int) -> PointSet:
    """All (x, y) on the product of two chains with x + y = min(l1, l2) - 1.

    An antichain of size min(l1, l2), strongly cancellative, and it meets
    the min(l1, l2) upper bound for two-chain products exactly.
    """
    if l1 < 1 or l2 < 1:
        raise ValueError(f"chain lengths must be >= 1, got ({l1}, {l2})")
    m = min(l1, l2)
    _check_size(m, 1)
    lattice = ChainProductLattice((l1, l2))
    points = tuple(Point((x, m - 1 - x)) for x in range(m))
    return PointSet(lattice, points)


def product_composition(base: PointSet, k: int) -> PointSet:
    """Compose a strongly cancellative antichain on D_l^k1 up to D_l^k.

    With s = floor(k / k1), the result holds every vector whose j-th block
    of k1 coordinates lies in the base family for j = 1..s and whose
    trailing k - s*k1 coordinates are zero; size |base|^s.  Requires the
    base points to be pairwise incomparable, checked here rather than
    trusted: comparability in a block would merge anchored joins.
    """
    lengths = set(base.lattice.lengths)
    if len(lengths) != 1:
        raise ValueError("composition base must live on a chain power D_l^k1")
    l = lengths.pop()
    k1 = base.lattice.k
    if k < k1:
        raise ValueError(f"target dimension {k} is below the base dimension {k1}")
    s = k // k1
    _check_size(base.size, s)
    if not is_antichain(base):
        raise ValueError("composition base must be an antichain")
    if not is_strongly_cancellative(base):
        raise ValueError("composition base must be strongly cancellative")
    tail = (0,) * (k - s * k1)
    points = []
    for combo in itertools.product(base.points, repeat=s):
        coords = tuple(itertools.chain.from_iterable(p.coords for p in combo)) + tail
        points.append(Point(coords))
    points.sort(key=canonical_key)
    return PointSet(ChainProductLattice.chain_power(l, k), tuple(points))


def power_construction(l: int, k: int) -> PointSet:
    """Strongly cancellative family of size l^floor(k/2) on D_l^k."""
    if l < 1:
        raise ValueError(f"chain length must be >= 1, got {l}")
    if k < 2:
        raise ValueError(f"power construction needs k >= 2, got {k}")
    _check_size(l, k // 2)
    return product_composition(diagonal_construction(l, l), k)

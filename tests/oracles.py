"""Naive definitional implementations used as independent test oracles.

Everything here quantifies directly over ordered tuples of distinct points,
exactly as the properties are defined, with no hashing or incremental
shortcuts.  Deliberately slow; keep the inputs small.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import Optional

from latsets import (
    ChainProductLattice,
    Point,
    PointSet,
    Violation,
    canonical_key,
    enumerate_lattice,
)


def _meet(a: Point, b: Point) -> tuple:
    return tuple(map(min, a.coords, b.coords))


def _join(a: Point, b: Point) -> tuple:
    return tuple(map(max, a.coords, b.coords))


def naive_is_cancellative(s: PointSet) -> bool:
    for a1, a2, a3 in itertools.permutations(s.points, 3):
        if _meet(a1, a2) == _meet(a1, a3):
            return False
    return True


def naive_is_strongly_cancellative(s: PointSet) -> bool:
    for a1, a2, a3 in itertools.permutations(s.points, 3):
        if _meet(a1, a2) == _meet(a1, a3):
            return False
        if _join(a1, a2) == _join(a1, a3):
            return False
    return True


def naive_is_recovering(s: PointSet) -> bool:
    if not naive_is_strongly_cancellative(s):
        return False
    for a1, a2, a3, a4 in itertools.permutations(s.points, 4):
        if _meet(a1, a2) == _meet(a3, a4):
            return False
        if _join(a1, a2) == _join(a3, a4):
            return False
    return True


NAIVE_CHECKS = {
    "cancellative": naive_is_cancellative,
    "strongly_cancellative": naive_is_strongly_cancellative,
    "recovering": naive_is_recovering,
}


def _first_triple(pts: list[Point], op) -> Optional[tuple]:
    # (a1, a2, a3) with a2 < a3, by anchor a1 and then by the later member a3
    n = len(pts)
    for a1 in range(n):
        for a3 in range(n):
            for a2 in range(a3):
                if a1 not in (a2, a3) and op(pts[a1], pts[a2]) == op(pts[a1], pts[a3]):
                    return a1, a2, a3
    return None


def _first_quad(pts: list[Point], op) -> Optional[tuple]:
    # lexicographically first (a1, a2, a3, a4), a1 < a2, a3 < a4, (a1, a2) < (a3, a4)
    for w in itertools.permutations(range(len(pts)), 4):
        a1, a2, a3, a4 = w
        if a1 < a2 and a3 < a4 and (a1, a2) < (a3, a4):
            if op(pts[a1], pts[a2]) == op(pts[a3], pts[a4]):
                return w
    return None


_KINDS = (
    ("MeetTriple", _first_triple, _meet),
    ("JoinTriple", _first_triple, _join),
    ("MeetQuad", _first_quad, _meet),
    ("JoinQuad", _first_quad, _join),
)
_KIND_COUNT = {"cancellative": 1, "strongly_cancellative": 2, "recovering": 4}


def naive_find_violation(s: PointSet, prop: str) -> Optional[Violation]:
    """The violation find_violation documents, by scans over index tuples of
    the canonically sorted family: the first witness of each kind, then the
    smallest witness tuple across kinds, ties going to the earlier kind."""
    pts = sorted(s.points, key=canonical_key)
    found = []
    for rank, (kind, first, op) in enumerate(_KINDS[: _KIND_COUNT[prop]]):
        w = first(pts, op)
        if w is not None:
            found.append((w, rank, kind, op(pts[w[0]], pts[w[1]])))
    if not found:
        return None
    w, _, kind, value = min(found)
    return Violation(kind, tuple(pts[i] for i in w), Point(value))


def naive_pair_multiplicity(s: PointSet, operation: str) -> Counter:
    """Multiplicity of each meet (or join) value over all ordered pairs."""
    op = _meet if operation == "meet" else _join
    return Counter(Point(op(a, b)) for a in s.points for b in s.points)


def lex_leader_cut(image, prefix: list) -> bool:
    """The lex-leader rule of exact search as lists: a node whose chosen
    points are the ascending `prefix` is cut when the symmetry `image` (a map
    of point indices) sends them to a lexicographically smaller sorted list."""
    return sorted(map(image, prefix)) < list(prefix)


def random_lattice(rng: random.Random, max_k: int = 4, max_l: int = 4) -> ChainProductLattice:
    k = rng.randint(1, max_k)
    return ChainProductLattice(tuple(rng.randint(1, max_l) for _ in range(k)))


def random_point_set(
    rng: random.Random,
    lattice: ChainProductLattice | None = None,
    max_size: int = 7,
) -> PointSet:
    if lattice is None:
        lattice = random_lattice(rng)
    points = enumerate_lattice(lattice)
    size = rng.randint(0, min(max_size, len(points)))
    return PointSet(lattice, tuple(rng.sample(points, size)))

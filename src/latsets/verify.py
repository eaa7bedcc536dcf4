"""Verifiers for cancellative, strongly cancellative and recovering sets.

A family S is cancellative when no three distinct points a1, a2, a3 have
a1 ^ a2 = a1 ^ a3 (anchored meet injectivity); strongly cancellative when
the same holds for joins as well; recovering when additionally no four
distinct points have a1 ^ a2 = a3 ^ a4 or a1 v a2 = a3 v a4.

The triple conditions are checked with one hash map per anchor and the
quad conditions as injectivity of the unordered-pair meet/join maps, both
O(|S|^2).  Two unordered pairs of distinct elements either share a point
(a triple condition) or are disjoint (a quad condition), so joint
injectivity of the pair maps is exactly the recovering condition.

Families of size <= 2 satisfy every property vacuously: the definitions
quantify over three or four distinct points.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from .entropy import Distribution, entropy
from .lattice import Point, PointSet, canonical_key, mask_codec

CANCELLATIVE = "cancellative"
STRONGLY_CANCELLATIVE = "strongly_cancellative"
RECOVERING = "recovering"
PROPERTIES = (CANCELLATIVE, STRONGLY_CANCELLATIVE, RECOVERING)

MEET = "meet"
JOIN = "join"
OPERATIONS = (MEET, JOIN)

MEET_TRIPLE = "MeetTriple"
JOIN_TRIPLE = "JoinTriple"
MEET_QUAD = "MeetQuad"
JOIN_QUAD = "JoinQuad"
_KIND_RANK = {MEET_TRIPLE: 0, JOIN_TRIPLE: 1, MEET_QUAD: 2, JOIN_QUAD: 3}


def normalize_property(name: str) -> str:
    prop = name.strip().lower().replace("-", "_")
    if prop not in PROPERTIES:
        raise ValueError(f"unknown property {name!r}; expected one of {PROPERTIES}")
    return prop


def _operator(operation: str) -> Callable[[int, int], int]:
    """The mask operator of "meet" (&) or "join" (|)."""
    if operation not in OPERATIONS:
        raise ValueError(f"unknown operation {operation!r}; expected 'meet' or 'join'")
    return operator.and_ if operation == MEET else operator.or_


def _encode_set(s: PointSet):
    """The points as thermometer masks (lattice.mask_codec), on which meet
    and join are & and |, and the decoder back to points."""
    encode, decode = mask_codec(s.lattice)
    return [encode(p) for p in s.points], decode


def _pairwise_injective(vals: list, op: Callable) -> bool:
    # quad + triple conditions at once: unordered-pair value map is injective
    seen = set()
    for i, a in enumerate(vals):
        for b in vals[i + 1 :]:
            v = op(a, b)
            if v in seen:
                return False
            seen.add(v)
    return True


def is_cancellative(s: PointSet) -> bool:
    vals, _ = _encode_set(s)
    return _min_triple(vals, operator.and_) is None


def is_strongly_cancellative(s: PointSet) -> bool:
    vals, _ = _encode_set(s)
    return _min_triple(vals, operator.and_) is None and _min_triple(vals, operator.or_) is None


def is_recovering(s: PointSet) -> bool:
    vals, _ = _encode_set(s)
    return _pairwise_injective(vals, operator.and_) and _pairwise_injective(vals, operator.or_)


_CHECKS = {
    CANCELLATIVE: is_cancellative,
    STRONGLY_CANCELLATIVE: is_strongly_cancellative,
    RECOVERING: is_recovering,
}


def satisfies(s: PointSet, prop: str) -> bool:
    return _CHECKS[normalize_property(prop)](s)


@dataclass(frozen=True)
class Violation:
    """Witness that a family fails one of the defining conditions.

    MeetTriple(a1,a2,a3): a1^a2 = a1^a3 with the three points distinct;
    MeetQuad(a1,a2,a3,a4): a1^a2 = a3^a4 with all four distinct; the Join
    kinds are the duals.  colliding_value is the shared meet/join.
    """

    kind: str
    witnesses: tuple[Point, ...]
    colliding_value: Point

    def __post_init__(self) -> None:
        if self.kind not in _KIND_RANK:
            raise ValueError(f"unknown violation kind {self.kind!r}")
        want = 3 if self.kind in (MEET_TRIPLE, JOIN_TRIPLE) else 4
        if len(self.witnesses) != want:
            raise ValueError(f"{self.kind} needs {want} witnesses, got {len(self.witnesses)}")
        if len(set(self.witnesses)) != len(self.witnesses):
            raise ValueError("violation witnesses must be distinct")

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "witnesses": [list(p.coords) for p in self.witnesses],
            "value": list(self.colliding_value.coords),
        }


def _min_triple(vals: list, op: Callable):
    """First (anchor, b1, b2), b1 < b2, with anchor^b1 = anchor^b2, by anchor
    and then by b2; None iff the triple condition holds."""
    for i, a in enumerate(vals):
        seen: dict = {}
        for j, b in enumerate(vals):
            if j == i:
                continue
            v = op(a, b)
            if v in seen:
                return (i, seen[v], j), v
            seen[v] = j
    return None


def _min_quad(vals: list, op: Callable):
    """Lexicographically first (a1, a2, a3, a4), pairs disjoint, equal values."""
    n = len(vals)
    by_value: dict = {}
    for i in range(n):
        for j in range(i + 1, n):
            by_value.setdefault(op(vals[i], vals[j]), []).append((i, j))
    best = None
    for v, pairs in by_value.items():
        if len(pairs) < 2:
            continue
        # pairs is in lexicographic order; the first pair with a disjoint
        # partner, together with its first such partner, is minimal here
        for x, p in enumerate(pairs):
            q = next(
                (q for q in pairs[x + 1 :] if p[0] not in q and p[1] not in q), None
            )
            if q is not None:
                cand = ((p[0], p[1], q[0], q[1]), v)
                if best is None or cand[0] < best[0]:
                    best = cand
                break
    return best


def find_violation(s: PointSet, prop: str) -> Optional[Violation]:
    """The canonical witness of failure, or None when the property holds.

    Witnesses are compared by their indices in canonical order.  Within a
    kind, a triple (a1, a2, a3) with a2 < a3 is first by anchor a1, then by
    the later member a3; a quad (a1, a2, a3, a4) with a1 < a2, a3 < a4 and
    (a1, a2) < (a3, a4) is lexicographically first.  Across kinds the
    smaller witness tuple wins, ties broken by kind (MeetTriple,
    JoinTriple, MeetQuad, JoinQuad).
    """
    prop = normalize_property(prop)
    pts = sorted(s.points, key=canonical_key)
    ordered = PointSet(s.lattice, tuple(pts))
    vals, decode = _encode_set(ordered)

    searches = [(MEET_TRIPLE, _min_triple, operator.and_)]
    if prop in (STRONGLY_CANCELLATIVE, RECOVERING):
        searches.append((JOIN_TRIPLE, _min_triple, operator.or_))
    if prop == RECOVERING:
        searches.append((MEET_QUAD, _min_quad, operator.and_))
        searches.append((JOIN_QUAD, _min_quad, operator.or_))

    best = None
    for kind, finder, op in searches:
        found = finder(vals, op)
        if found is None:
            continue
        indices, value = found
        key = (indices, _KIND_RANK[kind])
        if best is None or key < best[0]:
            best = (key, kind, indices, value)
    if best is None:
        return None
    _, kind, indices, value = best
    return Violation(kind, tuple(pts[i] for i in indices), decode(value))


@dataclass(frozen=True, eq=False)
class PairStatistics:
    """Multiplicities of meet (or join) values over all |S|^2 ordered pairs."""

    operation: str
    multiplicity: dict
    max_multiplicity: int
    pair_distribution: Distribution


def pair_statistics(s: PointSet, operation: str) -> PairStatistics:
    """Exact multiplicity map of a^b (or a v b) over ordered pairs (a, b).

    Pairs with a = b are included, so the counts sum to |S|^2; the
    distribution assigns each value count / |S|^2.
    """
    op = _operator(operation)
    if s.size < 1:
        raise ValueError("pair statistics need at least one point")
    vals, decode = _encode_set(s)
    counts: Counter = Counter()
    for i, a in enumerate(vals):
        counts[a] += 1  # the (a, a) pair; meet and join are idempotent
        for b in vals[i + 1 :]:
            counts[op(a, b)] += 2
    total = s.size * s.size
    multiplicity = {decode(v): c for v, c in counts.items()}
    dist = Distribution({p: c / total for p, c in multiplicity.items()})
    return PairStatistics(operation, multiplicity, max(counts.values()), dist)


def anchored_entropy(s: PointSet, v: Point, operation: str) -> float:
    """Entropy of v ^ w (or v v w) for w uniform on S minus {v}.

    On a strongly cancellative family all |S| - 1 values are distinct, so
    this equals log2(|S| - 1) for every anchor and both operations.
    """
    op = _operator(operation)
    if s.size < 2:
        raise ValueError("anchored entropy needs at least 2 points")
    if v not in s:
        raise ValueError(f"anchor {v!r} is not in the set")
    vals, _ = _encode_set(s)
    anchor = vals[list(s.points).index(v)]
    counts = Counter(op(anchor, b) for b in vals if b != anchor)
    return entropy(Distribution.from_counts(counts))

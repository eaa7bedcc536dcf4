"""Verifiers for cancellative, strongly cancellative and recovering sets.

A family S is cancellative when no three distinct points a1, a2, a3 have
a1 ^ a2 = a1 ^ a3 (anchored meet injectivity); strongly cancellative when
the same holds for joins as well; recovering when additionally no four
distinct points have a1 ^ a2 = a3 ^ a4 or a1 v a2 = a3 v a4.

Two unordered pairs of distinct elements either share a point (a triple
condition) or are disjoint (a quad condition), so joint injectivity of the
unordered-pair meet/join maps is exactly the recovering condition.  Every
check takes O(|S|^2) time in the worst case.  The per-pair work runs in C:
a row of values is built with map(op, repeat(a), ...) and tested with
set, Counter and list.index, so Python-level loops run per row, per
distinct value or on rows that hold a collision.
The triple searches hold one row at a time; is_recovering holds the pair
values seen so far.  Before a triple search that no witness bounds, a
certificate tries to prove its kind triple-free from the family's
pairwise differences:
anchor ^ b = anchor ^ c iff anchor & (b xor c) = 0, and anchor v b =
anchor v c iff b xor c lies within anchor, so a triple needs a member on
the wrong side of some difference.  The differences lie in the span over
GF(2) of the first member's row of differences; each element of that
span is checked by bitsets over the members, one per mask bit.  It needs
a small span: the block family is a coset of a linear code, so its span
has |S| elements, and past 4 |S| the certificate gives up and the scan
decides.
find_violation's quad search walks the quad's first pair in order and
finds the rest from the same bitsets, so an early quad costs little time
and no table of pair values.  find_violation runs each search once: these
bitset searches first and the triple searches next.  A bitset search that
spent 2 |S| operations without deciding returns the pair it stopped at,
and its kind counts every pair value only if a quad that opens there or
later can still beat or tie the best witness so far; the bitset search
then runs again, without a budget, over the pairs whose value repeats.
Each search takes the best witness so far as its bound, only as the
place to stop: it returns its first witness whose first pair (a triple's
anchor) is at or before the bound's, and find_violation keeps the
smallest.

Families of size <= 2 satisfy every property vacuously: the definitions
quantify over three or four distinct points.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import chain, compress, islice, repeat
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
_KINDS = (MEET_TRIPLE, JOIN_TRIPLE, MEET_QUAD, JOIN_QUAD)


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
    seen: set = set()
    for i, a in enumerate(vals):
        row = set(map(op, repeat(a), vals[i + 1 :]))
        if len(row) < len(vals) - i - 1 or not seen.isdisjoint(row):
            return False
        seen |= row
    return True


def _no_triples(vals: list, ops: tuple) -> bool:
    free = _triple_free(vals, ops)
    return all(op in free or _min_triple(vals, op) is None for op in ops)


def is_cancellative(s: PointSet) -> bool:
    vals, _ = _encode_set(s)
    return _no_triples(vals, (operator.and_,))


def is_strongly_cancellative(s: PointSet) -> bool:
    vals, _ = _encode_set(s)
    return _no_triples(vals, (operator.and_, operator.or_))


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
        if self.kind not in _KINDS:
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


def _bit_tables(vals: list) -> tuple:
    """(has, lacks): has[1 << t] is the bitset over the members of those
    whose masks hold bit t, lacks[1 << t] of those without it.

    has is the table of the meet masks.  A join is the meet of the masks
    complemented within their OR, full (a | b = v iff ~a & ~b = ~v), so
    lacks is the table of the join masks on every bit of full, the only
    bits the searches look up.
    """
    full = reduce(operator.or_, vals, 0)
    # the digits of bit t in the masks' binary strings, last member first,
    # read as a number
    width = full.bit_length()
    columns = zip(*map(f"{{:0{width}b}}".format, reversed(vals)))
    has = {1 << t: int("".join(column), 2)
           for t, column in zip(range(width - 1, -1, -1), columns)}
    everyone = (1 << len(vals)) - 1
    return has, {bit: everyone ^ h for bit, h in has.items()}


def _triple_free(vals: list, ops, tables: Optional[tuple] = None) -> list:
    """The operators of ops (& for meet, | for join) proven to have no
    triple; the others may or may not have one.

    anchor & b = anchor & c iff anchor & d = 0 with d = b ^ c, and
    anchor | b = anchor | c iff d lies within anchor.  So a triple needs a
    member on the wrong side of a difference d of two members: without any
    bit of d for meet, with every bit of d for join.  Those members are
    the AND of lacks[t] (of has[t] for join) over the bits t of d, so each
    d costs a few bitset operations.  A kind with no member on the wrong
    side of any d has no triple.  Any other outcome proves nothing, since
    that member may be b or c itself, as when b < c.

    Every difference b ^ c is (a ^ b) ^ (a ^ c) for the first member a, so
    the differences lie in the span over GF(2) of the row a ^ b, b in S.
    Each row value outside the span so far doubles it; it gives up instead
    when that would take the span past 4 |S| elements.  Otherwise it
    checks every nonzero element of the span, real difference or not: one
    that is not can only make it prove less.
    Before the span, it gives up if the first anchor holds a collision of
    any kind, where a failing family usually shows its triple: the scan
    that finds it decides, and bounds the other kind's.
    """
    n = len(vals)
    if n < 3:
        return list(ops)
    if any(len(set(map(op, repeat(vals[0]), vals))) < n for op in ops):
        return []
    span = {0}
    for d in map(operator.xor, repeat(vals[0]), vals):
        if d not in span:
            if 2 * len(span) > 4 * n:
                return []
            span |= {s ^ d for s in span}
    span.discard(0)
    tables = tables or _bit_tables(vals)
    free = []
    for op in ops:
        # the members on the wrong side: lacks for meet, has for join
        wrong = tables[op is operator.and_]
        for d in span:
            low = d & -d
            members, d = wrong[low], d ^ low
            while d and members:
                low = d & -d
                members &= wrong[low]
                d ^= low
            if members:
                break
        else:
            free.append(op)
    return free


def _min_triple(vals: list, op: Callable, bound: Optional[tuple] = None):
    """First (anchor, b1, b2), b1 < b2, with anchor^b1 = anchor^b2, by anchor
    and then by b2; None iff the triple condition holds.

    An anchor whose |S| values (op(a, a) = a among them) are distinct holds
    no triple; only an anchor with fewer distinct values gets the exact
    scan.  With a bound (the best witness so far) the search stops after
    the bound's anchor, since a later anchor cannot sort before it.
    """
    n = len(vals)
    for i, a in enumerate(vals):
        if bound is not None and i > bound[0]:
            return None
        if len(set(map(op, repeat(a), vals))) == n:
            continue
        seen: dict = {}
        for j, v in enumerate(map(op, repeat(a), vals)):
            if j == i:
                continue
            if v in seen:
                return (i, seen[v], j), v
            seen[v] = j
    return None


def _min_quad(vals: list, op: Callable, bound: Optional[tuple] = None,
              tables: Optional[tuple] = None, repeated: Optional[set] = None):
    """Lexicographically first (p0, p1, q0, q1), pairs disjoint, equal values,
    and its value; None when there is none with its first pair at or before
    the bound's (the best witness so far); or ((p0, p1), None) when its
    budget ran out at the pair (p0, p1), before which no quad opens.

    The first pair (p0, p1) runs over the pairs in lex order, and with a
    bound stops after the bound's first pair.
    Its meet v lies below both other points of the quad, so those are
    members above p0, other than p1, whose masks hold every bit of v: the
    AND of has[t] over the bits t of v (_bit_tables).  Such a q0 meets a
    later such q1 in exactly v iff q1 lacks every bit of vals[q0] & ~v, so
    q0's partners are the AND of lacks[t] over those bits.  The first q0,
    ascending, with a partner and its first partner complete the quad.  A
    join is the meet of complemented masks, so has and lacks swap.  has[t]
    is a bitset over the members, so the work follows the answer, not the
    |S|^2 / 2 pair values.

    Without an early quad this costs about ten bitset operations per
    pair, each about as long as the count spends on one pair value, so
    after 2 |S| operations without a quad it stops at the next pair, the
    frontier.  find_violation then has _min_quad_by_count decide, unless
    the best witness so far opens before the frontier.
    That budget is twice what any construction needs (at most
    1.76 |S|, on power_construction(5, 4)); a quad-free family pays it and
    the bitsets on top of the count, 1-3% of it at 512 to 1024 members.
    Given the set of the pair values that occur twice (repeated), it has
    no budget and tries only the pairs of those values, since no other
    pair opens a quad.
    """
    n = len(vals)
    if n < 4:
        return None
    has, lacks = tables or _bit_tables(vals)
    masks = vals
    if op is operator.or_:
        full = reduce(operator.or_, vals)
        masks, has, lacks = [full ^ a for a in vals], lacks, has
    last = bound[:2] if bound else (n - 1, n - 1)
    everyone = (1 << n) - 1

    budget = 2 * n if repeated is None else math.inf
    for p0 in range(last[0] + 1):
        seconds = range(p0 + 1, n if p0 < last[0] else last[1] + 1)
        if repeated is not None:
            row = list(map(op, repeat(vals[p0]), vals[p0 + 1 :]))
            if repeated.isdisjoint(row):
                continue
            seconds = compress(seconds, map(repeated.__contains__, row))
        above = everyone ^ ((2 << p0) - 1)
        for p1 in seconds:
            if budget < 0:
                return (p0, p1), None
            v = masks[p0] & masks[p1]
            cand = above ^ (1 << p1)
            x = v
            # a quad needs two of the candidates
            while x and cand & (cand - 1):
                low = x & -x
                cand &= has[low]
                x ^= low
                budget -= 1
            while cand & (cand - 1):
                low = cand & -cand
                cand ^= low
                q0 = low.bit_length() - 1
                partners = cand
                x = masks[q0] & ~v
                while x and partners:
                    low = x & -x
                    partners &= lacks[low]
                    x ^= low
                    budget -= 1
                if partners:
                    q1 = (partners & -partners).bit_length() - 1
                    return (p0, p1, q0, q1), op(vals[p0], vals[p1])
            budget -= 1
    return None


def _min_quad_by_count(vals: list, op: Callable, bound: Optional[tuple] = None,
                       tables: Optional[tuple] = None):
    """_min_quad by counting every pair value: O(|S|^2) time and memory
    whatever the answer.

    The values that occur twice are the only ones a quad can have, and
    _min_quad over just their pairs needs no budget.  With a bound only a
    quad whose first pair (p0, p1) is at or before the bound's can be
    reported, so only the values of those pairs are counted over all
    pairs.
    """
    n = len(vals)

    def rows():
        # row p0 holds the values of the pairs (p0, j), j > p0
        for i in range(n):
            yield list(map(op, repeat(vals[i]), vals[i + 1 :]))

    counts: Counter = Counter()
    if bound is None:
        for row in rows():
            counts.update(row)
    else:
        heads = list(islice(rows(), bound[0] + 1))
        heads[-1] = heads[-1][: max(0, bound[1] - bound[0])]
        wanted = set(chain.from_iterable(heads))
        for row in rows():
            counts.update(filter(wanted.__contains__, row))
    twice = {v for v, c in counts.items() if c > 1}
    return _min_quad(vals, op, bound, tables, twice) if twice else None


# the mask operator of each kind, in the order of _KINDS
_KIND_OPS = (operator.and_, operator.or_, operator.and_, operator.or_)
# the kinds each property checks, a prefix of _KINDS
_KIND_COUNT = {CANCELLATIVE: 1, STRONGLY_CANCELLATIVE: 2, RECOVERING: 4}


def find_violation(s: PointSet, prop: str) -> Optional[Violation]:
    """The canonical witness of failure, or None when the property holds.

    Witnesses are compared by their indices in canonical order.  Within a
    kind, a triple (a1, a2, a3) with a2 < a3 is first by anchor a1, then by
    the later member a3; a quad (a1, a2, a3, a4) with a1 < a2, a3 < a4 and
    (a1, a2) < (a3, a4) is lexicographically first.  Across kinds the
    smaller witness tuple wins, ties broken by kind (MeetTriple,
    JoinTriple, MeetQuad, JoinQuad).

    The searches run cheapest first, each once: the quads' bitset
    searches, then the O(|S|^2) triple searches, then the pair-value count
    of each quad kind whose bitset search stopped at a frontier pair,
    unless the first two indices of the best witness so far come before
    it.  Each search gets the best witness so far as its bound and returns
    its first witness whose first pair (a triple's anchor) is at or before
    the bound's; the smallest witness found, a tie going to the earlier
    kind, is the answer.  Without a witness to bound them the triple
    searches run only for the kinds that _triple_free does not prove free;
    the certificate and the quad searches, the count's included, share one
    _bit_tables.
    """
    prop = normalize_property(prop)
    pts = sorted(s.points, key=canonical_key)
    encode, decode = mask_codec(s.lattice)
    vals = [encode(p) for p in pts]
    ranks = range(_KIND_COUNT[prop])

    # (indices, rank, value) of each witness found, rank its kind's place in
    # _KINDS: the smallest is the answer, a tie going to the earlier kind
    found = []

    def bound():
        return min(found)[0] if found else None

    def keep(rank, got):
        if got is not None:
            found.append((got[0], rank, got[1]))

    tables = _bit_tables(vals) if len(ranks) > 2 else None
    frontiers = []
    for rank in ranks[2:]:
        got = _min_quad(vals, _KIND_OPS[rank], bound(), tables)
        if got is not None and got[1] is None:
            frontiers.append((rank, got[0]))
        else:
            keep(rank, got)
    triples = ranks[:2]
    if not found:
        free = _triple_free(vals, [_KIND_OPS[rank] for rank in triples], tables)
        triples = [rank for rank in triples if _KIND_OPS[rank] not in free]
    for rank in triples:
        keep(rank, _min_triple(vals, _KIND_OPS[rank], bound()))
    for rank, frontier in frontiers:
        best = bound()
        if best is None or best[:2] >= frontier:
            keep(rank, _min_quad_by_count(vals, _KIND_OPS[rank], best, tables))
    if not found:
        return None
    indices, rank, value = min(found)
    return Violation(_KINDS[rank], tuple(pts[i] for i in indices), decode(value))


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
        counts.update(map(op, repeat(a), vals[i:]))  # the pairs (a, b), b >= a
    # ordered pairs: (a, b) and (b, a) for a != b, but (a, a) once, and its
    # value is a since meet and join are idempotent
    members = set(vals)
    multiplicity = {decode(v): 2 * c - (v in members) for v, c in counts.items()}
    dist = Distribution.from_counts(multiplicity)
    return PairStatistics(operation, multiplicity, max(multiplicity.values()), dist)


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
    anchor = vals[s.points.index(v)]
    counts = Counter(op(anchor, b) for b in vals if b != anchor)
    return entropy(Distribution.from_counts(counts))

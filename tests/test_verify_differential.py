"""Randomized differential test: the bit-mask verifiers against the naive
coordinate-tuple oracles, on chain products with chains of 1 to 7
elements."""

import math
import operator
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import latsets.verify as verify
from latsets import (
    PROPERTIES,
    ChainProductLattice,
    PointSet,
    canonical_key,
    enumerate_lattice,
    find_violation,
    pair_statistics,
    satisfies,
)
from latsets.construct import (
    block_construction_bn,
    diagonal_construction,
    power_construction,
    product_composition,
)
from latsets.lattice import mask_codec

from oracles import (
    NAIVE_CHECKS,
    _first_quad,
    _first_triple,
    _join,
    _meet,
    naive_find_violation,
    naive_is_cancellative,
    naive_is_strongly_cancellative,
    naive_pair_multiplicity,
)


@st.composite
def families(draw, max_points: int = 120):
    # small lattices, so that meets and joins collide often
    lengths = [draw(st.integers(1, 7))]
    for l in draw(st.lists(st.integers(1, 7), max_size=4)):
        if math.prod(lengths) * l <= max_points:
            lengths.append(l)
    lattice = ChainProductLattice(tuple(lengths))
    coords = st.tuples(*(st.integers(0, l - 1) for l in lengths))
    size = min(draw(st.integers(0, 20)), lattice.size)
    points = draw(st.lists(coords, unique=True, min_size=size, max_size=size))
    # a greedy cancellative subfamily can fail only with joins or quads,
    # a strongly cancellative one only with quads
    keep = draw(st.sampled_from([None, naive_is_cancellative, naive_is_strongly_cancellative]))
    if keep is None:
        points = points[:9]
    else:
        kept: list = []
        for p in points:
            if keep(PointSet.from_coords(lattice, kept + [p])):
                kept.append(p)
        points = kept
    return PointSet.from_coords(lattice, points)


def _certified(s: PointSet) -> list:
    # the kinds _triple_free proves free, checked against the naive oracle
    pts = sorted(s.points, key=canonical_key)
    encode, _ = mask_codec(s.lattice)
    free = verify._triple_free([encode(p) for p in pts], (operator.and_, operator.or_))
    for op, naive_op in ((operator.and_, _meet), (operator.or_, _join)):
        if op in free:
            assert _first_triple(pts, naive_op) is None, (s, op)
    return free


@settings(derandomize=True, max_examples=500, deadline=None)
@given(families())
# two disjoint partners for the first pair: the earlier one is the witness
@example(PointSet.from_coords(ChainProductLattice((2, 4, 4)), [
    (0, 3, 0), (1, 0, 0), (1, 1, 2), (1, 3, 1), (1, 3, 2)]))
# JoinTriple (0,1,2) beats MeetTriple (0,1,3) at the same anchor
@example(PointSet.from_coords(ChainProductLattice((3, 3)), [
    (0, 1), (1, 0), (1, 1), (2, 0)]))
# the JoinTriple search stops after anchor 0, behind the MeetTriple
# (0,2,3), but the JoinTriple (2,0,1) still shares a point between two
# pairs of equal join, which the JoinQuad search must not take as a quad
@example(PointSet.from_coords(ChainProductLattice((4, 2)), [
    (0, 1), (1, 1), (2, 0), (3, 0)]))
# a chain of 16 plus 5 points: triples at most anchors, and the MeetQuad
# (0,2,1,4), whose q0 is below p1, beats the MeetTriple (0,2,4)
@example(PointSet.from_coords(ChainProductLattice((7, 7, 7)), [
    (2, 1, 0), (3, 1, 0), (3, 1, 1), (4, 1, 1), (4, 2, 1), (4, 2, 2), (4, 2, 3),
    (4, 3, 3), (5, 3, 3), (5, 4, 3), (6, 4, 3), (6, 5, 3), (6, 5, 4), (6, 6, 4),
    (6, 6, 5), (6, 6, 6), (1, 5, 4), (2, 3, 0), (1, 2, 5), (4, 5, 4), (6, 3, 2)]))
# strongly cancellative, three complementary pairs meet in 0: the first
# pair's earlier partner is the witness
@example(PointSet.from_coords(ChainProductLattice.boolean(6), [
    (0, 0, 0, 1, 1, 1), (0, 1, 0, 0, 1, 1), (0, 1, 1, 0, 1, 0),
    (1, 0, 0, 1, 0, 1), (1, 0, 1, 1, 0, 0), (1, 1, 1, 0, 0, 0)]))
# {1,2},{3,4} and {1,3},{2,4} share meet and join: MeetQuad wins the tie
@example(PointSet.from_coords(ChainProductLattice.boolean(4), [
    (0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)]))
# MeetQuad and JoinQuad share their first witness, (0, 5, 1, 4); the meet
# bitset search runs out of budget, the join one finds the quad, and the
# meet count, bounded by it, must still report its equal quad, which wins
# the tie
@example(PointSet.from_coords(ChainProductLattice((3, 3, 3, 3)), [
    (0, 0, 2, 2), (0, 1, 1, 2), (0, 2, 0, 2), (1, 2, 0, 0), (2, 0, 2, 1), (2, 1, 1, 1)]))
def test_mask_verifiers_match_naive_oracles(s):
    _certified(s)
    for prop in PROPERTIES:
        assert satisfies(s, prop) == NAIVE_CHECKS[prop](s)
        assert find_violation(s, prop) == naive_find_violation(s, prop)
    if s.size:
        for operation in ("meet", "join"):
            stats = pair_statistics(s, operation)
            naive = naive_pair_multiplicity(s, operation)
            assert stats.multiplicity == naive
            assert stats.max_multiplicity == max(naive.values())


def test_min_quad_matches_full_count():
    # the bitset quad search and the pair-value count against the naive
    # first quad: where the bitset search decides, it finds that quad;
    # where its budget runs out, no quad opens before the pair it stopped
    # at.  With a bound, each reports the first quad iff its first pair is
    # at or before the bound's
    rng = random.Random(2011)
    lattices = [ChainProductLattice.boolean(n) for n in (4, 5, 6, 7)] + [
        ChainProductLattice(lengths) for lengths in
        ((3, 3, 3), (4, 4), (3, 4, 2), (5, 3), (7, 7, 7), (4, 4, 4, 4))]
    count = verify._min_quad_by_count
    targeted = undecided = 0
    for trial in range(360):
        lattice = lattices[trial % len(lattices)]
        points = rng.sample(enumerate_lattice(lattice), min(lattice.size, rng.randint(4, 14)))
        if trial % 3:
            # strongly cancellative subfamilies fail late or not at all
            kept: list = []
            for p in points:
                if satisfies(PointSet(lattice, tuple(kept + [p])), "strongly_cancellative"):
                    kept.append(p)
            points = kept
        s = PointSet(lattice, tuple(points[:10]))
        encode, _ = mask_codec(lattice)
        pts = sorted(s.points, key=canonical_key)
        vals = [encode(p) for p in pts]
        n = len(vals)
        for op, naive_op in ((operator.and_, _meet), (operator.or_, _join)):
            quad = _first_quad(pts, naive_op)
            first = quad and (quad, op(vals[quad[0]], vals[quad[1]]))
            assert count(vals, op) == first, (s, op)
            got = verify._min_quad(vals, op)
            if got is not None and got[1] is None:
                undecided += 1
                assert first is None or first[0][:2] >= got[0], (s, op, got)
            else:
                targeted += n >= 4
                assert got == first, (s, op)
            triple = verify._min_triple(vals, op)
            bounds = [found[0] for found in (triple, first) if found]
            bounds += [tuple(rng.sample(range(n), k)) for k in (3, 4) if n >= k]
            for bound in bounds:
                want = first if first and first[0][:2] <= bound[:2] else None
                assert count(vals, op, bound) == want, (s, op, bound)
                got = verify._min_quad(vals, op, bound)
                if got is None or got[1] is not None:
                    assert got == want, (s, op, bound)
                else:
                    assert got[0] <= bound[:2] and (want is None or want[0][:2] >= got[0])
        assert find_violation(s, "recovering") == naive_find_violation(s, "recovering")
    # both the bitset search and the count decided some of the cases
    assert targeted > 100 and undecided > 100, (targeted, undecided)


def test_recovering_violation_of_greedy_subfamilies():
    # greedy cancellative and strongly cancellative subfamilies of 150
    # random points fail recovering late, by a join triple or a quad, if at
    # all: the reordered searches and their bounds against the oracle
    rng = random.Random(2016)
    lattices = [ChainProductLattice.boolean(n) for n in range(5, 11)] + [
        ChainProductLattice(lengths) for lengths in
        ((3, 3, 3), (4, 4, 4), (3, 4, 2), (5, 3, 3), (3, 3, 3, 3), (3, 4, 5))]
    kinds = Counter()
    for trial in range(504):
        lattice = lattices[trial % len(lattices)]
        prop = ("cancellative", "strongly_cancellative")[trial // len(lattices) % 2]
        kept: list = []
        for p in rng.sample(enumerate_lattice(lattice), min(150, lattice.size)):
            if satisfies(PointSet(lattice, tuple(kept + [p])), prop):
                kept.append(p)
        s = PointSet(lattice, tuple(kept))
        want = naive_find_violation(s, "recovering")
        assert find_violation(s, "recovering") == want, s
        kinds[want and want.kind] += 1
    # every kind the subfamilies can fail by, and some that hold
    assert set(kinds) == {None, "JoinTriple", "MeetQuad", "JoinQuad"}, kinds


def _spy_searches(monkeypatch) -> list:
    # (search, bound, result) of each search find_violation runs, in order:
    # "MeetQuad" is the bitset search, whose result is the pair it stopped
    # at if its budget ran out, "MeetQuad count" the count, "MeetTriple" the
    # triple search; the Join ones likewise.  The count's own bitset search
    # runs inside it and is not recorded
    calls = []
    depth = 0

    def spy(name, search):
        def run(vals, op, bound=None, *rest):
            nonlocal depth
            depth += 1
            try:
                got = search(vals, op, bound, *rest)
            finally:
                depth -= 1
            if not depth:
                calls.append((("Meet" if op is operator.and_ else "Join") + name,
                              bound, got and got[0]))
            return got
        return run

    for attr, name in (("_min_quad", "Quad"), ("_min_triple", "Triple"),
                       ("_min_quad_by_count", "Quad count")):
        monkeypatch.setattr(verify, attr, spy(name, getattr(verify, attr)))
    return calls


def _random_boolean_family(n: int, masks: list) -> PointSet:
    return PointSet.from_coords(ChainProductLattice.boolean(n),
                                [tuple((m >> i) & 1 for i in range(n)) for m in masks])


def test_early_quad_bounds_the_triple_searches(monkeypatch):
    # the bitset searches run first, so the O(|S|^2) triple scans of a
    # strongly cancellative construction stop after anchor 0
    s = block_construction_bn(20)
    calls = _spy_searches(monkeypatch)
    quad = (0, 3, 1, 2)
    assert find_violation(s, "recovering").kind == "MeetQuad"
    assert calls == [("MeetQuad", None, quad), ("JoinQuad", quad, quad),
                     ("MeetTriple", quad, None), ("JoinTriple", quad, None)]


@pytest.mark.parametrize("seed, skips_count", [(1, True), (2, False)])
def test_undecided_quads_wait_for_the_triples(monkeypatch, seed, skips_count):
    # 64 random points of B_40: both bitset searches run out of budget, so
    # they wait for the MeetTriple.  Its pair comes before both frontiers,
    # so no count runs (seed 1), or after them, so each kind counts the
    # values of the pairs up to the triple's (seed 2)
    s = _random_boolean_family(40, random.Random(seed).sample(range(1 << 40), 64))
    calls = _spy_searches(monkeypatch)
    assert find_violation(s, "recovering").kind == "MeetTriple"
    assert [call[:2] for call in calls[:2]] == [("MeetQuad", None), ("JoinQuad", None)]
    frontiers = [call[2] for call in calls[:2]]
    assert all(len(frontier) == 2 for frontier in frontiers)
    triple = calls[2][2]
    assert all((triple[:2] < frontier) == skips_count for frontier in frontiers)
    want = [("MeetTriple", None, triple), ("JoinTriple", triple, None)]
    if not skips_count:
        want += [("MeetQuad count", triple, None), ("JoinQuad count", triple, None)]
    assert calls[2:] == want


@pytest.mark.parametrize("seed", [237, 869])
def test_quad_opening_at_the_frontier_is_counted(monkeypatch, seed):
    # the MeetQuad bitset search stops at the pair that opens the
    # MeetTriple, and the first MeetQuad opens there too and beats it: the
    # count must run when the bound's pair equals the frontier
    rng = random.Random(seed)
    n = rng.randint(9, 12)
    s = _random_boolean_family(n, rng.sample(range(1 << n), rng.randint(20, 32)))
    calls = _spy_searches(monkeypatch)
    v = find_violation(s, "recovering")
    assert v == naive_find_violation(s, "recovering") and v.kind == "MeetQuad"
    assert [call[0] for call in calls] == ["MeetQuad", "JoinQuad", "MeetTriple",
                                           "JoinTriple", "MeetQuad count"]
    frontier, triple, (_, bound, quad) = calls[0][2], calls[2][2], calls[4]
    assert triple[:2] == frontier == quad[:2] and bound == triple and quad < triple


def test_count_finds_first_quad_without_triples():
    # strongly cancellative constructions: every two pairs of equal value
    # are disjoint, and the count must still find the first quad
    rng = random.Random(2012)
    for s in (block_construction_bn(6), block_construction_bn(8), power_construction(3, 4),
              product_composition(diagonal_construction(3, 3), 5)):
        pts = sorted(s.points, key=canonical_key)
        encode, _ = mask_codec(s.lattice)
        vals = [encode(p) for p in pts]
        for op, naive_op in ((operator.and_, _meet), (operator.or_, _join)):
            first = _first_quad(pts, naive_op)
            assert verify._min_triple(vals, op) is None and first is not None
            bounds = [None, first, first[:3], first[:3] + (first[3] + 1,)]
            bounds += [tuple(rng.sample(range(len(pts)), k)) for k in (3, 4, 3, 4, 3, 4)]
            for bound in bounds:
                want = first if bound is None or first[:2] <= bound[:2] else None
                got = verify._min_quad_by_count(vals, op, bound)
                assert (got[0] if got else None) == want, (s, op, bound)
                if got:
                    assert got[1] == op(vals[first[0]], vals[first[1]])


def test_bounded_count_holds_only_the_bound_pairs_values():
    # with a bound, only the values of the pairs up to it are counted, so
    # the count holds no table of all |S|^2 / 2 pair values
    rng = random.Random(2013)
    vals = sorted(rng.getrandbits(80) for _ in range(256))
    peaks = []
    for bound in ((0, 1, 2), None):
        tracemalloc.start()
        verify._min_quad_by_count(vals, operator.and_, bound)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] * 10 < peaks[1]


def _chain(rng, lattice) -> list:
    # a chain of 2 to 5 points: each one raises some coordinates of the last
    p = [rng.randrange(l) for l in lattice.lengths]
    chain = [tuple(p)]
    for _ in range(rng.randint(1, 4)):
        up = [i for i, l in enumerate(lattice.lengths) if p[i] < l - 1]
        if not up:
            break
        for i in rng.sample(up, rng.randint(1, len(up))):
            p[i] = rng.randint(p[i] + 1, lattice.lengths[i] - 1)
        chain.append(tuple(p))
    return chain


def test_triple_certificate_is_sound():
    # subfamilies of the power construction, which the certificate proves
    # free, with chains and random points added, greedy cancellative
    # families, and random families of B_12 to B_20, whose first triple is
    # often past the first anchor and whose differences pass the cap:
    # whatever it proves free has no triple, and two comparable members
    # leave it nothing to prove, since the lower one is on the wrong side
    # of their difference
    rng = random.Random(2018)
    shapes = [(2, n) for n in range(3, 9)] + [(3, 3), (3, 4), (4, 3), (5, 2), (3, 5)]
    outcomes = Counter()
    for trial in range(600):
        l, k = shapes[trial % len(shapes)]
        base = power_construction(l, k)
        lattice = base.lattice
        points = [p.coords for p in base.points if rng.random() < 0.8]
        randoms = [tuple(rng.randrange(l) for _ in range(k)) for _ in range(40)]
        if trial % 5 == 1:
            points += _chain(rng, lattice)
        elif trial % 5 == 2:
            points += randoms[:rng.randint(1, 3)]
        elif trial % 5 == 3:
            width = rng.choice((12, 16, 20))
            lattice = ChainProductLattice.boolean(width)
            points = [tuple(rng.randrange(2) for _ in range(width))
                      for _ in range(rng.randint(10, 24))]
        elif trial % 5 == 4:
            points = []
            for p in dict.fromkeys(randoms):
                if naive_is_cancellative(PointSet.from_coords(lattice, points + [p])):
                    points.append(p)
        s = PointSet.from_coords(lattice, list(dict.fromkeys(points)))
        free = _certified(s)
        comparable = any(all(map(operator.le, p.coords, q.coords))
                         for p in s.points for q in s.points if p != q)
        if comparable and s.size >= 3:
            assert free == [], s
        for op, naive_op in ((operator.and_, _meet), (operator.or_, _join)):
            triple = _first_triple(sorted(s.points, key=canonical_key), naive_op)
            outcomes[op in free, triple is None] += 1
    # proofs, and families without a triple that it leaves to the scan
    assert outcomes[True, True] > 150 and outcomes[False, True] > 60, outcomes
    assert outcomes[False, False] > 400, outcomes


def test_triple_certificate_spares_the_scans_of_constructions(monkeypatch):
    # the differences of the block family span |S| elements, those of
    # power(3, 8) 2^8 = 3.16 |S|: the certificate settles strongly
    # cancellative without a triple scan, up to the 4096 points of B_24
    scans = []
    search = verify._min_triple

    def spy(vals, op, bound=None):
        scans.append(op)
        return search(vals, op, bound)

    monkeypatch.setattr(verify, "_min_triple", spy)
    for s in [block_construction_bn(n) for n in range(4, 25, 2)] + [power_construction(3, 8)]:
        assert satisfies(s, "strongly_cancellative")
        assert find_violation(s, "strongly_cancellative") is None
        assert scans == [], s.lattice
    # the differences of power(4, 6) span 2^9 = 8 |S| elements, and those
    # of power(4, 8) 2^12 = 16 |S|: the certificate gives up, although both
    # are triple-free, and the scans prove them
    for s, rank in ((power_construction(4, 6), 9), (power_construction(4, 8), 12)):
        encode, _ = mask_codec(s.lattice)
        vals = [encode(p) for p in sorted(s.points, key=canonical_key)]
        basis: list = []
        for d in (vals[0] ^ b for b in vals):
            # reduce d by the basis, whose leading bits are distinct
            for e in basis:
                d = min(d, d ^ e)
            if d:
                basis = sorted(basis + [d], reverse=True)
        assert len(basis) == rank and 2 ** rank > 4 * len(vals)
        assert verify._triple_free(vals, (operator.and_, operator.or_)) == []
        scans.clear()
        assert satisfies(s, "strongly_cancellative") and len(scans) == 2


def test_early_meet_quad_bounds_the_join_quad_search(monkeypatch):
    # 1024 random points of B_40: the MeetQuad search finds a quad early,
    # and the JoinQuad search, which unbounded would run out of budget and
    # return its frontier, stops after that quad's first pair
    s = _random_boolean_family(40, random.Random(1).sample(range(1 << 40), 1024))
    calls = _spy_searches(monkeypatch)
    v = find_violation(s, "recovering")
    (_, _, quad), (_, bound, got) = calls[:2]
    assert v.kind == "MeetQuad" and bound == quad and got is None
    encode, _ = mask_codec(s.lattice)
    vals = [encode(p) for p in sorted(s.points, key=canonical_key)]
    monkeypatch.undo()
    assert verify._min_quad(vals, operator.or_)[1] is None

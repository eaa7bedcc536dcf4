"""Randomized differential test: the bit-mask verifiers against the naive
coordinate-tuple oracles, on chain products with chains of 1 to 7
elements."""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from latsets import (
    PROPERTIES,
    ChainProductLattice,
    PointSet,
    find_violation,
    pair_statistics,
    satisfies,
)

from oracles import (
    NAIVE_CHECKS,
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


@settings(derandomize=True, max_examples=500, deadline=None)
@given(families())
# two disjoint partners for the first pair: the earlier one is the witness
@example(PointSet.from_coords(ChainProductLattice((2, 4, 4)), [
    (0, 3, 0), (1, 0, 0), (1, 1, 2), (1, 3, 1), (1, 3, 2)]))
# {1,2},{3,4} and {1,3},{2,4} share meet and join: MeetQuad wins the tie
@example(PointSet.from_coords(ChainProductLattice.boolean(4), [
    (0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 1, 0), (1, 1, 0, 0)]))
def test_mask_verifiers_match_naive_oracles(s):
    for prop in PROPERTIES:
        assert satisfies(s, prop) == NAIVE_CHECKS[prop](s)
        assert find_violation(s, prop) == naive_find_violation(s, prop)
    if s.size:
        for operation in ("meet", "join"):
            stats = pair_statistics(s, operation)
            naive = naive_pair_multiplicity(s, operation)
            assert stats.multiplicity == naive
            assert stats.max_multiplicity == max(naive.values())

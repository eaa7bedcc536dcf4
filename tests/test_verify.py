import math
import random
import tracemalloc

import pytest

from latsets import (
    ChainProductLattice,
    Point,
    PointSet,
    Violation,
    anchored_entropy,
    block_construction_bn,
    canonical_key,
    diagonal_construction,
    find_violation,
    is_cancellative,
    is_recovering,
    is_strongly_cancellative,
    normalize_property,
    pair_statistics,
    power_construction,
    satisfies,
    subset_encode,
)

from oracles import NAIVE_CHECKS, random_point_set


def bset(n, *subsets):
    lat = ChainProductLattice.boolean(n)
    return PointSet(lat, tuple(subset_encode(s, n) for s in subsets))


def test_is_cancellative_examples():
    assert is_cancellative(bset(2, set(), {1}))
    assert not is_cancellative(bset(2, set(), {1}, {2}))
    assert is_cancellative(block_construction_bn(4))


def test_is_strongly_cancellative_examples():
    assert not is_strongly_cancellative(bset(2, {1}, {2}, {1, 2}))
    assert is_strongly_cancellative(diagonal_construction(3, 3))
    for n in range(2, 13):
        assert is_strongly_cancellative(block_construction_bn(n))


def test_is_recovering_examples():
    assert is_recovering(bset(3, {1}, {2, 3}))
    assert is_recovering(PointSet(ChainProductLattice.boolean(2), ()))
    assert not is_recovering(block_construction_bn(4))
    assert is_recovering(diagonal_construction(3, 3))


def test_tiny_sets_satisfy_everything():
    lat = ChainProductLattice((3, 3))
    for coords in [[], [(0, 0)], [(0, 0), (2, 2)], [(0, 0), (0, 1)]]:
        s = PointSet.from_coords(lat, coords)
        for prop in ("cancellative", "strongly_cancellative", "recovering"):
            assert satisfies(s, prop)


def test_find_violation_triple():
    v = find_violation(bset(2, set(), {1}, {2}), "strongly_cancellative")
    assert v.kind == "MeetTriple"
    assert [w.coords for w in v.witnesses] == [(0, 0), (0, 1), (1, 0)]
    assert v.colliding_value.coords == (0, 0)


def test_find_violation_quad_block4():
    v = find_violation(block_construction_bn(4), "recovering")
    assert v.kind == "MeetQuad"
    # canonical quad: first pair ({2,4},{1,3}), then ({2,3},{1,4})
    assert [w.coords for w in v.witnesses] == [
        (0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1)]
    assert v.colliding_value.coords == (0, 0, 0, 0)
    assert v.to_json_dict() == {
        "kind": "MeetQuad",
        "witnesses": [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]],
        "value": [0, 0, 0, 0],
    }


def _indices(s, v):
    pts = sorted(s.points, key=canonical_key)
    return tuple(pts.index(w) for w in v.witnesses)


# benchmark-scale witnesses; the expected values come from the earlier
# per-pair-index scan
def test_find_violation_block_bn20():
    s = block_construction_bn(20)
    assert find_violation(s, "strongly_cancellative") is None
    v = find_violation(s, "recovering")
    tail = [(0, 1, 0, 1), (1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1)]
    assert v == Violation("MeetQuad", tuple(Point((0, 1) * 8 + t) for t in tail),
                          Point((0, 1) * 8 + (0, 0, 0, 0)))
    assert _indices(s, v) == (0, 3, 1, 2)


def test_find_violation_memory():
    # the quad search keeps a bitset over members per mask bit, not a
    # count per pair value (7.2 MB by counting)
    s = block_construction_bn(20)
    tracemalloc.start()
    try:
        find_violation(s, "recovering")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000


def test_find_violation_power_4_8():
    s = power_construction(4, 8)
    v = find_violation(s, "recovering")
    tail = [(0, 3, 0, 3), (1, 2, 1, 2), (0, 3, 1, 2), (1, 2, 0, 3)]
    assert v == Violation("MeetQuad", tuple(Point((0, 3, 0, 3) + t) for t in tail),
                          Point((0, 3, 0, 3, 0, 2, 0, 2)))
    assert _indices(s, v) == (0, 5, 1, 4)


def test_find_violation_absent():
    assert find_violation(diagonal_construction(3, 3), "recovering") is None


def test_find_violation_property_scoping():
    # join-only failure: invisible to the cancellative check
    s = bset(2, {1}, {2}, {1, 2})
    assert find_violation(s, "cancellative") is None
    v = find_violation(s, "strongly_cancellative")
    assert v.kind == "JoinTriple"
    assert v.colliding_value.coords == (1, 1)


def test_find_violation_matches_verifier_on_random_sets():
    rng = random.Random(42)
    for _ in range(150):
        s = random_point_set(rng)
        for prop in ("cancellative", "strongly_cancellative", "recovering"):
            assert (find_violation(s, prop) is None) == satisfies(s, prop)


def test_violation_witnesses_actually_violate():
    rng = random.Random(43)
    checked = 0
    while checked < 60:
        s = random_point_set(rng, max_size=8)
        v = find_violation(s, "recovering")
        if v is None:
            continue
        checked += 1
        w = v.witnesses
        if v.kind in ("MeetTriple", "MeetQuad"):
            op = lambda a, b: a & b
        else:
            op = lambda a, b: a | b
        if v.kind.endswith("Triple"):
            assert op(w[0], w[1]) == op(w[0], w[2]) == v.colliding_value
        else:
            assert op(w[0], w[1]) == op(w[2], w[3]) == v.colliding_value
        assert len(set(w)) == len(w)


_P = [Point((0, i)) for i in range(4)]


@pytest.mark.parametrize("kind, witnesses, message", [
    ("MeetPair", _P[:2], "unknown violation kind"),
    ("MeetTriple", _P, "MeetTriple needs 3 witnesses, got 4"),
    ("JoinQuad", _P[:3], "JoinQuad needs 4 witnesses, got 3"),
    ("MeetQuad", (_P[0], _P[1], _P[2], _P[0]), "witnesses must be distinct"),
])
def test_violation_rejects_malformed_witnesses(kind, witnesses, message):
    with pytest.raises(ValueError, match=message):
        Violation(kind, tuple(witnesses), _P[0])


def test_verifiers_match_naive_oracles():
    rng = random.Random(4242)
    fast = {
        "cancellative": is_cancellative,
        "strongly_cancellative": is_strongly_cancellative,
        "recovering": is_recovering,
    }
    for _ in range(200):
        s = random_point_set(rng)
        for prop, check in fast.items():
            assert check(s) == NAIVE_CHECKS[prop](s), (prop, s.points)


def test_property_implications():
    rng = random.Random(99)
    for _ in range(200):
        s = random_point_set(rng)
        if is_recovering(s):
            assert is_strongly_cancellative(s)
        if is_strongly_cancellative(s):
            assert is_cancellative(s)


def test_verifier_invariant_under_permutation():
    rng = random.Random(5)
    for _ in range(50):
        s = random_point_set(rng)
        perm = list(s.points)
        rng.shuffle(perm)
        t = PointSet(s.lattice, tuple(perm))
        for prop in ("cancellative", "strongly_cancellative", "recovering"):
            assert satisfies(s, prop) == satisfies(t, prop)
            vs, vt = find_violation(s, prop), find_violation(t, prop)
            assert (vs is None) == (vt is None)
            if vs is not None:
                assert vs == vt  # canonical witness ignores input order


def test_normalize_property():
    assert normalize_property("strongly-cancellative") == "strongly_cancellative"
    assert normalize_property("RECOVERING") == "recovering"
    with pytest.raises(ValueError):
        normalize_property("weird")


def test_pair_statistics_examples():
    stats = pair_statistics(bset(2, {1}, {2}), "meet")
    assert {p.coords: c for p, c in stats.multiplicity.items()} == {
        (0, 0): 2, (1, 0): 1, (0, 1): 1}
    assert stats.max_multiplicity == 2
    assert sum(stats.multiplicity.values()) == 4

    singleton = bset(3, {1, 2})
    assert pair_statistics(singleton, "meet").max_multiplicity == 1

    with pytest.raises(ValueError):
        pair_statistics(PointSet(ChainProductLattice.boolean(2), ()), "meet")
    with pytest.raises(ValueError):
        pair_statistics(singleton, "intersect")


def test_pair_statistics_counts_sum_and_distribution():
    rng = random.Random(17)
    for _ in range(60):
        s = random_point_set(rng, max_size=6)
        if s.size == 0:
            continue
        for op in ("meet", "join"):
            stats = pair_statistics(s, op)
            assert sum(stats.multiplicity.values()) == s.size**2
            probs = stats.pair_distribution.probabilities
            assert probs == {
                p: c / s.size**2 for p, c in stats.multiplicity.items()}


def test_recovering_sets_have_max_multiplicity_3():
    from latsets import SearchConfig, exact_max

    families = [diagonal_construction(l, l) for l in (2, 3, 4, 5)]
    families += [
        exact_max(SearchConfig(ChainProductLattice.boolean(n), "recovering")).best_set
        for n in (2, 3, 4, 5)
    ]
    for s in families:
        assert is_recovering(s)
        for op in ("meet", "join"):
            assert pair_statistics(s, op).max_multiplicity <= 3


def test_anchored_entropy_examples():
    b4 = block_construction_bn(4)
    v = subset_encode({1, 3}, 4)
    assert anchored_entropy(b4, v, "meet") == pytest.approx(math.log2(3), abs=1e-12)

    two = bset(3, {1}, {2})
    assert anchored_entropy(two, subset_encode({1}, 3), "meet") == 0.0

    for n in (2, 3, 4, 5, 6):
        s = block_construction_bn(n)
        expected = math.log2(s.size - 1)
        for anchor in s:
            for op in ("meet", "join"):
                assert anchored_entropy(s, anchor, op) == pytest.approx(expected, abs=1e-9)


def test_anchored_entropy_errors():
    s = bset(2, {1}, {2})
    with pytest.raises(ValueError, match="not in the set"):
        anchored_entropy(s, Point((1, 1)), "meet")
    with pytest.raises(ValueError, match="at least 2"):
        anchored_entropy(bset(2, {1}), subset_encode({1}, 2), "meet")

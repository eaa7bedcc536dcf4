import random

import pytest

from latsets import (
    ChainProductLattice,
    Point,
    PointSet,
    enumerate_lattice,
    format_lattice_spec,
    is_antichain,
    join,
    leq,
    mask_to_point,
    meet,
    parse_lattice_spec,
    point_to_mask,
    rank,
    subset_decode,
    subset_encode,
)
from latsets.lattice import enumerate_masks, mask_codec


def P(*coords):
    return Point(tuple(coords))


def test_meet_examples():
    assert meet(P(1, 0, 2), P(0, 2, 2)) == P(0, 0, 2)
    v = P(3, 1, 4)
    assert meet(v, v) == v
    # on B_4, {1,3} meet {1,4} is {1}
    a, b = subset_encode({1, 3}, 4), subset_encode({1, 4}, 4)
    assert subset_decode(meet(a, b)) == (1,)


def test_join_examples():
    assert join(P(1, 0, 2), P(0, 2, 2)) == P(1, 2, 2)
    v = P(0, 5)
    assert join(v, v) == v
    a, b = subset_encode({1, 3}, 4), subset_encode({2, 4}, 4)
    assert subset_decode(join(a, b)) == (1, 2, 3, 4)


def test_leq_examples():
    assert leq(P(0, 1), P(1, 1))
    assert not leq(P(0, 2), P(1, 1))
    assert leq(P(2, 2), P(2, 2))


def test_rank_examples():
    b4 = ChainProductLattice.boolean(4)
    assert rank(b4.bottom()) == 0
    assert rank(b4.top()) == 4
    assert rank(P(1, 0, 2)) == 3


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        meet(P(1, 0), P(1, 0, 0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        join(P(1,), P(1, 0))
    with pytest.raises(ValueError, match="dimension mismatch"):
        leq(P(1,), P(1, 0))


def test_enumerate_order_and_count():
    d22 = enumerate_lattice(ChainProductLattice((2, 2)))
    assert [p.coords for p in d22] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    d3 = enumerate_lattice(ChainProductLattice((3,)))
    assert [p.coords for p in d3] == [(0,), (1,), (2,)]
    assert len(enumerate_lattice(ChainProductLattice((3, 4)))) == 12


def test_enumerate_cap():
    big = ChainProductLattice((2,) * 30)
    with pytest.raises(ValueError, match="too large"):
        enumerate_lattice(big)
    with pytest.raises(ValueError, match="too large"):
        enumerate_masks(big)
    assert len(enumerate_lattice(ChainProductLattice((2, 2)), cap=4)) == 4
    with pytest.raises(ValueError, match="too large"):
        enumerate_lattice(ChainProductLattice((2, 2)), cap=3)


def test_subset_codecs():
    assert subset_encode({1, 3}, 4) == P(1, 0, 1, 0)
    assert subset_encode(set(), 4) == P(0, 0, 0, 0)
    # round trip over every subset of {1..4}
    for mask in range(16):
        subset = {i + 1 for i in range(4) if mask >> i & 1}
        assert set(subset_decode(subset_encode(subset, 4))) == subset
    with pytest.raises(ValueError):
        subset_encode({0}, 4)
    with pytest.raises(ValueError):
        subset_encode({5}, 4)
    with pytest.raises(ValueError, match="True"):
        subset_encode([True], 2)  # a JSON true is not the element 1
    with pytest.raises(ValueError, match="duplicate"):
        subset_encode([2, 2], 3)
    with pytest.raises(ValueError, match="n >= 1"):
        subset_encode([], 0)
    with pytest.raises(ValueError, match="Boolean"):
        subset_decode(P(0, 2))


def test_masks_agree_with_coords():
    # the packed encoding and the coordinate encoding agree on meet/join
    rng = random.Random(7)
    n = 10
    points = enumerate_lattice(ChainProductLattice.boolean(n))
    for _ in range(300):
        a, b = rng.choice(points), rng.choice(points)
        ma, mb = point_to_mask(a), point_to_mask(b)
        assert mask_to_point(ma & mb, n) == meet(a, b)
        assert mask_to_point(ma | mb, n) == join(a, b)
        assert mask_to_point(ma, n) == a
    with pytest.raises(ValueError):
        point_to_mask(P(0, 2))
    with pytest.raises(ValueError):
        mask_to_point(1 << n, n)


def test_mask_codec_embeds_chain_products():
    # the thermometer code is an order and lattice embedding into bit masks
    rng = random.Random(17)
    for _ in range(60):
        lengths = tuple(rng.randint(1, 7) for _ in range(rng.randint(1, 4)))
        lattice = ChainProductLattice(lengths)
        encode, decode = mask_codec(lattice)
        points = enumerate_lattice(lattice)
        assert len({encode(p) for p in points}) == len(points)
        assert enumerate_masks(lattice) == [encode(p) for p in points]
        for p in points:  # decode builds its Point without re-validating
            q = decode(encode(p))
            assert q == p and hash(q) == hash(p) and type(q) is Point
        for _ in range(40):
            a, b = rng.choice(points), rng.choice(points)
            ma, mb = encode(a), encode(b)
            assert decode(ma) == a
            assert decode(ma & mb) == meet(a, b)
            assert decode(ma | mb) == join(a, b)
            assert (ma & mb == ma) == leq(a, b)
    for n in (1, 3, 8):
        encode, _ = mask_codec(ChainProductLattice.boolean(n))
        for p in enumerate_lattice(ChainProductLattice.boolean(n)):
            assert encode(p) == point_to_mask(p)


def test_lattice_laws_random():
    rng = random.Random(11)
    lattices = [
        ChainProductLattice.boolean(5),
        ChainProductLattice((3, 4, 2)),
        ChainProductLattice((6,)),
    ]
    for lattice in lattices:
        points = enumerate_lattice(lattice)
        for _ in range(200):
            a, b, c = (rng.choice(points) for _ in range(3))
            assert meet(a, b) == meet(b, a)
            assert join(a, b) == join(b, a)
            assert meet(a, meet(b, c)) == meet(meet(a, b), c)
            assert join(a, join(b, c)) == join(join(a, b), c)
            assert meet(a, a) == a and join(a, a) == a
            assert meet(a, join(a, b)) == a  # absorption
            assert join(a, meet(a, b)) == a
            assert leq(a, b) == (meet(a, b) == a) == (join(a, b) == b)


def test_boolean_ops_match_set_ops():
    rng = random.Random(13)
    n = 6
    for _ in range(200):
        sa = {e for e in range(1, n + 1) if rng.random() < 0.5}
        sb = {e for e in range(1, n + 1) if rng.random() < 0.5}
        a, b = subset_encode(sa, n), subset_encode(sb, n)
        assert set(subset_decode(meet(a, b))) == (sa & sb)
        assert set(subset_decode(join(a, b))) == (sa | sb)


def test_lattice_validation():
    with pytest.raises(ValueError):
        ChainProductLattice(())
    with pytest.raises(ValueError):
        ChainProductLattice((2, 0))
    with pytest.raises(ValueError, match="True"):
        ChainProductLattice((True, 3))  # not a 1-element chain
    lat = ChainProductLattice((2, 3))
    assert lat.size == 6 and lat.k == 2 and not lat.is_boolean
    assert ChainProductLattice.boolean(3).is_boolean
    assert lat.contains(P(1, 2))
    assert not lat.contains(P(2, 0))
    assert not lat.contains(P(1,))
    with pytest.raises(ValueError):
        lat.validate_point(P(0, 3))


def test_point_validation():
    with pytest.raises(ValueError):
        Point((0, -1))
    with pytest.raises(ValueError):
        Point((0.5, 1))
    with pytest.raises(ValueError, match="True"):
        Point((True, False))  # JSON true/false are not the integers 1/0


def test_point_set_validation():
    lat = ChainProductLattice((2, 2))
    with pytest.raises(ValueError, match="duplicate"):
        PointSet.from_coords(lat, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        PointSet.from_coords(lat, [(0, 2)])
    s = PointSet.from_coords(lat, [(1, 0), (0, 1)])
    assert s.size == 2 and P(1, 0) in s
    assert [p.coords for p in s.canonical()] == [(0, 1), (1, 0)]


def test_is_antichain():
    lat = ChainProductLattice((3, 3))
    assert is_antichain(PointSet.from_coords(lat, [(0, 2), (1, 1), (2, 0)]))
    assert not is_antichain(PointSet.from_coords(lat, [(0, 0), (1, 1)]))
    assert not is_antichain(PointSet.from_coords(lat, [(1, 1), (0, 0)]))
    assert is_antichain(PointSet.from_coords(lat, [(1, 1)]))
    assert is_antichain(PointSet.from_coords(lat, []))


def test_lattice_spec_strings():
    assert parse_lattice_spec("b:4") == ChainProductLattice.boolean(4)
    assert parse_lattice_spec("d:3,5") == ChainProductLattice((3, 5))
    assert parse_lattice_spec("d:3^4") == ChainProductLattice((3, 3, 3, 3))
    assert parse_lattice_spec("  B:2 ") == ChainProductLattice((2, 2))
    assert format_lattice_spec(ChainProductLattice((2, 2, 2))) == "b:3"
    assert format_lattice_spec(ChainProductLattice((3, 5))) == "d:3,5"
    for bad in ["x:3", "b:", "b:x", "d:3^", "d:", "d:3,,4", "4", "b:0", "d:0",
                # int() reads each of these as a number
                "b:1_0", "b:\uff15", "d:3,+4", "b: 4", "d:3^ 2"]:
        with pytest.raises(ValueError):
            parse_lattice_spec(bad)
    # round trip
    for spec in ["b:1", "b:7", "d:3,4,5", "d:9,9"]:
        lat = parse_lattice_spec(spec)
        assert parse_lattice_spec(format_lattice_spec(lat)) == lat

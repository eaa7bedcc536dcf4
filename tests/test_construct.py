import pytest

from latsets import (
    ChainProductLattice,
    PointSet,
    block_construction_bn,
    diagonal_construction,
    is_antichain,
    is_recovering,
    is_strongly_cancellative,
    power_construction,
    product_composition,
    subset_decode,
)


def test_block_construction_small():
    b2 = block_construction_bn(2)
    assert sorted(subset_decode(p) for p in b2) == [(1,), (2,)]
    b4 = block_construction_bn(4)
    assert sorted(subset_decode(p) for p in b4) == [(1, 3), (1, 4), (2, 3), (2, 4)]
    b5 = block_construction_bn(5)
    assert b5.size == 4
    # element 5 unused: same subsets as n=4
    assert sorted(subset_decode(p) for p in b5) == [(1, 3), (1, 4), (2, 3), (2, 4)]


def test_block_construction_sizes_and_property():
    for n in range(2, 15):
        s = block_construction_bn(n)
        assert s.size == 2 ** (n // 2)
        assert is_strongly_cancellative(s)
        assert s.points == s.canonical().points  # canonical output order
    with pytest.raises(ValueError):
        block_construction_bn(1)


def test_block_construction_not_recovering_from_4():
    # the n=4 colliding quad embeds upward, separating the two properties
    for n in range(4, 11):
        assert not is_recovering(block_construction_bn(n))
    for n in (2, 3):
        assert is_recovering(block_construction_bn(n))


def test_diagonal_examples():
    assert [p.coords for p in diagonal_construction(3, 3)] == [(0, 2), (1, 1), (2, 0)]
    assert [p.coords for p in diagonal_construction(2, 5)] == [(0, 1), (1, 0)]
    assert [p.coords for p in diagonal_construction(1, 7)] == [(0, 0)]
    with pytest.raises(ValueError):
        diagonal_construction(0, 3)


def test_diagonal_properties():
    for l1 in range(1, 7):
        for l2 in range(1, 7):
            s = diagonal_construction(l1, l2)
            assert s.size == min(l1, l2)
            assert s.lattice == ChainProductLattice((l1, l2))
            assert is_antichain(s)
            assert is_strongly_cancellative(s)


def test_product_composition_examples():
    base = diagonal_construction(3, 3)
    c5 = product_composition(base, 5)
    assert c5.size == 9
    assert c5.lattice == ChainProductLattice((3,) * 5)
    assert all(p.coords[4] == 0 for p in c5)
    assert {(p.coords[:2], p.coords[2:4]) for p in c5} == {
        (a.coords, b.coords) for a in base for b in base}
    assert is_strongly_cancellative(c5)

    # identity composition
    c2 = product_composition(base, 2)
    assert c2.points == base.points

    # composing the 2-chain diagonal reproduces the pair-block family
    two = diagonal_construction(2, 2)
    for n in (4, 5, 6, 7):
        assert product_composition(two, n).points == block_construction_bn(n).points


def test_product_composition_validation():
    base = diagonal_construction(3, 3)
    with pytest.raises(ValueError, match="below the base"):
        product_composition(base, 1)
    with pytest.raises(ValueError, match="chain power"):
        product_composition(diagonal_construction(2, 3), 4)
    lat = ChainProductLattice((3, 3))
    comparable = PointSet.from_coords(lat, [(0, 0), (1, 1)])
    with pytest.raises(ValueError, match="antichain"):
        product_composition(comparable, 4)
    # strongly cancellative antichain check needs at least 3 points to bite
    not_sc = PointSet.from_coords(
        ChainProductLattice((3, 3, 3)), [(0, 0, 2), (0, 2, 0), (2, 0, 0), (1, 1, 1)])
    assert is_antichain(not_sc) and not is_strongly_cancellative(not_sc)
    with pytest.raises(ValueError, match="strongly cancellative"):
        product_composition(not_sc, 6)


def test_power_construction_sizes():
    assert power_construction(3, 4).size == 9
    assert power_construction(2, 4).size == 4
    assert power_construction(5, 3).size == 5
    for l in range(1, 7):
        for k in range(2, 7):
            s = power_construction(l, k)
            assert s.size == l ** (k // 2)
            assert s.lattice == ChainProductLattice((l,) * k)
            assert is_strongly_cancellative(s)
    with pytest.raises(ValueError):
        power_construction(3, 1)
    with pytest.raises(ValueError):
        power_construction(0, 4)


def test_constructions_refuse_families_above_the_cap():
    # each family would have just over 2^24 points; none may be built
    with pytest.raises(ValueError, match="too large"):
        block_construction_bn(50)  # 2^25
    with pytest.raises(ValueError, match="too large"):
        power_construction(10, 16)  # 10^8
    with pytest.raises(ValueError, match="too large"):
        diagonal_construction(2**25, 2**25)
    with pytest.raises(ValueError, match="too large"):
        product_composition(diagonal_construction(2, 2), 50)  # 2^25

import math

import pytest

from latsets import (
    BoundReport,
    ChainProductLattice,
    PointSet,
    applicable_bounds,
    block_construction_bn,
    bound_d2,
    bound_dlk,
    bound_recovering_bn,
    bound_sc_bn,
    coordinate_entropy_term,
    binary_entropy,
    diagonal_construction,
    empirical_recovering_entropy,
    max_coordinate_entropy_term,
    parse_lattice_spec,
    recovering_case_constants,
    subset_encode,
)


def test_case_constants():
    cc = recovering_case_constants()
    assert cc.case1 == pytest.approx(1.7349558, abs=1e-6)
    assert cc.case2 == pytest.approx(1.7564781, abs=1e-6)
    assert cc.exponent == max(cc.case1, cc.case2) / 4
    assert cc.exponent == pytest.approx(0.43911953, abs=1e-6)
    assert cc.exponent <= 0.4392


def test_coordinate_entropy_term_values():
    assert coordinate_entropy_term(0.5) == pytest.approx(2 * binary_entropy(0.25), abs=1e-12)
    assert coordinate_entropy_term(0.5) == pytest.approx(1.6225562, abs=1e-6)
    assert coordinate_entropy_term(0.0) == 0.0
    assert coordinate_entropy_term(1.0) == 0.0
    with pytest.raises(ValueError):
        coordinate_entropy_term(1.5)


def test_max_coordinate_entropy_term():
    argmax, maximum = max_coordinate_entropy_term()
    assert coordinate_entropy_term(0.5) - 1e-9 <= maximum <= 1.7564781
    # independent oracle: plain grid scan at 1e-6 steps over the half interval
    # (the term is symmetric around 1/2)
    steps = 500_000
    grid_best = max(coordinate_entropy_term(i / 1_000_000) for i in range(steps, -1, -1))
    assert maximum >= grid_best - 1e-9
    assert abs(maximum - grid_best) <= 1e-6
    assert 0.0 <= argmax <= 1.0
    assert maximum == pytest.approx(coordinate_entropy_term(argmax), abs=1e-12)


def test_max_coordinate_entropy_term_is_the_closed_form():
    assert max_coordinate_entropy_term() == (0.5, coordinate_entropy_term(0.5))


def test_max_coordinate_entropy_term_proof_premises():
    # f(s) = h(s^2) is concave on [1/3, 1): negative second differences
    steps = 10_000
    lo, hi = 1.0 / 3.0, 1.0
    f = [binary_entropy(s * s) for s in (lo + (hi - lo) * i / steps for i in range(steps))]
    assert all(f[i - 1] - 2 * f[i] + f[i + 1] < 0 for i in range(1, steps - 1))
    # outside [1/3, 2/3] one term is below h(1/9) and the other at most 1
    assert binary_entropy(1 / 9) + 1 < 2 * binary_entropy(0.25)


def test_bound_recovering_bn():
    assert bound_recovering_bn(0) == pytest.approx(math.sqrt(3), abs=1e-12)
    assert bound_recovering_bn(10) == pytest.approx(36.37, abs=0.01)
    for n in range(0, 31):
        squared = bound_recovering_bn(n) ** 2
        assert squared == pytest.approx(3 * 2 ** (0.8784 * n), rel=1e-6)
    with pytest.raises(ValueError):
        bound_recovering_bn(-1)


def test_bound_sc_bn():
    assert bound_sc_bn(4) == 4
    assert bound_sc_bn(5) == 4
    assert bound_sc_bn(7) == 8
    with pytest.raises(ValueError):
        bound_sc_bn(1)


def test_bound_d2():
    assert bound_d2(3, 5) == 3
    assert bound_d2(4, 4) == 4
    # with a chain of length 1 the lattice is a chain, where any two points
    # form a strongly cancellative family: the bound does not apply
    with pytest.raises(ValueError):
        bound_d2(1, 9)
    with pytest.raises(ValueError):
        bound_d2(0, 3)


def test_bound_dlk():
    assert bound_dlk(3, 4) == pytest.approx(41.0, abs=1e-9)
    assert bound_dlk(2, 4) == pytest.approx(19.0, abs=1e-9)
    for l in range(1, 7):
        for k in range(2, 9):
            assert l ** (k // 2) <= bound_dlk(l, k)
    with pytest.raises(ValueError):
        bound_dlk(3, 0)


def test_bound_chain_consistency():
    # construction size equals the B_n bound, which stays under the chain
    # power bound specialized to l = 2
    for n in range(2, 61):
        size = 2 ** (n // 2)
        assert size == bound_sc_bn(n)
        assert size <= bound_dlk(2, n)


def test_bound_report_validation_and_tightness():
    r = BoundReport("b:7", "strongly_cancellative", 8, 8.0, "2^floor(n/2)")
    assert r.tight is True
    r = BoundReport("d:3^4", "strongly_cancellative", 9, 41.0, "(2l)^(k/2)+k(l-1)/2+1")
    assert r.tight is False
    r = BoundReport("b:10", "recovering", None, 36.4, "sqrt(3)*2^(0.4392n)")
    assert r.tight is None
    with pytest.raises(ValueError, match="exceeds"):
        BoundReport("b:4", "strongly_cancellative", 5, 4.0, "x")
    assert r.to_json_dict()["constructionSize"] is None


def test_applicable_bounds():
    rows = applicable_bounds(parse_lattice_spec("b:7"), "strongly-cancellative")
    names = {r.bound_name: r for r in rows}
    assert names["2^floor(n/2)"].upper_bound == 8.0
    assert names["2^floor(n/2)"].construction_size == 8
    assert names["2^floor(n/2)"].tight
    assert "(2l)^(k/2)+k(l-1)/2+1" in names

    rows = applicable_bounds(parse_lattice_spec("d:3,5"), "strongly-cancellative")
    assert len(rows) == 1 and rows[0].upper_bound == 3.0 and rows[0].tight

    rows = applicable_bounds(parse_lattice_spec("d:3^4"), "strongly-cancellative")
    assert len(rows) == 1
    assert rows[0].construction_size == 9 and rows[0].upper_bound == pytest.approx(41.0)

    rows = applicable_bounds(parse_lattice_spec("b:10"), "recovering")
    assert len(rows) == 1 and rows[0].construction_size is None
    assert rows[0].upper_bound == pytest.approx(36.365, abs=0.01)

    assert applicable_bounds(parse_lattice_spec("b:10"), "cancellative") == []
    assert applicable_bounds(parse_lattice_spec("d:3,4,5"), "recovering") == []
    assert applicable_bounds(parse_lattice_spec("d:5,1"), "strongly-cancellative") == []


def test_empirical_recovering_entropy_example():
    lat = ChainProductLattice.boolean(2)
    s = PointSet(lat, (subset_encode({1}, 2), subset_encode({2}, 2)))
    sandwich = empirical_recovering_entropy(s)
    assert sandwich.h_meet == pytest.approx(1.5, abs=1e-12)
    assert sandwich.h_join == pytest.approx(1.5, abs=1e-12)
    assert sandwich.lower_bound == pytest.approx(math.log2(4 / 3), abs=1e-12)
    assert sandwich.marginal_sum_meet == pytest.approx(2 * binary_entropy(0.25), abs=1e-12)
    assert sandwich.lower_bound <= sandwich.h_meet <= sandwich.marginal_sum_meet + 1e-9
    assert sandwich.lower_bound <= sandwich.h_join <= sandwich.marginal_sum_join + 1e-9


def test_empirical_marginals_match_membership_formula():
    # on B_n the meet marginal sum is sum_t h(P(t)^2) and the join marginal
    # sum is sum_t h((1-P(t))^2), with P(t) the fraction of members containing t
    lat = ChainProductLattice.boolean(3)
    s = PointSet(lat, (
        subset_encode({1}, 3), subset_encode({2, 3}, 3)))
    sandwich = empirical_recovering_entropy(s)
    n, m = 3, s.size
    p = [sum(pt.coords[t] for pt in s) / m for t in range(n)]
    meet_formula = math.fsum(binary_entropy(x * x) for x in p)
    join_formula = math.fsum(binary_entropy((1 - x) * (1 - x)) for x in p)
    assert sandwich.marginal_sum_meet == pytest.approx(meet_formula, abs=1e-12)
    assert sandwich.marginal_sum_join == pytest.approx(join_formula, abs=1e-12)


def test_empirical_recovering_entropy_diagonals():
    for l in (2, 3, 4):
        sandwich = empirical_recovering_entropy(diagonal_construction(l, l))
        assert sandwich.lower_bound <= sandwich.h_meet <= sandwich.marginal_sum_meet + 1e-9
        assert sandwich.lower_bound <= sandwich.h_join <= sandwich.marginal_sum_join + 1e-9


def test_empirical_recovering_entropy_search_found():
    from latsets import ChainProductLattice, SearchConfig, exact_max

    for n in (2, 3, 4, 5):
        found = exact_max(
            SearchConfig(ChainProductLattice.boolean(n), "recovering")).best_set
        sandwich = empirical_recovering_entropy(found)
        assert sandwich.lower_bound <= sandwich.h_meet <= sandwich.marginal_sum_meet + 1e-9
        assert sandwich.lower_bound <= sandwich.h_join <= sandwich.marginal_sum_join + 1e-9


def test_empirical_recovering_entropy_errors():
    with pytest.raises(ValueError, match="not recovering"):
        empirical_recovering_entropy(block_construction_bn(4))
    with pytest.raises(ValueError, match="at least 2"):
        empirical_recovering_entropy(diagonal_construction(1, 1))

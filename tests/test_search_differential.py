"""Randomized differential test: exact_max against the exhaustive oracle on
small random lattices, with random valid seeds and node budgets."""

from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from latsets import (
    ChainProductLattice,
    PointSet,
    SearchConfig,
    enumerate_lattice,
    exact_max,
    exhaustive_max,
    satisfies,
)

PROPERTIES = ("cancellative", "strongly_cancellative", "recovering")


@lru_cache(maxsize=None)
def oracle_size(lengths: tuple, prop: str) -> int:
    return exhaustive_max(ChainProductLattice(lengths), prop).best_size


@st.composite
def lattices(draw, max_points: int = 12):
    lengths = []
    size = 1
    for _ in range(draw(st.integers(1, 4))):
        length = draw(st.integers(1, 4))
        if size * length > max_points:
            break
        lengths.append(length)
        size *= length
    return ChainProductLattice(tuple(lengths))


@st.composite
def cases(draw):
    lattice = draw(lattices())
    prop = draw(st.sampled_from(PROPERTIES))
    points = enumerate_lattice(lattice)
    # a valid seed: keep each drawn point that preserves the property
    seed: list = []
    for i in draw(st.lists(st.integers(0, len(points) - 1), unique=True)):
        if satisfies(PointSet(lattice, tuple(seed + [points[i]])), prop):
            seed.append(points[i])
    budget = draw(st.one_of(st.none(), st.integers(1, 60)))
    return lattice, prop, PointSet(lattice, tuple(seed)), budget


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cases())
def test_exact_matches_exhaustive(case):
    lattice, prop, seed, budget = case
    result = exact_max(SearchConfig(lattice, prop, seed_set=seed, node_budget=budget))
    assert satisfies(result.best_set, prop)
    assert result.best_size == result.best_set.size >= seed.size
    if result.proven_optimal:
        assert budget is None or result.nodes_explored < budget
        assert result.best_size == oracle_size(lattice.lengths, prop)
        # the seed never changes the canonical witness
        assert result == exact_max(SearchConfig(lattice, prop))
    else:
        assert result.nodes_explored == budget
        assert result.best_size <= oracle_size(lattice.lengths, prop)

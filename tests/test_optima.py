"""Exact search against pinned optima and against exhaustive enumeration.

Both tests check the witness as well as the size, so an unsound pruning
rule (one that cuts a branch holding a maximum family) fails them even
where another family of the same size survives elsewhere in the tree.
"""

import itertools
import math
import os
import random

import pytest

import latsets.search
from latsets import (
    ChainProductLattice,
    PointSet,
    SearchConfig,
    applicable_bounds,
    enumerate_lattice,
    exact_max,
    parse_lattice_spec,
)

from oracles import NAIVE_CHECKS, random_lattice

SC = "strongly_cancellative"
REC = "recovering"
CANC = "cancellative"

# (lattice, property): (optimum, canonical witness as point indices in
# canonical order), from completed runs of the earlier branch-and-bound
# search, which pruned only by the count of remaining points.  The b:7
# rows come from the Russian-doll search without symmetry pruning:
# strongly cancellative before it stopped at the bounds, recovering and
# cancellative with candidate lists (7 s and 29 s there).  b:8 strongly
# cancellative comes from the search with symmetry pruning and matches a
# run without it (27 s), as do the d:2,2,3,2 and d:2,2,3,3 rows.  The
# d:3^4 rows come from the search that kept each node's sorted images as
# lists, before they became bitsets.  d:4^4
# strongly cancellative and the d:5^3 rows, here and in SLOW_OPTIMA, come
# from the search that tested candidates one by one (13.6 s, 10.4 s and
# 8.1 s), and the bit-parallel search finds the same witnesses.  b:8
# cancellative, b:9 and d:3^5 strongly cancellative come from the
# bit-parallel search, the first with full exclusion filters (38 s on one
# core), the other two with early-stopping ones (75 264 and 1 914 872
# nodes, 1.0 s and 4.6 s).  With the member filter each of them takes
# under a second.
OPTIMA = {
    ("b:2", CANC): (3, (1, 2, 3)),
    ("b:2", SC): (2, (0, 1)),
    ("b:2", REC): (2, (0, 1)),
    ("b:3", CANC): (4, (3, 5, 6, 7)),
    ("b:3", SC): (2, (0, 1)),
    ("b:3", REC): (2, (0, 1)),
    ("b:4", CANC): (5, (3, 5, 10, 12, 15)),
    ("b:4", SC): (4, (3, 5, 10, 12)),
    ("b:4", REC): (3, (1, 6, 11)),
    ("b:5", CANC): (7, (7, 11, 13, 22, 26, 28, 31)),
    ("b:5", SC): (4, (3, 5, 10, 12)),
    ("b:5", REC): (4, (3, 12, 21, 26)),
    ("b:6", CANC): (10, (15, 23, 27, 45, 46, 53, 54, 57, 58, 63)),
    ("b:6", SC): (8, (7, 11, 21, 25, 38, 42, 52, 56)),
    ("b:6", REC): (5, (3, 13, 22, 39, 56)),
    ("b:7", SC): (8, (7, 11, 21, 25, 38, 42, 52, 56)),
    ("b:7", REC): (6, (7, 25, 43, 53, 78, 98)),
    ("b:7", CANC): (13, (15, 23, 27, 45, 53, 57, 78, 86, 90, 108, 116, 120, 127)),
    ("b:8", SC): (16, (15, 23, 43, 51, 77, 85, 105, 113,
                       142, 150, 170, 178, 204, 212, 232, 240)),
    ("b:8", CANC): (19, (31, 47, 55, 91, 93, 107, 109, 115, 117, 158, 174, 182,
                        218, 220, 234, 236, 242, 244, 255)),
    ("d:3,3", CANC): (4, (2, 4, 6, 8)),
    ("d:3,3", SC): (3, (1, 5, 6)),
    ("d:3,3", REC): (3, (1, 5, 6)),
    ("d:3,4", CANC): (4, (2, 5, 8, 10)),
    ("d:3,4", SC): (3, (1, 6, 8)),
    ("d:3,4", REC): (3, (1, 6, 8)),
    ("d:2,3,3", CANC): (5, (5, 7, 11, 15, 17)),
    ("d:2,3,3", SC): (3, (1, 5, 6)),
    ("d:2,3,3", REC): (3, (1, 5, 6)),
    ("d:3^3", CANC): (6, (8, 14, 16, 20, 24, 26)),
    ("d:3^3", SC): (4, (2, 8, 12, 22)),
    ("d:3^3", REC): (4, (2, 8, 12, 22)),
    ("d:4,4", CANC): (5, (3, 6, 9, 12, 15)),
    ("d:4,4", SC): (4, (2, 7, 8, 13)),
    ("d:4,4", REC): (4, (2, 7, 8, 13)),
    ("d:5,5", CANC): (6, (4, 8, 12, 16, 20, 24)),
    ("d:5,5", SC): (5, (3, 9, 11, 17, 20)),
    ("d:5,5", REC): (5, (3, 9, 11, 17, 20)),
    ("d:3,3,4", CANC): (6, (7, 10, 15, 21, 32, 35)),
    ("d:3,3,4", SC): (4, (2, 7, 8, 21)),
    ("d:3,3,4", REC): (4, (2, 7, 8, 21)),
    ("d:4^3", CANC): (8, (15, 27, 30, 39, 45, 51, 60, 63)),
    ("d:4^3", SC): (5, (3, 11, 21, 38, 52)),
    ("d:4^3", REC): (5, (3, 11, 21, 38, 52)),
    ("d:3^4", CANC): (10, (8, 14, 20, 34, 40, 46, 60, 66, 72, 80)),
    ("d:3^4", SC): (9, (8, 14, 20, 34, 40, 46, 60, 66, 72)),
    ("d:3^4", REC): (6, (5, 16, 35, 45, 64, 75)),
    ("d:4^4", SC): (16, (15, 27, 39, 51, 78, 90, 102, 114,
                         141, 153, 165, 177, 204, 216, 228, 240)),
    ("b:9", SC): (16, (15, 23, 43, 51, 77, 85, 105, 113,
                       142, 150, 170, 178, 204, 212, 232, 240)),
    ("d:3^5", SC): (12, (17, 41, 47, 59, 97, 121, 127, 139, 177, 201, 207, 219)),
    ("d:5^3", SC): (7, (13, 39, 57, 65, 71, 87, 102)),
    ("d:5^3", REC): (7, (13, 39, 57, 65, 71, 87, 102)),
    # a stage that used a generator moving points below the stage's point
    # into its suffix would miss these optima and return 5
    ("d:2,2,3,2", CANC): (6, (5, 9, 16, 19, 20, 23)),
    ("d:2,2,3,3", SC): (6, (11, 13, 15, 20, 22, 24)),
}


# Rows run only when LATSETS_SLOW_TESTS is set.  The b:8 recovering and
# d:5^3 cancellative rows come from the bit-parallel search with full
# exclusion filters (12.6 s and 16 s on one core); the filters that stop
# early find the same witnesses with the same node counts, and the member
# filter with fewer (still 6-9 s).
SLOW_OPTIMA = {
    ("d:5^3", CANC): (10, (24, 44, 48, 64, 72, 84, 96, 104, 120, 124)),
    ("b:8", REC): (8, (7, 27, 104, 117, 169, 180, 206, 210)),
}
SLOW = pytest.mark.skipif(not os.environ.get("LATSETS_SLOW_TESTS"),
                          reason="set LATSETS_SLOW_TESTS=1 to run the slow pins")


def _indices(result, points) -> tuple:
    index = {p: i for i, p in enumerate(points)}
    return tuple(index[p] for p in result.best_set.points)


def _check_optimum(spec, prop, expected):
    lattice = parse_lattice_spec(spec)
    result = exact_max(SearchConfig(lattice, prop))
    assert result.proven_optimal
    assert (result.best_size, _indices(result, enumerate_lattice(lattice))) == expected


@pytest.mark.parametrize("spec,prop", sorted(OPTIMA))
def test_pinned_optimum(spec, prop):
    _check_optimum(spec, prop, OPTIMA[spec, prop])


@SLOW
@pytest.mark.parametrize("spec,prop", sorted(SLOW_OPTIMA))
def test_slow_pinned_optimum(spec, prop):
    _check_optimum(spec, prop, SLOW_OPTIMA[spec, prop])


def lex_first_maximum(lattice, prop) -> tuple:
    """Lexicographically smallest maximum family (as sorted point indices),
    by enumerating subsets from the largest size down with the naive
    definitional checks."""
    points = enumerate_lattice(lattice)
    check = NAIVE_CHECKS[prop]
    for size in range(len(points), 0, -1):
        for combo in itertools.combinations(range(len(points)), size):
            if check(PointSet(lattice, tuple(points[i] for i in combo))):
                return combo
    raise AssertionError("a single point is always a valid family")


def test_canonical_witness_is_lex_first_maximum():
    rng = random.Random(20240607)
    tried = 0
    while tried < 12:
        lattice = random_lattice(rng, max_k=4, max_l=4)
        if lattice.size > 12:
            continue
        tried += 1
        points = enumerate_lattice(lattice)
        for prop in (CANC, SC, REC):
            result = exact_max(SearchConfig(lattice, prop))
            assert result.proven_optimal
            assert _indices(result, points) == lex_first_maximum(lattice, prop), (
                lattice, prop)


def test_every_bound_is_sound(monkeypatch):
    # exact search stops once it meets the smallest bound, so a bound below
    # the optimum would go unnoticed by the search itself: switch the stop
    # off for the random lattices, and use the pinned optima for the rest
    for (spec, prop), (optimum, _) in {**OPTIMA, **SLOW_OPTIMA}.items():
        for report in applicable_bounds(parse_lattice_spec(spec), prop):
            assert math.floor(report.upper_bound) >= optimum, (spec, prop, report)
    monkeypatch.setattr(latsets.search, "applicable_bounds", lambda *args: [])
    rng = random.Random(1729)
    lattices = [ChainProductLattice(lengths)
                for l in range(2, 7) for lengths in ((1, l), (l, 1))]
    while len(lattices) < 40:
        lattice = random_lattice(rng, max_k=4, max_l=6)
        if lattice.size <= 12:
            lattices.append(lattice)
    for lattice in lattices:
        for prop in (CANC, SC, REC):
            reports = applicable_bounds(lattice, prop)
            if not reports:
                continue
            optimum = exact_max(SearchConfig(lattice, prop)).best_size
            for report in reports:
                assert math.floor(report.upper_bound) >= optimum, (lattice, prop, report)

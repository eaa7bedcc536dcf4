import functools
import gc
import itertools
import math
import random
import tracemalloc

import pytest

import latsets.search
from latsets import (
    ChainProductLattice,
    PointSet,
    SearchConfig,
    SearchResult,
    block_construction_bn,
    dumps_set_file,
    enumerate_lattice,
    exact_max,
    exhaustive_max,
    greedy,
    parse_lattice_spec,
    run_search,
    satisfies,
)

from latsets.lattice import enumerate_masks
from latsets.search import (
    _CACHE_BITS,
    _exclusions,
    _lanes,
    _lex_cut,
    _member_keys,
    _members,
    _symmetries,
)
from oracles import NAIVE_CHECKS, lex_leader_cut, random_lattice

SC = "strongly_cancellative"
REC = "recovering"
CANC = "cancellative"


def exact(spec, prop, **kw):
    return exact_max(SearchConfig(parse_lattice_spec(spec), prop, **kw))


def test_exact_sc_bn():
    for n, expected in [(2, 2), (3, 2), (4, 4), (5, 4)]:
        result = exact(f"b:{n}", SC)
        assert result.best_size == expected
        assert result.proven_optimal
        assert satisfies(result.best_set, SC)


def test_exact_sc_two_chains():
    for l1 in range(2, 5):
        for l2 in range(l1, 5):
            result = exact(f"d:{l1},{l2}", SC)
            assert result.best_size == min(l1, l2)
            assert result.proven_optimal


def test_exact_recovering_regression():
    # no closed form exists for these; values pinned by the exhaustive oracle
    # (n <= 4) and frozen from completed exact runs (n = 5, 6)
    for n, expected in [(2, 2), (3, 2), (4, 3), (5, 4), (6, 5)]:
        assert exact(f"b:{n}", REC).best_size == expected


def test_exact_sc_b6():
    result = exact("b:6", SC)
    assert result.best_size == 8 and result.proven_optimal


def test_exact_cancellative_regression():
    for n, expected in [(2, 3), (3, 4), (4, 5)]:
        assert exact(f"b:{n}", CANC).best_size == expected


def test_exact_d3_cubed_regression():
    # between the size-3 construction and the 41-ish upper bound; oracle-pinned
    result = exact("d:3^3", SC)
    assert 3 <= result.best_size <= 41
    assert result.best_size == 4


def test_canonical_witnesses():
    result = exact("b:5", SC)
    assert [p.coords for p in result.best_set] == [
        (0, 0, 0, 1, 1), (0, 0, 1, 0, 1), (0, 1, 0, 1, 0), (0, 1, 1, 0, 0)]
    # lex-first witness on D_3,3; precedes the antidiagonal since (0,1) < (0,2)
    result = exact("d:3,3", SC)
    assert [p.coords for p in result.best_set] == [(0, 1), (1, 2), (2, 0)]


def test_thread_count_determinism():
    for spec, prop in [("b:4", SC), ("b:4", REC), ("d:3,4", SC), ("b:3", CANC)]:
        runs = [exact(spec, prop, thread_count=t) for t in (1, 2, 4)]
        sizes = {r.best_size for r in runs}
        proven = {r.proven_optimal for r in runs}
        witnesses = {dumps_set_file(r.best_set) for r in runs}
        assert len(sizes) == 1 and len(proven) == 1
        assert len(witnesses) == 1  # canonical witness, identical bytes


def test_single_thread_repeatability():
    a = exact("b:4", SC)
    b = exact("b:4", SC)
    assert a == b  # including nodes_explored


def test_matches_exhaustive_oracle_random():
    rng = random.Random(2024)
    tried = 0
    while tried < 8:
        lattice = random_lattice(rng, max_k=3, max_l=3)
        if lattice.size > 10:
            continue
        tried += 1
        for prop in (CANC, SC, REC):
            fast = exact_max(SearchConfig(lattice, prop))
            naive = exhaustive_max(lattice, prop)
            assert fast.best_size == naive.best_size, (lattice, prop)
            assert naive.nodes_explored == 2 ** lattice.size


def test_exhaustive_oracle_guard():
    with pytest.raises(ValueError, match="limited"):
        exhaustive_max(ChainProductLattice.boolean(5), SC)


def test_bound_certified_stop_keeps_results(monkeypatch):
    # b:n and d:l1,l2 meet their strongly cancellative bound before stage 0,
    # so the stop skips stages; with no bounds every stage runs.  On d:3,3
    # and d:5,5 the skipped stages cost no node, since none of them gets
    # past its point: the stop saves nodes on the other four
    specs = ("b:4", "b:5", "b:6", "d:3,3", "d:4,5", "d:5,5")
    stopped = {spec: exact(spec, SC) for spec in specs}
    monkeypatch.setattr(latsets.search, "applicable_bounds", lambda *args: [])
    for spec in specs:
        full = exact(spec, SC)
        assert full.proven_optimal and stopped[spec].proven_optimal
        assert stopped[spec].best_size == full.best_size
        assert stopped[spec].best_set == full.best_set
        if spec in ("d:3,3", "d:5,5"):
            assert stopped[spec].nodes_explored == full.nodes_explored, spec
        else:
            assert stopped[spec].nodes_explored < full.nodes_explored, spec


def test_bound_beyond_float_range_does_not_stop_search():
    # d:1^3000 is one point; its (2l)^(k/2) bound overflows a float, which
    # the bounds report as an error, but the search needs no bound
    config = SearchConfig(ChainProductLattice((1,) * 3000), SC)
    result = exact_max(config)
    assert result.best_size == 1 and result.proven_optimal
    # without a bound greedy cannot certify its family
    result = greedy(config)
    assert result.best_size == 1 and not result.proven_optimal


def test_search_memory_per_point():
    # search holds one int per lattice point, not a Point per point, and
    # places a seed by its mixed-radix index, not through a table of points;
    # greedy caches no exclusion set, so the 128-point seed adds little
    lattice = parse_lattice_spec("b:14")
    seed = block_construction_bn(14)
    for kw in ({"mode": "greedy"}, {"mode": "greedy", "seed_set": seed},
               {"mode": "exact", "node_budget": 50},
               {"mode": "exact", "node_budget": 50, "seed_set": seed}):
        config = SearchConfig(lattice, SC, **kw)
        tracemalloc.start()
        try:
            run_search(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / lattice.size <= 100, kw


def test_node_budget_exhaustion():
    result = exact("b:4", SC, node_budget=5)
    assert not result.proven_optimal
    assert result.nodes_explored == 5
    assert satisfies(result.best_set, SC)
    # any ample budget completes with the same maximum
    for budget in (10**4, 10**6, None):
        ample = exact("b:4", SC, node_budget=budget)
        assert ample.proven_optimal and ample.best_size == 4


def test_budget_keeps_the_larger_incumbent():
    # budget-stopped: the seed while no completed stage beats it ...
    seed = block_construction_bn(6)
    result = exact("b:6", SC, seed_set=seed, node_budget=50)
    assert not result.proven_optimal and result.nodes_explored == 50
    assert result.best_set == seed.canonical()
    # ... otherwise the family of the last successful stage
    pair = PointSet(seed.lattice, seed.points[:2])
    result = exact("b:6", SC, seed_set=pair, node_budget=50)
    assert not result.proven_optimal and result.best_size > 2
    assert satisfies(result.best_set, SC)


def test_seeded_exact():
    seed = block_construction_bn(4)
    result = exact("b:4", SC, seed_set=seed)
    assert result.best_size == 4 and result.proven_optimal
    unseeded = exact("b:4", SC)
    assert result.best_set == unseeded.best_set  # canonical witness wins

    with pytest.raises(ValueError, match="does not satisfy"):
        exact("b:4", REC, seed_set=seed)
    with pytest.raises(ValueError, match="different lattice"):
        exact("b:5", SC, seed_set=seed)


def test_seed_checked_before_masks(monkeypatch):
    # a bad seed fails before any point is enumerated, so a seed from b:4
    # on b:22 (4 M points) is rejected at once
    enumerated = []
    monkeypatch.setattr(latsets.search, "enumerate_masks",
                        lambda lattice: enumerated.append(lattice) or [])
    seed = block_construction_bn(4)
    for mode in ("exact", "greedy"):
        for spec, prop, message in (("b:22", SC, "seed set lives on a different lattice"),
                                    ("b:4", REC, "seed set does not satisfy the property")):
            config = SearchConfig(parse_lattice_spec(spec), prop, mode=mode, seed_set=seed)
            with pytest.raises(ValueError, match=message):
                run_search(config)
    assert enumerated == []


def test_greedy_basic():
    result = greedy(SearchConfig(parse_lattice_spec("b:4"), SC, mode="greedy"))
    assert result.best_size <= 4
    assert satisfies(result.best_set, SC)
    assert not result.proven_optimal  # greedy picks the bottom, capping at 2

    # on B_2 greedy reaches the bound and certifies optimality through it
    result = greedy(SearchConfig(parse_lattice_spec("b:2"), SC, mode="greedy"))
    assert result.best_size == 2 and result.proven_optimal


def test_greedy_keeps_seed():
    seed = block_construction_bn(4)
    result = greedy(SearchConfig(parse_lattice_spec("b:4"), SC, mode="greedy",
                                 seed_set=seed))
    assert set(seed.points) <= set(result.best_set.points)
    assert result.best_size >= seed.size


def test_greedy_never_beats_exact():
    for spec, prop in [("b:2", SC), ("b:3", SC), ("b:4", SC), ("b:4", REC),
                       ("d:3,3", SC), ("d:4,4", SC), ("b:3", CANC)]:
        lattice = parse_lattice_spec(spec)
        g = greedy(SearchConfig(lattice, prop, mode="greedy"))
        e = exact_max(SearchConfig(lattice, prop))
        assert g.best_size <= e.best_size


def test_run_search_dispatch():
    assert run_search(SearchConfig(parse_lattice_spec("b:2"), SC)).best_size == 2
    g = run_search(SearchConfig(parse_lattice_spec("b:2"), SC, mode="greedy"))
    assert isinstance(g, SearchResult)


def test_progress_callback():
    seen = []
    exact("b:4", SC, progress_interval=10, progress=lambda n, b: seen.append((n, b)))
    assert seen and all(n >= 10 for n, _ in seen)


def test_progress_ends_at_nodes_explored():
    # the witness rerun counts on from the stages, and nodes_explored
    # counts both: the last node reported is the last node visited
    seen = []
    result = exact("d:4^3", CANC, progress_interval=1, progress=lambda n, b: seen.append(n))
    assert result.proven_optimal
    assert seen == list(range(1, result.nodes_explored + 1))


def test_node_budget_bounds_witness_rerun():
    # the stages of d:4^3 cancellative prove 8 within 6 762 nodes, and the
    # rerun would take the search to 18 404: the budget stops the rerun,
    # and the run returns the last stage's family, unproven
    seen = []
    result = exact("d:4^3", CANC, node_budget=10000, progress_interval=1,
                   progress=lambda n, b: seen.append(n))
    assert (result.best_size, result.proven_optimal, result.nodes_explored) == (8, False, 10000)
    assert satisfies(result.best_set, CANC)
    assert max(seen) == 10000


# (lattice, property): nodes_explored, the stages' and the witness rerun's
# nodes, under lex-leader pruning and the member filter.  Result tests
# cannot tell a sound but weaker cut from these; the counts can.
PRUNED_NODES = {
    ("b:6", CANC): 391,
    ("b:6", SC): 381,
    ("b:6", REC): 759,
    ("d:4^3", CANC): 18404,
    ("d:4^3", SC): 4040,
    ("d:4^3", REC): 4040,
    ("d:3,4,3", CANC): 1329,  # chains 0 and 2 swap, though not adjacent
    ("d:3^4", CANC): 7864,
    ("d:3^4", SC): 1017,
    ("d:3^4", REC): 5766,
    ("d:5^3", SC): 219445,
}


@pytest.mark.parametrize("spec,prop", sorted(PRUNED_NODES))
def test_symmetry_pruning_strength(spec, prop):
    seen = []
    result = exact(spec, prop, progress_interval=1, progress=lambda n, b: seen.append(n))
    assert result.proven_optimal
    assert result.nodes_explored == seen[-1] == PRUNED_NODES[spec, prop]


def _symmetry_lattices() -> list:
    rng = random.Random(8128)
    lattices = [parse_lattice_spec(spec) for spec in ("d:3,4,3", "d:4^3", "d:5,5,2")]
    while len(lattices) < 26:
        lattice = random_lattice(rng, max_k=4, max_l=4)
        if lattice.size <= 81:
            lattices.append(lattice)
    return lattices


SYMMETRY_LATTICES = _symmetry_lattices()


def _chain_swap(lattice, s, t) -> list:
    """The swap of chains s and t as a permutation of the point indices,
    computed on the points' coordinates."""
    points = enumerate_lattice(lattice)
    index = {p.coords: i for i, p in enumerate(points)}
    perm = []
    for p in points:
        coords = list(p.coords)
        coords[s], coords[t] = coords[t], coords[s]
        perm.append(index[tuple(coords)])
    return perm


def test_symmetries_are_automorphisms():
    # the generators are exactly the swaps of each two consecutive chains of
    # one length l > 1, and each keeps & and |
    assert len(_symmetries(parse_lattice_spec("d:3,4,3"))) == 1
    assert len(_symmetries(parse_lattice_spec("b:4"))) == 3
    for lattice in SYMMETRY_LATTICES:
        vals = enumerate_masks(lattice)
        n = len(vals)
        index = {v: i for i, v in enumerate(vals)}
        classes = {}
        for s, l in enumerate(lattice.lengths):
            if l > 1:
                classes.setdefault(l, []).append(s)
        expected = [_chain_swap(lattice, s, t)
                    for chains in classes.values() for s, t in zip(chains, chains[1:])]
        perms = [[image(i) for i in range(n)] for image in _symmetries(lattice)]
        assert sorted(perms) == sorted(expected), lattice
        for perm in perms:
            for a in range(n):
                ga = vals[perm[a]]
                for b in range(n):
                    gb = vals[perm[b]]
                    meet_image = vals[perm[index[vals[a] & vals[b]]]]
                    join_image = vals[perm[index[vals[a] | vals[b]]]]
                    assert (meet_image, join_image) == (ga & gb, ga | gb), lattice


def _lex_cases(rng):
    """(n, lo, child, perms): random ascending children of the points lo..n-1
    with permutations of them, a third of which map the child onto itself,
    an image that is equal and so never cut; then children whose new point
    2 maps to n-1, the bit just under its lane's guard, in the lowest lane,
    below a lane holding an equal image, where y is the guard alone and the
    borrow must stop, and in one case a third lane that cuts."""
    for _ in range(3000):
        n = rng.randint(1, 40)
        lo = rng.randrange(n) if rng.random() < 0.5 else 0
        child = sorted(rng.sample(range(lo, n), rng.randint(1, n - lo)))
        perms = []
        for _ in range(rng.randint(1, 3)):
            perm = list(range(lo, n))
            rng.shuffle(perm)
            if rng.random() < 1 / 3:
                inside = rng.sample(child, len(child))
                outside = [g for g in perm if g not in child]
                perm = [inside.pop() if i in child else outside.pop() for i in range(lo, n)]
            perms.append(list(range(lo)) + perm)
        yield n, lo, child, perms
    for n in range(4, 9):
        identity = list(range(n))
        up = identity[:]
        up[2], up[n - 1] = n - 1, 2
        down = identity[:]
        down[0], down[2] = 2, 0
        yield n, 0, [1, 2], [up, identity]
        yield n, 0, [1, 2], [up, identity, down]


def test_lex_cut_matches_list_rule():
    # the packed lex-leader test cuts a child exactly when the list rule
    # does; images and spread are built as exact search builds them, each
    # point ORing in its lane bits from the tables (g(n-1-r) at index r)
    outcomes = set()
    for n, lo, child, perms in _lex_cases(random.Random(6174)):
        lanes, ones, guards = _lanes([perm[::-1] for perm in perms], lo, n)
        images, spread = 0, guards
        for i in child:
            for offset, table in lanes:
                images |= 1 << offset + table[n - 1 - i]
            spread |= ones << i - lo
        width = n - lo + 1
        assert images == sum(sum(1 << perm[i] - lo for i in child) << q * width
                             for q, perm in enumerate(perms)), (perms, child, lo)
        cut = bool(_lex_cut(images, spread, ones))
        assert cut == any(lex_leader_cut(perm.__getitem__, child) for perm in perms), (
            perms, child, lo)
        outcomes.add((cut, any(sorted(perm[i] for i in child) == child for perm in perms)))
    assert outcomes == {(False, False), (False, True), (True, False), (True, True)}


def test_config_validation():
    lat = parse_lattice_spec("b:2")
    with pytest.raises(ValueError):
        SearchConfig(lat, "bogus")
    with pytest.raises(ValueError):
        SearchConfig(lat, SC, mode="annealing")
    with pytest.raises(ValueError):
        SearchConfig(lat, SC, thread_count=0)
    with pytest.raises(ValueError):
        SearchConfig(lat, SC, node_budget=0)
    with pytest.raises(ValueError, match="progress_interval"):
        SearchConfig(lat, SC, progress_interval=-3, progress=lambda n, b: None)


def test_search_lattice_too_large():
    with pytest.raises(ValueError, match="too large"):
        exact_max(SearchConfig(ChainProductLattice((2,) * 30), SC))


def _family_fits(lattice, points, prop):
    return lambda family: satisfies(PointSet(lattice, tuple(points[i] for i in family)), prop)


def _random_family(rng, n, fits, size) -> list:
    """A valid family of at most `size` point indices, in random order."""
    family = []
    for i in rng.sample(range(n), n):
        if len(family) < size and fits(family + [i]):
            family.append(i)
    return family


def test_exclusions_match_verifier():
    # for a valid family F and a point j that fits it, a point k that fits
    # F stays a candidate exactly when F + {j, k} is valid: with the caches
    # of exact search, with caches of two sets each, and with none.  F is
    # random on b:4, d:3,3,2, d:5,3, whose chain of 5 gives interior digits
    # in every order, and d:7,1,3, whose unit chain has no mask bit and
    # whose 6-bit block is the first; on b:5, where recovering families of
    # four points exist, F runs over every pair, so that quads decide some k.
    rng = random.Random(31415)
    for spec, props in (("b:4", (CANC, SC, REC)), ("d:3,3,2", (CANC, SC, REC)),
                        ("d:5,3", (CANC, SC, REC)), ("d:7,1,3", (CANC, SC, REC)),
                        ("b:5", (REC,))):
        lattice = parse_lattice_spec(spec)
        points = enumerate_lattice(lattice)
        n = len(points)
        for prop in props:
            fits = _family_fits(lattice, points, prop)
            variants = [_exclusions(lattice, prop, bits)
                        for bits in (_CACHE_BITS, 8 * (n + 2048), 0)]
            families = ([list(pair) for pair in itertools.combinations(range(n), 2)]
                        if spec == "b:5" else
                        [_random_family(rng, n, fits, rng.randint(0, 5)) for _ in range(60)])
            for family in families:
                cands = [k for k in range(n) if k not in family and fits(family + [k])]
                if not cands:
                    continue
                j = rng.choice(cands)
                expected = [k for k in cands if k != j and fits(family + [j, k])]
                for excl in variants:
                    kept = excl(family, j, (1 << n) - 1, 0)
                    assert [k for k in cands if k != j and kept >> k & 1] == expected, (
                        lattice, prop, family, j)


def test_cache_size_changes_only_time(monkeypatch):
    # with room for two sets per exclusion cache, so that eviction never
    # stops, every search returns what it returns with the default caches,
    # node count included
    for spec, props in (("b:6", (CANC, SC, REC)), ("d:4^3", (CANC, REC)),
                        ("d:3,4,3", (CANC,)), ("d:3^4", (REC,))):
        lattice = parse_lattice_spec(spec)
        for prop in props:
            config = SearchConfig(lattice, prop)
            expected = exact_max(config).to_json_dict()
            with monkeypatch.context() as patch:
                patch.setattr(latsets.search, "_CACHE_BITS", 8 * (lattice.size + 2048))
                assert exact_max(config).to_json_dict() == expected, (spec, prop)


def test_block_tables_hold_at_most_2n_sets(monkeypatch):
    # each block table is keyed by one bit per block, or by a point's mask
    # (b&j and top less b|j), so it holds at most 2n sets.  Keyed by the
    # raw runs of j less b instead, d:300 fills avoids to its limit of
    # 28 581 sets; there j's digit is above b's, so only d:3,100 has long
    # runs of b less j, and keyed by those it fills both with 5 200
    made = []

    def spy(maxsize):
        def wrap(function):
            cached = functools.lru_cache(maxsize=maxsize)(function)
            made.append(cached)
            return cached
        return wrap

    monkeypatch.setattr(latsets.search, "lru_cache", spy)
    for spec, prop, budget in (("d:300", CANC, None), ("d:300", SC, None),
                               ("b:8", REC, 100_000), ("d:3,100", SC, None)):
        made.clear()
        lattice = parse_lattice_spec(spec)
        exact_max(SearchConfig(lattice, prop, node_budget=budget))
        sizes = {cached.__wrapped__.__name__: cached.cache_info().currsize for cached in made}
        assert 0 < sizes["contains"] <= 2 * lattice.size, (spec, prop, sizes)
        assert 0 < sizes["avoids"] <= 2 * lattice.size, (spec, prop, sizes)


def test_exclusions_stop_early_only_below_need():
    # excl(F, j, cands, need) may stop once fewer than need candidates
    # remain: its result holds the full filter's, and is the full filter's
    # unless it has fewer than need points, so exact search prunes it
    # exactly when it would prune the full result
    rng = random.Random(16180)
    stopped = 0
    for spec in ("b:4", "d:3,3,2", "b:5"):
        lattice = parse_lattice_spec(spec)
        points = enumerate_lattice(lattice)
        n = len(points)
        for prop in (CANC, SC, REC):
            fits = _family_fits(lattice, points, prop)
            excl = _exclusions(lattice, prop, _CACHE_BITS)
            for _ in range(40):
                family = _random_family(rng, n, fits, rng.randint(0, 5))
                fitting = [k for k in range(n) if k not in family and fits(family + [k])]
                if not fitting:
                    continue
                j = rng.choice(fitting)
                cands = sum(1 << k for k in fitting if k != j and rng.random() < 0.8)
                full = sum(1 << k for k in fitting
                           if cands >> k & 1 and fits(family + [j, k]))
                for need in range(5):
                    kept = excl(family, j, cands, need)
                    assert kept & full == full, (lattice, prop, family, j, need)
                    assert kept == full or kept.bit_count() < need, (
                        lattice, prop, family, j, need)
                    stopped += kept != full
    assert stopped  # some calls did stop early


def _valid_families(lattice, points, prop):
    """Every valid family as ascending point indices, grown point by point
    from the empty one with the naive check (valid families are hereditary)."""
    check = NAIVE_CHECKS[prop]
    level = [()]
    while level:
        yield from level
        level = [(*family, k) for family in level
                 for k in range((family[-1] + 1) if family else 0, len(points))
                 if check(PointSet(lattice, tuple(points[i] for i in (*family, k))))]


def test_member_filter_keeps_every_member():
    # in a valid family F, a member a has |F|-1 distinct meets a&b with the
    # other members, all below a, and but for cancellative as many distinct
    # joins above a: so |down(a)| = prod(a_s + 1) and |up(a)| =
    # prod(l_s - a_s) are at least |F|-1.  Both hold with equality somewhere,
    # and some cancellative member has fewer points above it.  M_t holds
    # exactly the points that pass for t = |F|, so every member of F.
    rng = random.Random(4181)
    lattices = [parse_lattice_spec(spec) for spec in ("b:2", "b:3", "d:3,3", "d:2,4", "d:1,3,1")]
    while len(lattices) < 16:
        lattice = random_lattice(rng, max_k=4, max_l=4)
        if lattice.size <= 12:
            lattices.append(lattice)
    tight = {"down": 0, "up": 0, "cancellative up short": 0}
    for lattice in lattices:
        points = enumerate_lattice(lattice)
        n = len(points)
        down = [math.prod(x + 1 for x in p.coords) for p in points]
        up = [math.prod(l - x for l, x in zip(lattice.lengths, p.coords)) for p in points]
        for prop in (CANC, SC, REC):
            keys = _member_keys(lattice, prop)
            filters = {}
            for t in range(1, n + 2):
                filters[t] = _members(keys, t)
                assert filters[t] == sum(1 << i for i in range(n) if down[i] >= t - 1 and (
                    prop == CANC or up[i] >= t - 1)), (lattice, prop, t)
            for family in _valid_families(lattice, points, prop):
                t = len(family)
                for a in family:
                    assert down[a] >= t - 1, (lattice, prop, family, a)
                    tight["down"] += down[a] == t - 1
                    if prop == CANC:
                        tight["cancellative up short"] += up[a] < t - 1
                    else:
                        assert up[a] >= t - 1, (lattice, prop, family, a)
                        tight["up"] += up[a] == t - 1
                    assert filters[t] >> a & 1, (lattice, prop, family, a)
    assert all(tight.values()), tight


def test_greedy_matches_naive_scan():
    # greedy keeps the seed, then each point in canonical order that keeps
    # the family valid: the same scan with the verifier, seeded or not
    rng = random.Random(2718)
    tried = 0
    while tried < 10:
        lattice = random_lattice(rng, max_k=4, max_l=4)
        if lattice.size > 64:
            continue
        tried += 1
        points = enumerate_lattice(lattice)
        n = len(points)
        for prop in (CANC, SC, REC):
            fits = _family_fits(lattice, points, prop)
            seed = _random_family(rng, n, fits, rng.randint(1, 4))
            for seed_set in (None, PointSet(lattice, tuple(points[i] for i in seed))):
                chosen = [] if seed_set is None else list(seed)
                for i in range(n):
                    if i not in chosen and fits(chosen + [i]):
                        chosen.append(i)
                result = greedy(SearchConfig(lattice, prop, mode="greedy", seed_set=seed_set))
                assert result.best_set.points == tuple(points[i] for i in sorted(chosen))
                assert result.nodes_explored == n - (0 if seed_set is None else len(seed))


def test_searches_leave_no_cyclic_garbage():
    # reference counting alone frees what a search builds; a cycle would
    # keep it, and all it holds, until a full collection
    gc.collect()
    gc.disable()
    try:
        lattice = parse_lattice_spec("d:3,3,2")
        for prop in (CANC, SC, REC):
            for kw in ({"mode": "exact"}, {"mode": "exact", "node_budget": 5},
                       {"mode": "greedy"}):
                run_search(SearchConfig(lattice, prop, **kw))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_budget_with_threads():
    result = exact("b:5", SC, thread_count=4, node_budget=20)
    assert not result.proven_optimal
    assert result.nodes_explored <= 20
    assert satisfies(result.best_set, SC)


def test_result_json_shape():
    result = exact("b:2", SC)
    data = result.to_json_dict()
    assert data["bestSize"] == 2
    assert data["provenOptimal"] is True
    assert data["bestSet"] == [[0, 0], [0, 1]]
    assert isinstance(data["nodesExplored"], int)

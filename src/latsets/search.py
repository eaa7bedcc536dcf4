"""Exact and greedy maximum-family search on chain-product lattices.

Exact search is Russian-doll search (Verfaillie, Lemaitre and Schiex,
"Russian doll search for solving constraint optimization problems",
AAAI 1996), in the form Ostergard gave it for maximum cliques ("A fast
algorithm for the maximum clique problem", Discrete Appl. Math. 120,
2002).  Families grow depth-first with strictly increasing point indices
in canonical order, so every family is visited at most once.  All three
properties are hereditary: every subfamily of a valid family is valid.
So c[i], the largest family among the points i..n-1, bounds what the
points from i on can add to any family.  Stage i = n-1, ..., 0 asks only
whether some family of c[i+1]+1 points starts at point i, and stops at
the first hit; c[i] is then c[i+1] or c[i+1]+1, and c[0] is the optimum.

Heredity also means that a point which cannot join a family cannot join
any larger one.  So each node carries Ostergard's candidate set U, a
bitset of the points after its last point that still fit its family.  A
node tries them from the lowest bit up; a child's set is the rest of its
parent's, less the points that its new point excludes.  A node stops when
size + c[j] or size + |U from j on| falls short of the target.

The bounds of the bounds module cap every family: no stage can push c
above the floor of the smallest applicable bound.  Once some c[i] reaches
it, c[k] = c[i] for every k < i, and the earlier stages are skipped.

The member filter drops every point too small to belong to a family of
the target size.  Take a member a of a valid family F: the |F|-1 meets
a&b with the other members b are distinct, by cancellativity, and lie
below a, so a has prod(a_s + 1) >= |F|-1 points below or at it; for
strongly cancellative and recovering the joins likewise give
prod(l_s - a_s) >= |F|-1 points above or at it.  So each point gets a
key, the first product or the smaller of the two, and M_t is the bitset
of the points whose key is at least t-1.  Each stage ANDs its root
candidates with M_t for its target t, a stage whose own point's key is
short fails without a node, and the rerun uses M_c[0].  M_t holds every
member of every family of t points, so each stage and the rerun find the
family they found without the filter.

Search works on point indices.  Only the exclusion filter holds the
points' thermometer masks (lattice.enumerate_masks), in which meet and
join are & and | on every lattice.  Candidate sets are filtered
bit-parallel, as San Segundo, Rodriguez-Losada and Jimenez filter by
edges ("An exact bit-parallel algorithm for the maximum clique problem",
Computers & OR 38, 2011).  When j joins a valid family F, a candidate k
drops out when a violation involves both: k&b = j&b, k&j = b&j or
k&b = k&j for some b in F, with the join duals for strongly cancellative
and recovering; for recovering also k&j equal to a pair meet of F, or
k&z = j&y for z != y in F, and the join duals.  Each such set is the AND
of two block tables (_exclusions).  A child costs at most O(|F|) bitset
operations (recovering O(|F|^2)), whatever the number of candidates, and
exact search stops filtering once fewer candidates remain than its
target still needs: the O(|F|) triple sets come first, and recovering's
quad sets only when the triples leave enough.

After the stages, a c-pruned rerun returns the canonically first family
of the optimal size as the witness; it counts its nodes on from the
stages, under the same budget.  Search runs on one thread.

Both the stages and the rerun break symmetry by lex-leader pruning
(Crawford, Ginsberg, Luks and Roy, "Symmetry-breaking predicates for
search problems", KR 1996).  Swapping any two chains of equal length is
a lattice automorphism, so it keeps all three properties; the generators
g swap two consecutive chains of one length, acting on point indices
arithmetically.  A child is cut, before it costs a node, when sorted
g(P) < P as lists for some g, P being its ascending prefix.  Where the
two first differ, g(P) holds the smaller point; every completion F of P
adds only points above P, so sorted g(F) < F as well, F is not the
lexicographically first family of its orbit, and that family survives
elsewhere in the tree.  The rerun uses every generator, since the
canonical witness is the first family of its orbit.  Stage i asks about
families inside {i..n-1} that start at i, so it uses only the generators
that fix i and map {i..n-1} into itself; the first such family is the
first of its orbit, so every stage finds the family it found without
symmetry and c[] keeps its meaning.  As i falls, each generator g keeps
low, the least of g(i..n-1); g serves stage i when low == i == g(i).
The g(i) of each stage go into a list per generator, which the rerun
completes down to g(0).  A stage packs the images of its generators into
lanes of one int (_lex_cut), so that one borrow test per child checks
them all.  M_t keeps every point of the first family, and maps onto
itself under each chain swap, so the member filter keeps this argument.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import mul
from typing import Callable, Optional

from .bounds import applicable_bounds
from .lattice import (ChainProductLattice, PointSet, _chain_tables, enumerate_lattice,
                      enumerate_masks)
from .verify import CANCELLATIVE, RECOVERING, normalize_property, satisfies

EXACT = "exact"
GREEDY = "greedy"
MODES = (EXACT, GREEDY)

DEFAULT_NODE_BUDGET = 10**9
_CACHE_BITS = 1 << 28  # the exclusion caches of exact search: about 32 MB at most


@dataclass(frozen=True)
class SearchConfig:
    """Parameters for one search run; property_name is kept canonical.

    node_budget bounds the families that exact search visits, the
    canonical-witness rerun included (None = unlimited); when it runs out,
    proven_optimal is False.  A seed set must itself satisfy the property
    and serves as the initial incumbent.  thread_count is validated but
    inert: search runs on one thread.  progress, when set, is called with
    (nodes, best_size) every progress_interval nodes.
    """

    lattice: ChainProductLattice
    property_name: str
    mode: str = EXACT
    thread_count: int = 1
    node_budget: Optional[int] = DEFAULT_NODE_BUDGET
    seed_set: Optional[PointSet] = None
    progress_interval: int = 0
    progress: Optional[Callable[[int, int], None]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "property_name", normalize_property(self.property_name))
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.thread_count < 1:
            raise ValueError("thread_count must be >= 1")
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError("node_budget must be >= 1 or None")
        if self.progress_interval < 0:
            raise ValueError("progress_interval must be >= 0")


@dataclass(frozen=True)
class SearchResult:
    best_set: PointSet
    best_size: int
    proven_optimal: bool
    nodes_explored: int

    def to_json_dict(self) -> dict:
        return {
            "bestSize": self.best_size,
            "provenOptimal": self.proven_optimal,
            "nodesExplored": self.nodes_explored,
            "bestSet": [list(p.coords) for p in self.best_set],
        }


def _seed(config: SearchConfig) -> tuple:
    """The sorted canonical indices of the verified seed (empty without one)."""
    seed = config.seed_set
    if seed is None:
        return ()
    if seed.lattice != config.lattice:
        raise ValueError("seed set lives on a different lattice")
    if not satisfies(seed, config.property_name):
        raise ValueError("seed set does not satisfy the property")
    weights = _weights(config.lattice)
    return tuple(sorted(sum(map(mul, p.coords, weights)) for p in seed.points))


def _bound_cap(lattice: ChainProductLattice, prop: str) -> float:
    """Floor of the smallest applicable upper bound, which no family exceeds;
    inf when none applies or one overflows a float (as on d:1^3000)."""
    try:
        reports = applicable_bounds(lattice, prop)
    except ValueError:
        return math.inf
    return min((math.floor(r.upper_bound) for r in reports), default=math.inf)


def _weights(lattice: ChainProductLattice) -> list[int]:
    """Mixed-radix weight of each chain: the point with coordinates c has
    canonical index sum(c * w)."""
    return [math.prod(lattice.lengths[s + 1:]) for s in range(lattice.k)]


def _member_keys(lattice: ChainProductLattice, prop: str) -> array:
    """Per point a, in canonical order, the key of the member filter:
    prod(a_s + 1), or for all but cancellative the smaller of that and
    prod(l_s - a_s); a family of t points has only members of key >= t-1."""
    down = up = [1]
    for l in lattice.lengths:  # arrays, so that the products hold no int objects
        down = array("q", (d * (x + 1) for d in down for x in range(l)))
        up = array("q", (u * (l - x) for u in up for x in range(l)))
    return down if prop == CANCELLATIVE else array("q", map(min, down, up))


def _members(keys: array, target: int) -> int:
    """M_t, the bitset of the points whose key is at least t - 1."""
    need = target - 1
    return int("".join(["1" if key >= need else "0" for key in reversed(keys)]), 2)


def _transposition(u: int, w: int, l: int) -> Callable:
    """Swap of the digits of weights u and w, two chains of l elements."""
    return lambda i: i + ((i // w) % l - (i // u) % l) * (u - w)


def _symmetries(lattice: ChainProductLattice) -> list[Callable]:
    """Symmetry generators of the search, as maps from a point index to the
    index of its image: per class of chains of equal length l > 1, the swap
    of each two consecutive members."""
    classes: dict[int, list[int]] = {}  # chain length -> weights of its chains
    for l, w in zip(lattice.lengths, _weights(lattice)):
        if l > 1:
            classes.setdefault(l, []).append(w)
    return [_transposition(u, w, l)
            for l, ws in classes.items() for u, w in zip(ws, ws[1:])]


def _lanes(tables: list, lo: int, n: int) -> tuple:
    """(lanes, ones, guards) of _lex_cut for the generators of these tables
    on the points lo..n-1: per table, (its lane's offset less lo, table);
    then bit 0 and the guard of every lane."""
    width = n - lo + 1
    ones = ((1 << len(tables) * width) - 1) // ((1 << width) - 1)
    return [(q * width - lo, table) for q, table in enumerate(tables)], ones, ones << width - 1


def _lex_cut(images: int, spread: int, ones: int) -> int:
    """Nonzero when some generator g has sorted g(P) < sorted P, that is
    (|g(P)| = |P|) when the lowest point in only one of them lies in g(P).
    Each g has a lane of n - lo + 1 bits, bit x for the point lo + x, and a
    guard on top; images holds g(P) in g's lane, spread P and the guard in
    every lane.  y = images ^ spread keeps every guard, so y - ones borrows
    within each lane and y & ~(y - ones) is each lane's lowest bit."""
    y = images ^ spread
    return y & ~(y - ones) & images


def _exclusions(lattice: ChainProductLattice, prop: str,
                cache_bits: int) -> Callable[[list, int, int, int], int]:
    """excl(F, j, cands, need): cands less the points k for which F + {j, k}
    violates the property, given valid F + {j} and F + {k} (F, j and cands
    as indices and an index bitset).  Such a violation involves j and k, so
    it lies in a union of product sets.  excl removes the triple sets
    first, newest member of F first, and may stop as soon as fewer than
    need points remain: exclusions only grow, so the full filter would
    leave fewer than need too.  Recovering's quad sets follow only when the
    triples leave at least need points.

    Every set is built from two block tables, contains(d) = {k : k&d = d}
    and avoids(d) = {k : k&d = 0}, for masks d that are one run of bits on
    each chain's block: k holds a run when it holds its highest bit, and
    avoids it when it lacks its lowest, so a table ANDs one slice per
    block.  Keyed by those bits, or by a point's mask (b&j, or top less
    b|j), each table holds at most 2n sets; raw runs would give O(l^2)
    keys per chain.  The sets and the tables are memoized by lru_caches
    that together hold about cache_bits bits, the least recently used set
    going first; with cache_bits 0 (greedy, which meets each pair once)
    they hold none.  excl alone holds the points' masks."""
    vals = enumerate_masks(lattice)
    n = len(vals)
    full = (1 << n) - 1
    top = vals[-1]  # every mask bit
    has, lacks = {}, {}  # per mask bit: the points that have it, and the rest
    lows = tops = 0  # the lowest and the highest bit of each block
    for l, w, masks in zip(lattice.lengths, _weights(lattice), _chain_tables(lattice)):
        if l > 1:
            repeat = full // ((1 << w * l) - 1)  # bit 0 of every period
            lows |= masks[1]
            tops |= masks[-1] ^ masks[-2]
            for x in range(1, l):
                bit = masks[x] ^ masks[x - 1]
                has[bit] = ((1 << (l - x) * w) - 1 << x * w) * repeat
                lacks[bit] = ((1 << x * w) - 1) * repeat
    not_lows, not_tops = ~lows, ~tops

    # an entry is an n-bit set plus about 160 bytes (within the 2048 bits
    # allowed), so the four caches hold about cache_bits bits (tracemalloc:
    # the triple and product caches filled on b:10 hold 15 MB by default)
    size = cache_bits // (4 * (n + 2048))

    def and_slices(slices: dict, key: int) -> int:  # one slice per bit of key
        x = full
        while key:
            bit = key & -key
            key ^= bit
            x &= slices[bit]
        return x

    @lru_cache(maxsize=size)
    def contains(key: int) -> int:  # k holds a run when it holds the highest bit
        return and_slices(has, key & ~(key >> 1 & not_tops))

    @lru_cache(maxsize=size)
    def avoids(key: int) -> int:  # k avoids a run when it lacks the lowest bit
        return and_slices(lacks, key & ~(key << 1 & not_lows))

    @lru_cache(maxsize=size)
    def product(z: int, v: int, join: bool) -> int:
        """{k : k&z = v} (join: k|z = v), for masks v <= z (join: v >= z):
        k holds v, avoids z less v (join: avoids top less v, holds v less z)."""
        if join:
            return avoids(top ^ v) & contains((v ^ (v >> 1 & not_tops)) & ~z)
        return contains(v) & avoids(((v << 1 | lows) ^ v) & z)

    @lru_cache(maxsize=size)
    def triples(b: int, j: int) -> int:
        """The points k that violate the property with b and j.  With d = b
        less j and e = j less b: k&b = j&b holds b&j and avoids d, k&j =
        b&j holds b&j and avoids e, k&b = k&j avoids d and e; for all but
        cancellative, the join duals lie below b|j and hold e, the same
        with d, and hold d and e."""
        # on each block, d's lowest bit is the lowest that j lacks, (j << 1 |
        # lows) ^ j, where b has it; its highest is b's, where j lacks it
        ad = avoids(((j << 1 | lows) ^ j) & b)
        ae = avoids(((b << 1 | lows) ^ b) & j)
        x = contains(b & j) & (ad | ae) | ad & ae
        if prop == CANCELLATIVE:
            return x
        cd = contains((b ^ (b >> 1 & not_tops)) & ~j)
        ce = contains((j ^ (j >> 1 & not_tops)) & ~b)
        return x | avoids(top ^ (b | j)) & (cd | ce) | cd & ce

    def excl(family: list, j: int, cands: int, need: int) -> int:
        jv = vals[j]
        for b in reversed(family):  # triples {b, j, k}
            cands &= ~triples(vals[b], jv)
            if cands.bit_count() < need:
                return cands
        if prop == RECOVERING:  # quads: k&j is a pair meet of F, or k&z = j&y
            fam = [vals[b] for b in family]
            for z in fam:
                for y in fam:
                    if y != z:
                        v = jv & y
                        if v & z == v:
                            cands &= ~product(z, v, False)
                        v = jv | y
                        if v | z == v:
                            cands &= ~product(z, v, True)
            for a, b in combinations(fam, 2):
                v = a & b
                if v & jv == v:
                    cands &= ~product(jv, v, False)
                v = a | b
                if v | jv == v:
                    cands &= ~product(jv, v, True)
        return cands

    return excl


def _result(config: SearchConfig, indices, proven: bool, nodes: int) -> SearchResult:
    """The re-verified family of the indices, each decoded by its digits i // w % l."""
    lattice = config.lattice
    radix = list(zip(_weights(lattice), lattice.lengths))
    best_set = PointSet(lattice, tuple(tuple(i // w % l for w, l in radix) for i in indices))
    if not satisfies(best_set, config.property_name):  # pragma: no cover - re-verification
        raise RuntimeError("internal error: search produced an invalid family")
    return SearchResult(best_set, len(indices), proven, nodes)


def exact_max(config: SearchConfig) -> SearchResult:
    """Maximum family satisfying the property, by Russian-doll search.

    proven_optimal is True exactly when the stages (finished, or stopped
    at the smallest applicable bound) and the witness rerun all ran within
    the node budget; the returned witness is then the canonically first
    family of maximum size, and nodes_explored counts both.  Otherwise it
    is the larger of the seed (which wins ties) and the family found by
    the last successful stage.  The witness is re-verified before
    returning.
    """
    best_indices = _seed(config)
    prop = config.property_name
    excl = _exclusions(config.lattice, prop, _CACHE_BITS)  # first: it checks the size cap
    n = config.lattice.size
    c = [0] * (n + 1)  # c[j] = largest family among points j..n-1
    chosen: list[int] = []
    nodes = 0
    budget = config.node_budget
    stopped = False
    progress = config.progress
    interval = config.progress_interval if progress is not None else 0

    top = n - 1
    # the _lanes of the running stage or rerun, the point that bit 0 of a
    # lane stands for, and at index r the packed images of n-1-r, or 0
    lanes, ones, base, packed = [], 0, 0, []

    def first_of_size(cands: int, target: int, spread: int, images: int) -> Optional[tuple]:
        """Canonically first way to extend the chosen points to `target`
        points from cands, the bitset of the later points that still fit,
        or None (also when the budget ran out).  spread and images pack the
        chosen points for _lex_cut, which skips a child before it costs a
        node.  Every child is one node; the budget is checked after each."""
        nonlocal nodes, stopped
        need = target - len(chosen) - 1  # the points still needed after the next
        while cands:
            bit = cands & -cands
            cands ^= bit  # the candidates after j
            j = bit.bit_length() - 1
            if c[j] <= need or cands.bit_count() < need:
                return None  # both only shrink as j grows: no later j can do better
            child_images = images
            child_spread = spread
            if lanes:
                r = top - j
                jbits = packed[r]
                if not jbits:  # the images of j, in every lane
                    for offset, table in lanes:
                        jbits |= 1 << offset + table[r]
                    packed[r] = jbits
                child_images |= jbits
                child_spread |= ones << j - base
                if _lex_cut(child_images, child_spread, ones):
                    continue
            nodes += 1
            if nodes == budget:
                stopped = True
            if interval and nodes % interval == 0:
                progress(nodes, len(best_indices))
            if not need:
                found = (*chosen, j)
            elif stopped:
                found = None
            else:
                rest = excl(chosen, j, cands, need)
                chosen.append(j)
                found = (None if rest.bit_count() < need
                         else first_of_size(rest, target, child_spread, child_images))
                chosen.pop()
            if found is not None or stopped:
                return found
        return None

    def from_root(cands: int, target: int, tables: list, lo: int) -> Optional[tuple]:
        """first_of_size from no point, with lanes for the points lo..n-1."""
        nonlocal lanes, ones, base, packed
        lanes, ones, guards = _lanes(tables, lo, n) if tables else ([], 0, 0)
        base, packed = lo, [0] * (n - lo) if tables else []
        return first_of_size(cands, target, guards, 0)

    try:
        cap = _bound_cap(config.lattice, prop)
        symmetries = _symmetries(config.lattice)
        # per generator g: g(n-1), g(n-2), ... down to the latest stage, and
        # low, the least image of i..n-1
        all_tables = [[] for _ in symmetries]
        lows = [n] * len(symmetries)
        keys = _member_keys(config.lattice, prop)
        target = 0  # the target of `members`, M_target
        for i in range(top, -1, -1):
            # stage i: is there a family of c[i+1]+1 points whose first point is i?
            # c[i] is set first so that point i passes the size + c[j] test.
            c[i] = c[i + 1] + 1
            at_i = [image(i) for image in symmetries]
            lows = list(map(min, lows, at_i))
            for table, g in zip(all_tables, at_i):
                table.append(g)
            if keys[i] < c[i] - 1:  # i lies in no family of c[i] points
                c[i] -= 1
                continue
            if c[i] != target:
                target = c[i]
                members = _members(keys, target)
            # the generators that fix i and map {i..n-1} into itself
            tables = [table for table, low, g in zip(all_tables, lows, at_i) if low == i == g]
            found = from_root(((1 << n) - (1 << i)) & members, c[i], tables, i)
            if found is None:
                c[i] -= 1
            elif len(found) > len(best_indices):
                best_indices = found
            if stopped:
                break
            if c[i] >= cap:
                # c[0] <= cap, so every earlier stage would end at c[i] too
                c[:i] = [c[i]] * i
                break

        if not stopped:  # the rerun, under the same budget and node count
            for table, image in zip(all_tables, symmetries):  # down to g(0)
                table.extend(map(image, range(top - len(table), -1, -1)))
            found = from_root(_members(keys, c[0]), c[0], all_tables, 0)
            if not stopped:
                if found is None:  # pragma: no cover - stage 0 proves one exists
                    raise RuntimeError("internal error: lost the optimal family")
                best_indices = found
    finally:
        first_of_size = None  # it reaches itself through its closure: break that cycle
    return _result(config, best_indices, not stopped, nodes)


def greedy(config: SearchConfig) -> SearchResult:
    """Scan points in canonical order, keeping each one that preserves the
    property.  proven_optimal is True only when the result size meets an
    applicable upper bound, which certifies it as a true maximum."""
    seed = _seed(config)
    excl = _exclusions(config.lattice, config.property_name, 0)  # each pair comes up once
    n = config.lattice.size
    chosen: list[int] = []
    cands = (1 << n) - 1  # the points that fit the chosen ones
    for j in seed:
        if not cands >> j & 1:  # pragma: no cover - seed was verified
            raise RuntimeError("internal error: verified seed failed to load")
        cands = excl(chosen, j, cands & ~(1 << j), 0)
        chosen.append(j)
    while cands:  # by heredity, the next point of the canonical scan
        j = (cands & -cands).bit_length() - 1
        cands = excl(chosen, j, cands & ~(1 << j), 0)
        chosen.append(j)
    proven = len(chosen) >= _bound_cap(config.lattice, config.property_name)
    return _result(config, sorted(chosen), proven, n - len(seed))


def run_search(config: SearchConfig) -> SearchResult:
    return exact_max(config) if config.mode == EXACT else greedy(config)


def exhaustive_max(
    lattice: ChainProductLattice, prop: str, max_points: int = 20
) -> SearchResult:
    """Brute-force oracle: test every subset of the lattice with the
    verifier, no pruning of any kind.  Exponential in the point count and
    guarded accordingly; meant to cross-check exact_max at desk scale.
    """
    prop = normalize_property(prop)
    points = enumerate_lattice(lattice)
    n = len(points)
    if n > max_points:
        raise ValueError(
            f"exhaustive oracle limited to {max_points} points, lattice has {n}"
        )
    best: Optional[PointSet] = None
    best_size = -1
    for mask in range(1 << n):
        members = tuple(points[i] for i in range(n) if (mask >> i) & 1)
        candidate = PointSet(lattice, members)
        if satisfies(candidate, prop) and len(members) > best_size:
            best = candidate
            best_size = len(members)
    assert best is not None
    return SearchResult(best, best_size, True, 1 << n)

"""The benchmark's workloads: fixed operations on the checkout's latsets.

Each workload's set-up builds its inputs (constructions, seeded random
families, temporary set files) and returns a list of operations.  One pass
runs every operation once, in an order shuffled by the workload seed; each
operation starts only after the previous one has returned.

Every operation is checked after the pass, outside the timed region:
against the pinned answer table (answers.json) or, for the seeded random
families whose answers cannot be pinned, against a naive reference scan.

Two scales share one definition: "full" is what the benchmark measures,
"tiny" is the same shape on small lattices for the benchmark's own tests.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import latsets.cli as cli_mod
import latsets.construct as construct_mod
import latsets.search as search_mod
import latsets.setfile as setfile_mod
import latsets.verify as verify_mod
from latsets.lattice import ChainProductLattice, PointSet, parse_lattice_spec

SCALES = ("full", "tiny")
PROPERTIES = ("cancellative", "strongly_cancellative", "recovering")

# Canonically first maximum recovering families (exact search optima on b:6
# and b:4), pinned so that `latsets entropy` runs its entropy sandwich.
RECOVERING_FAMILY = {
    "full": (6, [[0, 0, 0, 0, 1, 1], [0, 0, 1, 1, 0, 1], [0, 1, 0, 1, 1, 0],
                 [1, 0, 0, 1, 1, 1], [1, 1, 1, 0, 0, 0]]),
    "tiny": (4, [[0, 0, 0, 1], [0, 1, 1, 0], [1, 0, 1, 1]]),
}

_NODES = re.compile(r'"nodesExplored": \d+')


@dataclass
class Op:
    """One operation: `run` is timed, `norm` turns its return value into the
    JSON value compared with the answer under `key` (shared by operations
    that must agree, such as a seeded and an unseeded search).  `reference`,
    when set, computes the expected value instead of the pinned table."""

    id: str
    key: str
    run: Callable[[], object]
    norm: Callable[[object], object]
    reference: Optional[Callable[[], object]] = None
    subprocess: bool = False


# ---------------------------------------------------------------------------
# result normalization
# ---------------------------------------------------------------------------

def _search_norm(result) -> dict:
    d = result.to_json_dict()
    d.pop("nodesExplored")  # pruning work may change it; reported as search.nodes
    return d


def _violation_norm(v) -> Optional[dict]:
    return None if v is None else v.to_json_dict()


def _cli_norm(result) -> dict:
    code, out = result
    return {"exit": code, "stdout": _NODES.sub('"nodesExplored": N', out)}


def _file_norm(path: Path) -> Callable[[object], dict]:
    def norm(result) -> dict:
        d = _cli_norm(result)
        d["file"] = path.read_text(encoding="utf-8")
        return d
    return norm


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def _search_op(spec: str, prop: str, seed_set=None, seed_name: str = "") -> Op:
    key = f"search {spec} {prop}"
    config = search_mod.SearchConfig(parse_lattice_spec(spec), prop, seed_set=seed_set)
    op_id = f"{key} seed={seed_name}" if seed_set is not None else key
    # looked up at call time, so the traced pass sees its wrapper
    return Op(op_id, key, lambda: search_mod.run_search(config), _search_norm)


def _cli_call(argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_mod.main(argv)
    return code, out.getvalue()


def _cli_op(op_id: str, argv: list, key: Optional[str] = None, out: Optional[Path] = None) -> Op:
    argv = [str(a) for a in argv]
    norm = _file_norm(out) if out is not None else _cli_norm
    return Op(op_id, key or op_id, lambda: _cli_call(argv), norm)


def _startup_op(i: int, argv: list, env: dict, cwd: Path) -> Op:
    cmd = [sys.executable, "-m", "latsets", *argv]

    def run() -> tuple:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=cwd, timeout=120)
        return proc.returncode, proc.stdout

    return Op(f"startup {i}", "startup", run, _cli_norm, subprocess=True)


def _search_boolean(scale: str, rng: random.Random, tmp: Path) -> list:
    small, large = (5, 6) if scale == "full" else (3, 4)
    ops = [_search_op(f"b:{n}", p) for n in (small, large) for p in PROPERTIES]
    block = construct_mod.block_construction_bn(large)
    ops.append(_search_op(f"b:{large}", "strongly_cancellative", block, "block"))
    return ops


def _search_chain(scale: str, rng: random.Random, tmp: Path) -> list:
    if scale == "full":
        cases = [("d:4^3", "strongly_cancellative"), ("d:4^3", "recovering"),
                 ("d:3,3,4", "strongly_cancellative"), ("d:5,5", "strongly_cancellative"),
                 ("d:3,3", "cancellative")]
    else:
        cases = [("d:3,3", "strongly_cancellative"), ("d:3,3", "recovering"),
                 ("d:2,3,3", "strongly_cancellative"), ("d:3,4", "strongly_cancellative"),
                 ("d:2,3", "cancellative")]
    return [_search_op(spec, prop) for spec, prop in cases]


def random_boolean_family(rng: random.Random, n: int, size: int) -> PointSet:
    """`size` distinct uniform points of B_n."""
    masks = rng.sample(range(1 << n), size)
    points = [tuple((m >> i) & 1 for i in range(n)) for m in masks]
    return PointSet.from_coords(ChainProductLattice.boolean(n), points)


def _verifier_ops(scale: str, rng: random.Random, tmp: Path) -> list:
    n, (pl, pk), rsize = (20, (4, 8), 1024) if scale == "full" else (8, (3, 4), 16)
    families = {
        f"block-bn{n}": construct_mod.block_construction_bn(n),
        f"power{pl},{pk}": construct_mod.power_construction(pl, pk),
    }
    rand = random_boolean_family(rng, n, rsize)
    memo: dict = {}

    def reference(prop: str):
        if prop not in memo:
            memo[prop] = reference_violation(rand, prop)
        return memo[prop]

    ops = []
    for name, fam in [*families.items(), (f"random-bn{n}", rand)]:
        for prop in PROPERTIES:
            sat = Op(f"satisfies {name} {prop}", f"satisfies {name} {prop}",
                     lambda f=fam, p=prop: verify_mod.satisfies(f, p), bool)
            viol = Op(f"find_violation {name} {prop}", f"find_violation {name} {prop}",
                      lambda f=fam, p=prop: verify_mod.find_violation(f, p), _violation_norm)
            if fam is rand:
                sat.reference = lambda p=prop: reference(p) is None
                viol.reference = lambda p=prop: reference(p)
            ops += [sat, viol]
    return ops


def _cli_ops(scale: str, rng: random.Random, tmp: Path) -> list:
    full = scale == "full"
    n, pl, pk, ck = (12, 3, 8, 8) if full else (6, 2, 4, 4)
    greedy = ("b:12", "d:4^6") if full else ("b:6", "d:3^3")
    exact = "b:5" if full else "b:3"
    inp, out = tmp / "in", tmp / "out"
    inp.mkdir()
    out.mkdir()
    save = setfile_mod.save_set_file
    save(construct_mod.block_construction_bn(n), inp / "block.json")
    save(construct_mod.power_construction(pl, pk), inp / "power.json")
    save(construct_mod.diagonal_construction(pl, pl), inp / "diagonal.json")
    rn, rpoints = RECOVERING_FAMILY[scale]
    save(PointSet.from_coords(ChainProductLattice.boolean(rn), rpoints), inp / "recovering.json")
    anchor = ",".join(["1,0"] * (n // 2))  # a member of the block family

    ops = [
        _cli_op("construct block-bn", ["construct", "--family", "block-bn", "--n", n,
                                       "-o", out / "block.json"], out=out / "block.json"),
        _cli_op("construct power", ["construct", "--family", "power", "--l", pl, "--k", pk,
                                    "-o", out / "power.json"], out=out / "power.json"),
        _cli_op("construct compose", ["construct", "--family", "compose", "--base",
                                      inp / "diagonal.json", "--k", ck,
                                      "-o", out / "compose.json"], out=out / "compose.json"),
        _cli_op("verify block sc", ["verify", inp / "block.json",
                                    "--property", "strongly-cancellative"]),
        _cli_op("verify block recovering", ["verify", inp / "block.json",
                                            "--property", "recovering"]),
        _cli_op("verify power sc", ["verify", inp / "power.json",
                                    "--property", "strongly-cancellative"]),
        _cli_op("entropy block anchor", ["entropy", inp / "block.json", "--anchor", anchor]),
        _cli_op("entropy recovering", ["entropy", inp / "recovering.json"]),
        _cli_op("bounds sc json", ["bounds", "--lattice", f"b:{n}",
                                   "--property", "strongly-cancellative", "--json"]),
        _cli_op("bounds recovering json", ["bounds", "--lattice", f"b:{n}",
                                           "--property", "recovering", "--json"]),
        _cli_op("table sc-bn csv", ["table", "--family", "sc-bn", "--n", f"2..{n}"]),
        _cli_op("table dlk json", ["table", "--family", "dlk", "--l", pl, "--k", f"2..{pk}",
                                   "--format", "json"]),
        *[_cli_op(f"search greedy {spec}", ["search", "--lattice", spec, "--property",
                                            "strongly-cancellative", "--mode", "greedy"])
          for spec in greedy],
        _cli_op("search exact", ["search", "--lattice", exact,
                                 "--property", "strongly-cancellative"]),
        _cli_op("search exact threads=2", ["search", "--lattice", exact, "--property",
                                           "strongly-cancellative", "--threads", "2"],
                key="search exact"),
    ]
    root = Path(cli_mod.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    startup_argv = ["bounds", "--lattice", "b:7", "--property", "strongly-cancellative"]
    ops += [_startup_op(i, startup_argv, env, tmp) for i in range(3 if full else 1)]
    return ops


def _verify_cli(scale: str, rng: random.Random, tmp: Path) -> list:
    return _verifier_ops(scale, rng, tmp) + _cli_ops(scale, rng, tmp)


_BUILDERS = {
    "search-boolean": _search_boolean,
    "search-chain": _search_chain,
    "verify-cli": _verify_cli,
}
WORKLOADS = tuple(_BUILDERS)


def setup(workload: str, scale: str, rng: random.Random, tmp: Path) -> list:
    """Build the inputs of one workload and return its operations."""
    return _BUILDERS[workload](scale, rng, tmp)


# ---------------------------------------------------------------------------
# reference for the random families
# ---------------------------------------------------------------------------

def reference_violation(s: PointSet, prop: str) -> Optional[dict]:
    """The violation find_violation documents, by naive scans over index
    tuples of the canonically sorted family (B_n only).

    Triples are ordered by anchor, then by the later of the two colliding
    members; quads by (a1, a2, a3, a4) with the pair (a1, a2) before (a3, a4).
    Across kinds the smaller witness index tuple wins, ties going to
    MeetTriple, JoinTriple, MeetQuad, JoinQuad in that order.
    """
    pts = sorted(p.coords for p in s.points)
    vals = [sum(c << i for i, c in enumerate(p)) for p in pts]
    meet, join = (lambda a, b: a & b), (lambda a, b: a | b)
    kinds = [("MeetTriple", _first_triple, meet)]
    if prop != "cancellative":
        kinds.append(("JoinTriple", _first_triple, join))
    if prop == "recovering":
        kinds += [("MeetQuad", _first_quad, meet), ("JoinQuad", _first_quad, join)]
    best = None
    for rank, (kind, finder, op) in enumerate(kinds):
        found = finder(vals, op, best[0][0] if best else None)
        if found is not None and (best is None or (found[0], rank) < best[0]):
            best = ((found[0], rank), kind, found)
    if best is None:
        return None
    _, kind, (idx, value) = best
    n = s.lattice.k
    return {"kind": kind, "witnesses": [list(pts[i]) for i in idx],
            "value": [(value >> i) & 1 for i in range(n)]}


def _first_triple(vals: list, op, limit) -> Optional[tuple]:
    n = len(vals)
    for i in range(n):
        if limit is not None and (i,) > limit[:1]:
            return None
        a = vals[i]
        for b2 in range(n):
            if b2 == i:
                continue
            v = op(a, vals[b2])
            for b1 in range(b2):
                if b1 != i and op(a, vals[b1]) == v:
                    return (i, b1, b2), v
    return None


def _first_quad(vals: list, op, limit) -> Optional[tuple]:
    n = len(vals)
    for p0 in range(n):
        for p1 in range(p0 + 1, n):
            if limit is not None and (p0, p1) > limit[:2]:
                return None
            v = op(vals[p0], vals[p1])
            for q0 in range(p0 + 1, n):
                if q0 == p1:
                    continue
                a = vals[q0]
                for q1 in range(q0 + 1, n):
                    if q1 != p1 and op(a, vals[q1]) == v:
                        return (p0, p1, q0, q1), v
    return None

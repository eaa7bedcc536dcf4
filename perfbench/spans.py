"""Span tracing at the layer boundaries of latsets, for the traced pass only.

Each public function of a layer is wrapped where its callers look it up:
the attribute of the calling module (latsets.search.enumerate_lattice,
latsets.cli.find_violation, ...).  The wrappers live here, are installed
only around the traced pass and are removed afterwards, so the untraced
pass runs the program untouched.  Spans record the name, start, end,
parent span and operation id; they stay in memory until the run ends.
Calls made from other threads (the workers of a threaded search) pass
through unrecorded.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import threading
import time
from collections import defaultdict


def _points(result, *args) -> dict:
    return {"points": len(result)}


def _pairs(result, s, *args) -> dict:
    return {"pairs": s.size * (s.size - 1) // 2}


def _search(result, config, *args) -> dict:
    return {"nodes": result.nodes_explored, "proven": result.proven_optimal,
            "single": config.thread_count == 1}


def _saved_bytes(result, s, path) -> dict:
    return {"bytes": os.path.getsize(path)}


def _loaded_bytes(result, path) -> dict:
    return {"bytes": os.path.getsize(path)}


def _dumped_bytes(result, *args) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


# (calling module, attribute, layer, counts taken from (result, *args))
BOUNDARIES = [
    ("search", "run_search", "search", _search),
    ("cli", "run_search", "search", _search),
    ("search", "enumerate_lattice", "lattice", _points),
    ("cli", "parse_lattice_spec", "lattice", None),
    ("verify", "satisfies", "verify", _pairs),
    ("verify", "find_violation", "verify", _pairs),
    ("search", "satisfies", "verify", _pairs),
    ("cli", "find_violation", "verify", _pairs),
    ("cli", "pair_statistics", "verify", _pairs),
    ("cli", "anchored_entropy", "verify", None),
    ("cli", "is_recovering", "verify", _pairs),
    ("bounds", "pair_statistics", "verify", _pairs),
    ("bounds", "is_recovering", "verify", _pairs),
    ("construct", "is_strongly_cancellative", "verify", _pairs),
    ("construct", "block_construction_bn", "construct", _points),
    ("construct", "diagonal_construction", "construct", _points),
    ("construct", "power_construction", "construct", _points),
    ("cli", "block_construction_bn", "construct", _points),
    ("cli", "diagonal_construction", "construct", _points),
    ("cli", "product_composition", "construct", _points),
    ("cli", "power_construction", "construct", _points),
    ("verify", "entropy", "entropy", None),
    ("cli", "entropy", "entropy", None),
    ("bounds", "subadditivity_check", "entropy", None),
    ("search", "applicable_bounds", "bounds", None),
    ("cli", "applicable_bounds", "bounds", None),
    ("cli", "empirical_recovering_entropy", "bounds", None),
    ("cli", "bound_sc_bn", "bounds", None),
    ("cli", "bound_dlk", "bounds", None),
    ("setfile", "save_set_file", "setfile", _saved_bytes),
    ("cli", "save_set_file", "setfile", _saved_bytes),
    ("cli", "dumps_set_file", "setfile", _dumped_bytes),
    ("cli", "load_set_file", "setfile", _loaded_bytes),
    ("cli", "main", "cli", None),
]


class Tracer:
    """In-memory span recorder with wrappers at the layer boundaries."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.phase = "setup"  # "setup" or the index of the traced pass
        self.op = None
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._saved: list = []

    def open(self, name: str, layer: str) -> dict:
        span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                "op": self.op, "phase": self.phase, "name": name, "layer": layer,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, layer: str, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            span = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
                if counts is not None:
                    span.update(counts(result, *args))
                return result
            finally:
                self.close(span)
        return wrapper

    def install(self) -> None:
        for module, attr, layer, counts in BOUNDARIES:
            mod = importlib.import_module(f"latsets.{module}")
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, f"{layer}.{attr}", layer, counts))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one traced pass (plus the traced set-up).

    Times of a layer sum its outermost spans, so a layer calling itself is
    not counted twice; self time subtracts the time of child spans.
    """
    by_id = {s["id"]: s for s in spans}
    child_time: dict = defaultdict(float)
    for s in spans:
        if s["parent"] in by_id:
            child_time[s["parent"]] += s["end"] - s["start"]

    def dur(s) -> float:
        return s["end"] - s["start"]

    def outermost(s) -> bool:
        p = by_id.get(s["parent"])
        while p is not None:
            if p["layer"] == s["layer"]:
                return False
            p = by_id.get(p["parent"])
        return True

    top = [s for s in spans if outermost(s)]

    def total(pred, value=dur) -> float:
        return sum(value(s) for s in top if pred(s))

    def named(*names):
        return lambda s: s["name"] in names

    def layer(name):
        return lambda s: s["layer"] == name

    def self_time(s) -> float:
        return dur(s) - child_time[s["id"]]

    searches = [s for s in top if s["layer"] == "search"]
    single = [s for s in searches if s.get("single")]
    nodes = sum(s["nodes"] for s in single)
    single_self = sum(self_time(s) for s in single)
    verify_s = total(layer("verify"))
    pairs = total(layer("verify"), lambda s: s.get("pairs", 0))
    startups = [dur(s) for s in spans if s["name"] == "op" and s.get("subprocess")]
    return {
        "search.nodes": (nodes, "count"),
        "search.proven_ratio": (
            sum(s.get("proven", False) for s in searches) / len(searches) if searches else 0.0, "ratio"),
        "search.self_s": (sum(self_time(s) for s in searches), "s"),
        "search.nodes_per_s": (nodes / single_self if single_self else 0.0, "1/s"),
        "lattice.enumerate_s": (total(named("lattice.enumerate_lattice")), "s"),
        "lattice.points": (total(layer("lattice"), lambda s: s.get("points", 0)), "count"),
        "lattice.parse_s": (total(named("lattice.parse_lattice_spec")), "s"),
        "verify.satisfies_s": (total(named("verify.satisfies")), "s"),
        "verify.find_violation_s": (total(named("verify.find_violation")), "s"),
        "verify.pair_statistics_s": (total(named("verify.pair_statistics")), "s"),
        "verify.calls": (sum(1 for s in top if s["layer"] == "verify"), "count"),
        "verify.pairs_computed": (pairs, "count"),
        "verify.pairs_per_s": (pairs / verify_s if verify_s else 0.0, "1/s"),
        "construct.s": (total(layer("construct")), "s"),
        "construct.points": (total(layer("construct"), lambda s: s.get("points", 0)), "count"),
        "setfile.dump_s": (total(named("setfile.save_set_file", "setfile.dumps_set_file")), "s"),
        "setfile.load_s": (total(named("setfile.load_set_file")), "s"),
        "setfile.bytes": (total(layer("setfile"), lambda s: s.get("bytes", 0)), "bytes"),
        "bounds.applicable_s": (total(named("bounds.applicable_bounds")), "s"),
        "bounds.sandwich_s": (total(named("bounds.empirical_recovering_entropy")), "s"),
        "entropy.s": (total(layer("entropy")), "s"),
        "cli.calls": (sum(1 for s in top if s["name"] == "cli.main"), "count"),
        "cli.self_s": (total(named("cli.main"), self_time), "s"),
        "cli.startup_ms": (statistics.median(startups) * 1000 if startups else 0.0, "ms"),
    }

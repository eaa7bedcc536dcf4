"""JSON files holding one point family.

Schema::

    {"lattice": {"kind": "chain_product", "lengths": [2, 2, 2, 2]},
     "points": [[0, 1, 0, 1], ...],
     "subsets": [[2, 4], ...]}          # Boolean lattices only, redundant

Points are written in canonical order, so write-then-read is the identity.
The optional "subsets" field mirrors the points as 1-indexed element lists
for readability on B_n; when both fields are present but disagree, points
win and a warning is emitted.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Union

from .lattice import ChainProductLattice, Point, PointSet, subset_decode, subset_encode


def point_set_to_json_dict(s: PointSet) -> dict:
    s = s.canonical()
    data: dict = {
        "lattice": {"kind": "chain_product", "lengths": list(s.lattice.lengths)},
        "points": [list(p.coords) for p in s.points],
    }
    if s.lattice.is_boolean:
        data["subsets"] = [list(subset_decode(p)) for p in s.points]
    return data


def point_set_from_json_dict(data: dict) -> PointSet:
    if not isinstance(data, dict):
        raise ValueError("set file must be a JSON object")
    lattice_data = data.get("lattice")
    if not isinstance(lattice_data, dict) or lattice_data.get("kind") != "chain_product":
        raise ValueError('set file needs "lattice": {"kind": "chain_product", ...}')
    lengths = lattice_data.get("lengths")
    if not isinstance(lengths, list):
        raise ValueError('set file lattice needs a "lengths" list')
    lattice = ChainProductLattice(tuple(lengths))

    points = data.get("points")
    subsets = data.get("subsets")
    for name, field in (("points", points), ("subsets", subsets)):
        if field is not None and not (
            isinstance(field, list) and all(isinstance(v, list) for v in field)
        ):
            raise ValueError(f'set file "{name}" must be a list of lists')
    if points is None:
        if subsets is None:
            raise ValueError('set file needs a "points" list')
        if not lattice.is_boolean:
            raise ValueError('"subsets" without "points" needs a Boolean lattice')
        return PointSet(lattice, tuple(subset_encode(sub, lattice.k) for sub in subsets))
    family = PointSet(lattice, tuple(Point(tuple(c)) for c in points))
    if subsets is not None and lattice.is_boolean:
        from_subsets = sorted(subset_encode(sub, lattice.k).coords for sub in subsets)
        if from_subsets != sorted(p.coords for p in family):
            warnings.warn('set file "subsets" disagrees with "points"; using points')
    return family


def dumps_set_file(s: PointSet) -> str:
    return json.dumps(point_set_to_json_dict(s), indent=2) + "\n"


def loads_set_file(text: str) -> PointSet:
    try:
        data = json.loads(text)
    except RecursionError:
        # arrays or objects nested deeper than the interpreter's stack
        raise ValueError("set file is nested too deeply to read") from None
    return point_set_from_json_dict(data)


def save_set_file(s: PointSet, path: Union[str, Path]) -> None:
    Path(path).write_text(dumps_set_file(s), encoding="utf-8")


def load_set_file(path: Union[str, Path]) -> PointSet:
    return loads_set_file(Path(path).read_text(encoding="utf-8"))

import json

import pytest

from latsets import (
    ChainProductLattice,
    PointSet,
    block_construction_bn,
    diagonal_construction,
    dumps_set_file,
    load_set_file,
    loads_set_file,
    power_construction,
    save_set_file,
)


@pytest.mark.parametrize("family", [
    block_construction_bn(4),
    block_construction_bn(5),
    diagonal_construction(3, 5),
    power_construction(3, 4),
    PointSet.from_coords(ChainProductLattice((4, 2, 3)), [(3, 1, 0), (0, 0, 2)]),
])
def test_round_trip(tmp_path, family):
    path = tmp_path / "set.json"
    save_set_file(family, path)
    loaded = load_set_file(path)
    assert loaded.lattice == family.lattice
    assert loaded.points == family.canonical().points
    # writing again is byte-identical
    assert dumps_set_file(loaded) == path.read_text(encoding="utf-8")


def test_boolean_files_carry_subsets():
    data = json.loads(dumps_set_file(block_construction_bn(4)))
    assert data["subsets"] == [[2, 4], [2, 3], [1, 4], [1, 3]]
    assert data["points"][0] == [0, 1, 0, 1]
    # non-Boolean files do not
    data = json.loads(dumps_set_file(diagonal_construction(3, 3)))
    assert "subsets" not in data
    assert data["lattice"] == {"kind": "chain_product", "lengths": [3, 3]}


def test_load_from_subsets_only():
    text = json.dumps({
        "lattice": {"kind": "chain_product", "lengths": [2, 2, 2]},
        "subsets": [[1, 3], [2]],
    })
    loaded = loads_set_file(text)
    assert {p.coords for p in loaded} == {(1, 0, 1), (0, 1, 0)}


def test_points_win_over_conflicting_subsets():
    text = json.dumps({
        "lattice": {"kind": "chain_product", "lengths": [2, 2]},
        "points": [[1, 0]],
        "subsets": [[2]],
    })
    with pytest.warns(UserWarning, match="using points"):
        loaded = loads_set_file(text)
    assert [p.coords for p in loaded] == [(1, 0)]


def test_consistent_subsets_no_warning(recwarn):
    loaded = loads_set_file(dumps_set_file(block_construction_bn(4)))
    assert loaded.size == 4
    assert not [w for w in recwarn.list if issubclass(w.category, UserWarning)]


def test_parse_errors():
    bad_files = [
        "[]",
        '{"points": [[0, 0]]}',
        '{"lattice": {"kind": "poset", "lengths": [2]}, "points": []}',
        '{"lattice": {"kind": "chain_product"}, "points": []}',
        '{"lattice": {"kind": "chain_product", "lengths": [2, 2]}}',
        '{"lattice": {"kind": "chain_product", "lengths": [2, 2]}, "points": [[0, 5]]}',
        '{"lattice": {"kind": "chain_product", "lengths": [2, 2]}, "points": [[0], [0]]}',
        '{"lattice": {"kind": "chain_product", "lengths": [3, 3]}, "subsets": [[1]]}',
        '{"lattice": {"kind": "chain_product", "lengths": [true, 3]}, "points": [[0, 0]]}',
        '{"lattice": {"kind": "chain_product", "lengths": [2, 2]}, "points": [[false, 1]]}',
        '{"lattice": {"kind": "chain_product", "lengths": [2, 2]}, "subsets": [[true]]}',
        '{"lattice": {"kind": "chain_product", "lengths": [2, 2]}, "points": [5]}',
        '{"lattice": {"kind": "chain_product", "lengths": [2, 2]}, "points": [null]}',
        '{"lattice": {"kind": "chain_product", "lengths": [2, 2]}, "points": {"a": 1}}',
        '{"lattice": {"kind": "chain_product", "lengths": [2, 2]}, "subsets": [3]}',
        '{"lattice": {"kind": "chain_product", "lengths": [2, 2]}, "subsets": 5}',
        '{"lattice": {"kind": "chain_product", "lengths": [2, 2]}, "points": 7,'
        ' "subsets": [[1]]}',
        '{"lattice": {"kind": "chain_product", "lengths": [2, 2]},'
        ' "points": [[0, "a"], [0, 1]], "subsets": [[1]]}',
        "not json",
    ]
    for text in bad_files:
        with pytest.raises(ValueError):
            loads_set_file(text)


def test_duplicate_points_rejected():
    text = json.dumps({
        "lattice": {"kind": "chain_product", "lengths": [2, 2]},
        "points": [[0, 1], [0, 1]],
    })
    with pytest.raises(ValueError, match="duplicate"):
        loads_set_file(text)

import json
import math
import re
import subprocess
import sys
import time

import latsets.cli
from latsets.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_to_file_and_verify(capsys, tmp_path):
    path = tmp_path / "block4.json"
    code, out, _ = run_cli(capsys, "construct", "--family", "block-bn", "--n", "4",
                           "-o", str(path))
    assert code == 0
    assert out.strip() == "family=block-bn size=4"

    code, out, _ = run_cli(capsys, "verify", str(path), "--property",
                           "strongly-cancellative")
    assert code == 0
    assert out.strip() == "OK size=4"

    code, out, _ = run_cli(capsys, "verify", str(path), "--property", "recovering")
    assert code == 2
    violation = json.loads(out)
    assert violation["kind"] == "MeetQuad"
    assert violation["value"] == [0, 0, 0, 0]


def test_construct_to_stdout(capsys):
    code, out, err = run_cli(capsys, "construct", "--family", "diagonal",
                             "--l1", "3", "--l2", "5")
    assert code == 0
    assert "family=diagonal size=3" in err
    data = json.loads(out)
    assert data["points"] == [[0, 2], [1, 1], [2, 0]]


def test_construct_power_and_compose(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "construct", "--family", "power",
                           "--l", "3", "--k", "4", "-o", str(tmp_path / "p.json"))
    assert code == 0 and "size=9" in out

    base = tmp_path / "base.json"
    run_cli(capsys, "construct", "--family", "diagonal", "--l1", "3", "--l2", "3",
            "-o", str(base))
    code, out, _ = run_cli(capsys, "construct", "--family", "compose",
                           "--base", str(base), "--k", "5", "-o", str(tmp_path / "c.json"))
    assert code == 0 and "size=9" in out


def test_construct_missing_params(capsys):
    code, _, err = run_cli(capsys, "construct", "--family", "block-bn")
    assert code == 1
    assert "needs --n" in err
    code, _, err = run_cli(capsys, "construct", "--family", "block-bn", "--n", "1")
    assert code == 1
    code, out, err = run_cli(capsys, "construct", "--family", "block-bn", "--n", "64")
    assert code == 1 and out == "" and "too large" in err


def test_construct_deterministic_bytes(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "construct", "--family", "power", "--l", "4", "--k", "5",
            "-o", str(a))
    run_cli(capsys, "construct", "--family", "power", "--l", "4", "--k", "5",
            "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_verify_bad_files(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", str(bad), "--property", "recovering")
    assert code == 1 and "error:" in err

    code, _, err = run_cli(capsys, "verify", str(tmp_path / "missing.json"),
                           "--property", "recovering")
    assert code == 1

    # a JSON true length would otherwise read as a 1-element chain
    bool_length = tmp_path / "bool.json"
    bool_length.write_text('{"lattice": {"kind": "chain_product", "lengths": [true, 3]},'
                           ' "points": [[0, 0]]}', encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", str(bool_length), "--property", "recovering")
    assert code == 1 and out == "" and "error:" in err

    lattice = '{"lattice": {"kind": "chain_product", "lengths": [2, 2]}, '
    for fields in ['"points": [5]', '"points": [null]', '"subsets": [3]',
                   '"subsets": 5', '"points": 7, "subsets": [[1]]',
                   '"points": [[0, "a"], [0, 1]], "subsets": [[1]]']:
        bad.write_text(lattice + fields + "}", encoding="utf-8")
        code, out, err = run_cli(capsys, "verify", str(bad), "--property", "recovering")
        assert code == 1 and out == "" and "error:" in err, fields


def test_usage_errors_exit_1(capsys):
    assert main(["verify"]) == 1  # missing args
    assert main(["frobnicate"]) == 1  # unknown subcommand
    assert main([]) == 1
    assert main(["search", "--lattice", "q:4", "--property", "recovering"]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()
    code, out, err = run_cli(capsys, "search", "--lattice", "b:4", "--property",
                             "strongly-cancellative", "--progress", "-5")
    assert code == 1 and out == "" and err == "error: progress_interval must be >= 0\n"


def test_search_exact(capsys):
    code, out, _ = run_cli(capsys, "search", "--lattice", "b:4",
                           "--property", "strongly-cancellative", "--mode", "exact")
    assert code == 0
    data = json.loads(out)
    assert data["bestSize"] == 4
    assert data["provenOptimal"] is True
    assert data["lattice"] == "b:4"
    assert len(data["bestSet"]) == 4

    code, out, _ = run_cli(capsys, "search", "--lattice", "d:3,3",
                           "--property", "strongly-cancellative")
    assert json.loads(out)["bestSize"] == 3

    code, out, _ = run_cli(capsys, "search", "--lattice", "b:3",
                           "--property", "recovering")
    assert json.loads(out)["bestSize"] == 2  # oracle-pinned


def test_search_flags(capsys, tmp_path):
    out_path = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, "search", "--lattice", "b:4",
                           "--property", "strongly-cancellative",
                           "--threads", "4", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == out

    code, out, _ = run_cli(capsys, "search", "--lattice", "b:4",
                           "--property", "strongly-cancellative",
                           "--node-budget", "5")
    data = json.loads(out)
    assert data["provenOptimal"] is False

    code, out, err = run_cli(capsys, "search", "--lattice", "b:4",
                             "--property", "strongly-cancellative",
                             "--progress", "10")
    assert code == 0
    assert "nodes=" in err and "best=" in err

    code, out, _ = run_cli(capsys, "search", "--lattice", "b:4",
                           "--property", "strongly-cancellative", "--mode", "greedy")
    data = json.loads(out)
    assert data["mode"] == "greedy" and data["bestSize"] >= 1


def test_search_unwritable_out_leaves_stdout_empty(capsys, tmp_path):
    # like construct -o and table, a failed search prints no result
    out_path = tmp_path / "missing" / "result.json"
    code, out, err = run_cli(capsys, "search", "--lattice", "b:3",
                             "--property", "recovering", "--out", str(out_path))
    assert code == 1 and out == "" and err.startswith("error:")
    assert not out_path.exists()


def test_search_progress_lines(capsys):
    # progress goes to stderr only: stdout is the same bytes with or without
    # it, and each line reports the nodes so far with their time and rate
    argv = ("search", "--lattice", "b:5", "--property", "cancellative")
    code, plain, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    code, out, err = run_cli(capsys, *argv, "--progress", "1")
    assert code == 0 and out == plain
    line = re.compile(r"nodes=(\d+) best=(\d+) elapsed_s=(\d+\.\d{3}) nodes_per_s=(\d+)")
    fields = [line.fullmatch(text) for text in err.splitlines()]
    assert fields and all(fields)
    nodes = [int(m[1]) for m in fields]
    elapsed = [float(m[3]) for m in fields]
    assert nodes == list(range(1, len(nodes) + 1))  # the stages, then the rerun
    assert elapsed == sorted(elapsed)


def test_search_seed(capsys, tmp_path):
    seed = tmp_path / "seed.json"
    run_cli(capsys, "construct", "--family", "block-bn", "--n", "4", "-o", str(seed))
    code, out, _ = run_cli(capsys, "search", "--lattice", "b:4",
                           "--property", "strongly-cancellative", "--seed", str(seed))
    assert code == 0 and json.loads(out)["bestSize"] == 4
    # a seed violating the property is a usage error
    code, _, err = run_cli(capsys, "search", "--lattice", "b:4",
                           "--property", "recovering", "--seed", str(seed))
    assert code == 1 and "does not satisfy" in err


def test_search_deterministic_output(capsys):
    args = ("search", "--lattice", "b:4", "--property", "strongly-cancellative")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args, "--threads", "3")
    assert out1 == out2


def test_malformed_lattice_spec_exits_1(capsys):
    # int() would read b:1_0 as b:10 and the fullwidth digit as 5
    for spec in ("b:1_0", "b:\uff15", "d:3,+4", "b: 4", "d:3^ 2"):
        code, out, err = run_cli(capsys, "bounds", "--lattice", spec,
                                 "--property", "recovering")
        assert (code, out) == (1, "")
        assert err.startswith("error: bad lattice spec"), spec


def test_malformed_integer_options_exit_1(capsys):
    # int() would read 1_0 as 10, +4 as 4 and the fullwidth digit as 5
    for argv in (["table", "--family", "sc-bn", "--n", "1_0..1_1"],
                 ["table", "--family", "sc-bn", "--n", "2..\uff15"],
                 ["table", "--family", "dlk", "--l", "3", "--k", "+4"],
                 ["table", "--family", "dlk", "--l", " 3", "--k", "4"],
                 ["construct", "--family", "block-bn", "--n", "1_0"],
                 ["construct", "--family", "diagonal", "--l1", "3", "--l2", "+3"],
                 ["construct", "--family", "power", "--l", "3", "--k", "\uff14"],
                 ["search", "--lattice", "b:3", "--property", "recovering",
                  "--node-budget", "1_0"],
                 ["search", "--lattice", "b:3", "--property", "recovering",
                  "--threads", "+1"],
                 ["search", "--lattice", "b:3", "--property", "recovering",
                  "--progress", "1_0"],
                 ["search", "--lattice", "b:3", "--property", "recovering",
                  "--progress", "+5"],
                 ["search", "--lattice", "b:3", "--property", "recovering",
                  "--progress", "-"],
                 # a reversed range would print only the header
                 ["table", "--family", "sc-bn", "--n", "5..2"],
                 ["table", "--family", "dlk", "--l", "3", "--k", "4..1"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert "error:" in err, argv


def test_malformed_anchor_exits_1(capsys, tmp_path):
    # int() would read each of these as the member (1, 0, 1, 0)
    path = tmp_path / "b4.json"
    run_cli(capsys, "construct", "--family", "block-bn", "--n", "4", "-o", str(path))
    code, out, _ = run_cli(capsys, "entropy", str(path), "--anchor", "1,0,1,0")
    assert code == 0 and json.loads(out)["anchoredEntropy"]["anchor"] == [1, 0, 1, 0]
    for anchor in ("+1,0,1,0", "1,0, 1,0", "1,0,1,0_0", "\uff11,0,1,0", "+1,0, 1,0_0"):
        code, out, err = run_cli(capsys, "entropy", str(path), "--anchor", anchor)
        assert (code, out) == (1, ""), anchor
        assert "bad anchor" in err, anchor


def test_bad_anchor_fails_before_pair_statistics(capsys, monkeypatch, tmp_path):
    # the anchor is parsed and placed before any pair statistics are taken
    calls = []
    pair_statistics = latsets.cli.pair_statistics
    monkeypatch.setattr(latsets.cli, "pair_statistics",
                        lambda *args: calls.append(args) or pair_statistics(*args))
    path = tmp_path / "b4.json"
    run_cli(capsys, "construct", "--family", "block-bn", "--n", "4", "-o", str(path))
    for anchor, message in (
            ("+1,0", "error: bad anchor '+1,0'; expected coords like 1,0,1,0\n"),
            ("1,1,1,1", "error: anchor Point(1, 1, 1, 1) is not in the set\n")):
        code, out, err = run_cli(capsys, "entropy", str(path), "--anchor", anchor)
        assert (code, out, err) == (1, "", message), anchor
    assert calls == []
    code, out, _ = run_cli(capsys, "entropy", str(path), "--anchor", "1,0,1,0")
    assert code == 0 and len(calls) == 2
    assert list(json.loads(out)) == ["lattice", "size", "meet", "join", "anchoredEntropy"]


def test_bounds_table(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--lattice", "b:7",
                           "--property", "strongly-cancellative")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["lattice", "property", "construction", "bound",
                                "name", "tight"]
    row = lines[1].split()
    assert row[2] == "8" and row[3] == "8" and row[5] == "yes"

    code, out, _ = run_cli(capsys, "bounds", "--lattice", "b:10",
                           "--property", "recovering", "--json")
    data = json.loads(out)
    assert len(data) == 1
    assert math.isclose(data[0]["upperBound"], 36.365, abs_tol=0.01)
    assert data[0]["constructionSize"] is None

    code, out, _ = run_cli(capsys, "bounds", "--lattice", "d:3^4",
                           "--property", "strongly-cancellative", "--json")
    data = json.loads(out)
    assert data[0]["constructionSize"] == 9 and data[0]["upperBound"] == 41.0

    code, out, err = run_cli(capsys, "bounds", "--lattice", "d:3,4,5",
                             "--property", "cancellative")
    assert code == 0
    assert "no applicable bounds" in err


def test_entropy_report(capsys, tmp_path):
    diag = tmp_path / "diag.json"
    run_cli(capsys, "construct", "--family", "diagonal", "--l1", "3", "--l2", "3",
            "-o", str(diag))
    code, out, _ = run_cli(capsys, "entropy", str(diag), "--op", "meet")
    assert code == 0
    data = json.loads(out)
    assert data["meet"]["maxMultiplicity"] <= 3
    assert "join" not in data
    assert "sandwich" in data  # the diagonal is recovering
    assert data["sandwich"]["lowerBound"] <= data["sandwich"]["hMeet"]

    code, out, _ = run_cli(capsys, "entropy", str(diag), "--anchor", "1,1")
    data = json.loads(out)
    expected = math.log2(2)
    assert math.isclose(data["anchoredEntropy"]["meet"], expected, abs_tol=1e-9)
    assert math.isclose(data["anchoredEntropy"]["join"], expected, abs_tol=1e-9)

    code, _, _ = run_cli(capsys, "entropy", str(diag), "--anchor", "9,9")
    assert code == 1
    code, _, err = run_cli(capsys, "entropy", str(diag), "--anchor", "1,x")
    assert code == 1 and "bad anchor" in err


def test_entropy_singleton(capsys, tmp_path):
    single = tmp_path / "single.json"
    single.write_text(json.dumps({
        "lattice": {"kind": "chain_product", "lengths": [2, 2]},
        "points": [[1, 0]],
    }), encoding="utf-8")
    code, out, _ = run_cli(capsys, "entropy", str(single))
    assert code == 0
    data = json.loads(out)
    assert data["meet"]["pairEntropy"] == 0.0
    assert data["join"]["pairEntropy"] == 0.0


def test_entropy_block_not_recovering_no_sandwich(capsys, tmp_path):
    block = tmp_path / "block.json"
    run_cli(capsys, "construct", "--family", "block-bn", "--n", "4", "-o", str(block))
    code, out, _ = run_cli(capsys, "entropy", str(block))
    data = json.loads(out)
    assert "sandwich" not in data
    assert data["meet"]["maxMultiplicity"] == 4  # the quad collision at bottom


def test_table_sc_bn(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "sc-bn", "--n", "2..8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,construction,bound,tight"
    assert lines[1] == "2,2,2,yes"
    assert lines[-1] == "8,16,16,yes"
    assert len(lines) == 8

    code, out, _ = run_cli(capsys, "table", "--family", "sc-bn", "--n", "4")
    assert code == 0 and out.splitlines()[1:] == ["4,4,4,yes"]
    for bad in ("2..x", "x"):
        code, _, err = run_cli(capsys, "table", "--family", "sc-bn", "--n", bad)
        assert code == 1 and "bad range" in err


def test_table_dlk(capsys):
    code, out, _ = run_cli(capsys, "table", "--family", "dlk", "--l", "3",
                           "--k", "2..6")
    lines = out.splitlines()
    assert lines[0] == "k,construction,bound"
    assert lines[1].startswith("2,3,")
    assert lines[3] == "4,9,41"
    assert len(lines) == 6

    code, out, _ = run_cli(capsys, "table", "--family", "dlk", "--l", "3",
                           "--k", "2..6", "--format", "json")
    data = json.loads(out)
    assert data[2] == {"k": 4, "construction": 9, "bound": 41.0}


def test_table_empty_range(capsys):
    # a range whose end is below its start is refused, not printed empty
    code, out, err = run_cli(capsys, "table", "--family", "sc-bn", "--n", "9..2")
    assert (code, out) == (1, "")
    assert err == "error: bad range '9..2'; <hi> is below <lo>\n"


def test_table_missing_flags(capsys):
    assert main(["table", "--family", "dlk"]) == 1
    assert main(["table", "--family", "sc-bn"]) == 1
    capsys.readouterr()


def test_construct_verify_pipeline_all_families(capsys, tmp_path):
    base = tmp_path / "base.json"
    code, _, _ = run_cli(capsys, "construct", "--family", "diagonal",
                         "--l1", "4", "--l2", "4", "-o", str(base))
    assert code == 0
    jobs = [
        (["--family", "block-bn", "--n", "7"], "strongly-cancellative"),
        (["--family", "diagonal", "--l1", "4", "--l2", "6"], "strongly-cancellative"),
        (["--family", "power", "--l", "2", "--k", "6"], "strongly-cancellative"),
        (["--family", "compose", "--base", str(base), "--k", "5"],
         "strongly-cancellative"),
        (["--family", "diagonal", "--l1", "4", "--l2", "4"], "recovering"),
    ]
    for i, (params, prop) in enumerate(jobs):
        path = tmp_path / f"fam{i}.json"
        code, _, _ = run_cli(capsys, "construct", *params, "-o", str(path))
        assert code == 0
        code, out, _ = run_cli(capsys, "verify", str(path), "--property", prop)
        assert code == 0, out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "latsets", "search", "--lattice", "b:2",
         "--property", "strongly-cancellative"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["bestSize"] == 2


def test_deeply_nested_set_file_exits_1(tmp_path):
    # json.loads runs out of stack on it: one error line, not a traceback
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000, encoding="utf-8")
    for argv in (["verify", str(nested), "--property", "recovering"],
                 ["entropy", str(nested)],
                 ["construct", "--family", "compose", "--base", str(nested), "--k", "2"]):
        proc = subprocess.run([sys.executable, "-m", "latsets", *argv],
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (1, ""), argv
        assert proc.stderr == "error: set file is nested too deeply to read\n", argv
        assert "Traceback" not in proc.stderr


def test_table_stops_at_first_unprintable_row(capsys, monkeypatch):
    # under a 640-digit limit 2^2127 (n = 4254) is the first construction
    # too long to print; no row after it is built
    built = []
    bound_sc_bn = latsets.cli.bound_sc_bn
    monkeypatch.setattr(latsets.cli, "bound_sc_bn", lambda n: built.append(n) or bound_sc_bn(n))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for fmt in ("csv", "json"):
            built.clear()
            code, out, err = run_cli(capsys, "table", "--family", "sc-bn", "--n", "2..12000",
                                     "--format", fmt)
            assert (code, out) == (1, "")
            assert err == "error: n = 4254: the construction has too many digits to print\n"
            assert built[-1] == 4254
    finally:
        sys.set_int_max_str_digits(limit)


def test_huge_bound_parameters_exit_1(capsys):
    # the bounds overflow a float; they are errors, not tracebacks
    for argv, names in (
        (["bounds", "--lattice", "b:2100", "--property", "strongly-cancellative"],
         "n = 2100"),
        (["bounds", "--lattice", "b:3000", "--property", "recovering"], "n = 3000"),
        (["bounds", "--lattice", "d:3^2000", "--property", "strongly-cancellative"],
         "l = 3, k = 2000"),
        (["table", "--family", "dlk", "--l", "3", "--k", "2000"], "l = 3, k = 2000"),
        # 3^30000000 has about 48 million bits: the bound must fail first
        (["table", "--family", "dlk", "--l", "3", "--k", "60000000"],
         "l = 3, k = 60000000"),
        # 2^15000 has more digits than str() converts (4300): no row is
        # printed, not even the header, and the first failing n is named
        (["table", "--family", "sc-bn", "--n", "30000"], "n = 30000"),
        (["table", "--family", "sc-bn", "--n", "30000", "--format", "json"], "n = 30000"),
        (["table", "--family", "sc-bn", "--n", "28560..28580"], "n = 28570"),
        # the rows before the first unprintable one are not converted
        (["table", "--family", "sc-bn", "--n", "2..30000"], "n = 28570"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert code == 1 and err.startswith("error:") and out == "", argv
        assert names in err, (argv, err)
        assert elapsed < 2.0, (argv, elapsed)

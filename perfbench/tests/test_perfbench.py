"""Tests of the benchmark itself, at tiny scale.

    python3 -m pytest perfbench/tests -q
"""

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import reference  # noqa: E402
import workloads  # noqa: E402
from latsets import find_violation  # noqa: E402


def bench(*args, cwd=ROOT):
    command = [sys.executable, *SPEC["command"][1:]]
    return subprocess.run([*command, "--scale", "tiny", "--seconds", "0.5", *args],
                          capture_output=True, text=True, timeout=170, cwd=cwd)


def result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_the_declared_metrics(workload, trace, kind):
    proc = bench("--workload", workload, "--seed", "7", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    out = result(proc)
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {name: m["unit"] for name, m in out["metrics"].items()} == units(kind)


def copy_bench(root: Path) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(BENCH, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root / "perfbench"


def test_corrupted_pinned_answer_is_counted_as_failed(tmp_path):
    answers_file = copy_bench(tmp_path) / "answers.json"
    answers = json.loads(answers_file.read_text(encoding="utf-8"))
    answers["tiny"]["search b:4 cancellative"]["bestSize"] += 1
    answers_file.write_text(json.dumps(answers), encoding="utf-8")
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    proc = bench("--workload", "search-boolean", "--seed", "1", cwd=tmp_path)
    out = result(proc)
    assert proc.returncode == 1
    assert not out["correct"] and out["failed"] > 0


def test_search_nodes_repeat_exactly():
    runs = [bench("--workload", "search-chain", "--seed", seed, "--trace", "1")
            for seed in ("1", "2")]
    nodes = [result(proc)["metrics"]["search.nodes"]["value"] for proc in runs]
    assert nodes[0] == nodes[1] > 0


def test_refuses_to_run_without_the_source_tree(tmp_path):
    copy_bench(tmp_path)
    proc = bench("--workload", "search-boolean", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_violation_agrees_with_find_violation():
    rng = random.Random(5)
    for n, size in [(4, 5), (5, 6), (6, 10), (8, 16), (8, 40)]:
        for _ in range(10):
            family = workloads.random_boolean_family(rng, n, size)
            for prop in workloads.PROPERTIES:
                v = find_violation(family, prop)
                want = None if v is None else v.to_json_dict()
                assert workloads.reference_violation(family, prop) == want


def test_speedometer_subtracts_its_chunks_and_restores_the_timer():
    previous = signal.getsignal(signal.SIGALRM)
    meter = reference.Speedometer()
    with meter:
        since = meter.mark()
        start = time.perf_counter()
        while time.perf_counter() - start < 0.2:
            pass
        dt = time.perf_counter() - start
        rescaled, factor = meter.rescale(dt, since)
    assert meter.mark() > since  # the timer ran chunks during the loop
    assert factor > 0 and 0 < rescaled < dt / factor
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

#!/usr/bin/env python3
"""Benchmark of latsets: exact search, large verifiers and the CLI pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload search-boolean --seed 1 --seconds 40 --trace 0

It imports latsets from the checkout's src/ tree, builds the workload's
inputs from --seed, then runs passes over the workload's operations in a
closed loop (one operation at a time) for --seconds: a new pass starts
only while the longest pass so far would still end in time.  Every
result is checked against the pinned answers in answers.json.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are rescaled to a machine of fixed speed by the reference kernel
of reference.py, which samples the machine's speed while the operations
run.  With --trace 0 the metrics are the end-to-end ones (wall_s,
op_p50_ms, setup_s, peak_rss_mb); with --trace 1 untraced and traced
passes alternate and the metrics are the per-layer ones and the tracing
overhead.  A record of the run (environment, raw and rescaled samples,
failures, spans) is written to .perfbench/results/ in the checkout.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import Speedometer, slowdown, timed_chunks
from spans import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
ANSWERS = HERE / "answers.json"
SETUP_SAMPLES = 9  # this process plus eight fresh ones


def parse_args(argv, workload_names) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny: the same workload on small lattices, for tests")
    p.add_argument("--setup-only", action="store_true",
                   help="import and set up once, print the set-up time and exit")
    return p.parse_args(argv)


def pin_environment() -> None:
    """Re-execute with a fixed hash seed and without LATSETS_THREADS, which
    would change the thread count of every search."""
    if os.environ.get("PYTHONHASHSEED") == "0" and "LATSETS_THREADS" not in os.environ:
        return
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("LATSETS_THREADS", None)
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, os.path.abspath(sys.argv[0]), *sys.argv[1:]], env)


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "latsets").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        loadavg = Path("/proc/loadavg").read_text().strip()
    except OSError:
        loadavg = None
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "loadavg_at_start": loadavg,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "LATSETS_THREADS": os.environ.get("LATSETS_THREADS"),
    }


def as_json(value):
    """The value as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


def run_pass(ops: list, order_rng: random.Random, meter: Speedometer,
             tracer=None) -> list:
    """Run every operation once in a seeded order; returns (op, seconds,
    rescaled seconds, slowdown, value, error) per operation."""
    order = list(ops)
    order_rng.shuffle(order)
    samples = []
    for op in order:
        span = None
        if tracer is not None:
            tracer.op = op.id
            span = tracer.open("op", "bench")
            span["subprocess"] = op.subprocess
        since = meter.mark()
        t = time.perf_counter()
        try:
            value, error = op.run(), None
        except Exception as exc:  # an operation that raises counts as failed
            value, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        if span is not None:
            tracer.close(span)
        samples.append((op, dt, *meter.rescale(dt, since), value, error))
    return samples


def check(op, value, error, answers: dict):
    """None when the operation's result is right, else why it is not."""
    if error is not None:
        return error
    if op.reference is None and op.key not in answers:
        return f"no pinned answer for {op.key!r}"
    try:
        got = as_json(op.norm(value))
        want = op.reference() if op.reference is not None else answers[op.key]
    except Exception as exc:  # a malformed result is a failed operation
        return f"checking raised {type(exc).__name__}: {exc}"
    if got != as_json(want):
        return f"result differs from the expected answer for {op.key!r}"
    return None


def rescaled_setup(setup_s: float) -> dict:
    """The set-up time, raw and rescaled by the speed of the reference
    kernel run right after it for as long again."""
    factor = slowdown(timed_chunks(setup_s))
    return {"raw_s": setup_s, "slowdown": factor, "s": setup_s / factor}


def setup_samples(args, count: int) -> list:
    """Set-ups of `count` fresh interpreters, one after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    times = []
    for _ in range(count):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.splitlines()[-1]))
    return times


def main(argv=None) -> int:
    if not (SRC / "latsets" / "__init__.py").is_file():
        print(f"error: no latsets source tree under {SRC}", file=sys.stderr)
        return 2
    if not ANSWERS.is_file():
        print(f"error: pinned answers {ANSWERS} not found", file=sys.stderr)
        return 2
    pin_environment()

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads  # imports latsets, timed as part of set-up

    args = parse_args(argv, workloads.WORKLOADS)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    tmp = WORK / f"tmp-{os.getpid()}"
    try:
        tmp.mkdir(parents=True)
        rng = random.Random(f"{args.workload}/{args.seed}")
        ops = workloads.setup(args.workload, args.scale, rng, tmp)
        setup = rescaled_setup(time.perf_counter() - t0)
        if tracer is not None:
            tracer.uninstall()
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        env = environment()
        print(json.dumps({"environment": env}), file=sys.stderr)
        answers = json.loads(ANSWERS.read_text(encoding="utf-8"))[args.scale]
        return measure(args, env, ops, answers, rng, setup, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, env, ops, answers, rng, setup, tracer) -> int:
    # pass times rescaled to the reference speed, keyed by "traced"
    walls = {False: [], True: []}
    raw_walls = {False: [], True: []}
    slowdowns = []  # median slowdown of the operations of each pass
    op_seconds: dict = {op.id: [] for op in ops}  # rescaled, untraced passes
    failures = []
    attempted = 0
    meter = Speedometer()
    start = time.perf_counter()
    index, longest = 0, 0.0
    while True:
        pass_start = time.perf_counter()
        traced = bool(args.trace) and index % 2 == 1
        if traced:
            tracer.phase = index
            tracer.install()
        try:
            with meter:
                samples = run_pass(ops, rng, meter, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        raw_walls[traced].append(sum(x[1] for x in samples))
        walls[traced].append(sum(x[2] for x in samples))
        slowdowns.append(statistics.median(x[3] for x in samples))
        for op, _, rescaled, _, value, error in samples:
            attempted += 1
            if not traced:
                op_seconds[op.id].append(rescaled)
            problem = check(op, value, error, answers)
            if problem is not None:
                failures.append({"pass": index, "op": op.id, "problem": problem})
        index += 1
        now = time.perf_counter()
        longest = max(longest, now - pass_start)
        enough = walls[False] and (walls[True] or not args.trace)
        if enough and now - start + longest > args.seconds:
            break  # the next pass would not end within --seconds

    all_op_s = [dt for values in op_seconds.values() for dt in values]
    record = {
        "workload": args.workload, "scale": args.scale, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "environment": env,
        "passes": {"untraced_wall_s": walls[False], "traced_wall_s": walls[True],
                   "untraced_raw_wall_s": raw_walls[False],
                   "traced_raw_wall_s": raw_walls[True], "median_op_slowdown": slowdowns},
        "reference_chunks": len(meter.times),
        "op_samples": len(all_op_s),
        "op_seconds": op_seconds,
        "failures": failures,
    }
    if args.trace:
        setup_spans = [s for s in tracer.spans if s["phase"] == "setup"]
        per_pass = [layer_metrics(setup_spans + [s for s in tracer.spans if s["phase"] == p])
                    for p in range(1, index, 2)]
        metrics = {name: {"value": statistics.median_low(m[name][0] for m in per_pass),
                          "unit": unit} for name, (_, unit) in per_pass[0].items()}
        metrics["trace.overhead_s"] = {
            "value": statistics.mean(walls[True]) - statistics.mean(walls[False]),
            "unit": "s"}
        record["spans"] = tracer.spans
    else:
        setups = [setup] + setup_samples(args, SETUP_SAMPLES - 1)
        record["setup_samples"] = setups
        metrics = {
            "wall_s": {"value": statistics.median(walls[False]), "unit": "s"},
            # median over the operations of each one's median latency in the
            # untraced passes; a pooled median would jump between two
            # operations whenever the number of passes changes
            "op_p50_ms": {"value": statistics.median(
                statistics.median(values) for values in op_seconds.values()) * 1000,
                "unit": "ms"},
            "setup_s": {"value": statistics.median(x["s"] for x in setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    record["metrics"] = metrics

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for failure in failures[:10]:
        print(f"FAILED pass {failure['pass']} {failure['op']}: {failure['problem']}",
              file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"raw pass wall time, median of untraced passes (not rescaled) = "
          f"{statistics.median(raw_walls[False]):.6g} s", file=sys.stderr)
    print(f"passes={index} op_samples={len(all_op_s)} failed={len(failures)}/{attempted} "
          f"record={out.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())

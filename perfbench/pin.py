#!/usr/bin/env python3
"""Regenerate the pinned answer table, answers.json.

    python3 perfbench/pin.py

Runs every pinned operation of every workload once, at both scales, and
records its normalized result.  Operations sharing an answer key (a seeded
and an unseeded search, a 2-thread and a 1-thread CLI search) must agree,
or nothing is written.  Answers are pinned from a known-good commit; a
later change that alters one is a correctness failure, not a new answer.
"""

from __future__ import annotations

import json
import random
import shutil
import sys

import run


def main() -> int:
    run.pin_environment()
    sys.path.insert(0, str(run.SRC))
    import workloads

    table: dict = {}
    for scale in workloads.SCALES:
        answers = table.setdefault(scale, {})
        for workload in workloads.WORKLOADS:
            tmp = run.WORK / f"pin-{workload}-{scale}"
            shutil.rmtree(tmp, ignore_errors=True)
            tmp.mkdir(parents=True)
            try:
                ops = workloads.setup(workload, scale, random.Random(f"{workload}/0"), tmp)
                for op in ops:
                    if op.reference is not None:
                        continue  # seeded random family: checked by a reference scan
                    got = run.as_json(op.norm(op.run()))
                    if answers.setdefault(op.key, got) != got:
                        print(f"error: {op.id} disagrees with {op.key}", file=sys.stderr)
                        return 1
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
    out = run.ANSWERS
    out.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, table.values()))} answers to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

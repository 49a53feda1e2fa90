#!/usr/bin/env python3
"""Regenerate BENCH_columnar.json: tuple executor vs columnar backend.

Usage:  PYTHONPATH=src python scripts/bench_columnar.py [output_path] [--smoke]

Times the ``compiled`` strategy (the serial tuple-at-a-time plan
executor — the oracle) against ``columnar`` (the vectorized batch
executor of :mod:`repro.columnar`) and records the speedup per point:

* Certain answers of ``poll_qa`` with free ``(p)`` and ``(p, t)`` and
  of ``q3`` with one large ``N(c, ·)`` block — the batch grids the
  columnar backend exists for.  The grids extend the BENCH_plan sizes
  upward because the batch win grows with input size: dictionary
  encoding and the version-tagged scan cache amortize across reruns
  the way the tuple executor's per-run set comprehensions cannot.
* Boolean certainty of ``poll_qa`` — recorded for honesty, expected at
  ~1.0x: sentences are *delegated* to the row executor's probe-mode
  short-circuit by design (see ``columnar_holds``), so both
  methods run the same code.

Every point also records a SHA-256 digest over the sorted answer set
of each method and asserts the two digests are identical — the
"byte-identical answers" contract the parity suites pin, re-checked on
the exact data the speedups are claimed for.

``--smoke`` (or ``BENCH_COLUMNAR_SMOKE=1``) shrinks every grid to CI
sizes; the digest cross-check still runs at every point.

The JSON is committed so CI and future sessions can compare against a
known-good baseline.
"""

import hashlib
import json
import os
import pathlib
import random
import sys
import time

from bench_plan import q3_database
from repro.core.terms import Variable
from repro.cqa.certain_answers import OpenQuery, certain_answers
from repro.cqa.engine import CertaintyEngine
from repro.fo.compile import plan_cache
from repro.workloads.poll import random_poll_database
from repro.workloads.queries import poll_qa, q3

ANSWER_SIZES = [(1200, 100), (4800, 320), (9600, 640), (19200, 1280)]
Q3_SIZES = [(1600, 800), (6400, 3200), (12800, 6400)]
BOOLEAN_SIZES = [(1200, 100), (2400, 160)]

SMOKE_ANSWER_SIZES = [(300, 40), (600, 80)]
SMOKE_Q3_SIZES = [(400, 200), (800, 400)]
SMOKE_BOOLEAN_SIZES = [(300, 40)]


def timed(fn, *args, repeat=5):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def answer_digest(answers):
    """SHA-256 over the sorted answer tuples (method-order independent)."""
    payload = "\n".join(repr(row) for row in sorted(answers, key=repr))
    return hashlib.sha256(payload.encode()).hexdigest()


def bench_answers(free_names, sizes):
    open_query = OpenQuery(poll_qa(), [Variable(n) for n in free_names])
    rows = []
    for people, towns in sizes:
        db = random_poll_database(people, towns, conflict_rate=0.5,
                                  rng=random.Random(73))
        certain_answers(open_query, db, "compiled")  # warm the plan cache
        expected, t_cp = timed(certain_answers, open_query, db, "compiled")
        certain_answers(open_query, db, "columnar")  # warm the scan cache
        got, t_col = timed(certain_answers, open_query, db, "columnar")
        digest = answer_digest(expected)
        assert answer_digest(got) == digest, (people, towns)
        rows.append({
            "people": people,
            "towns": towns,
            "facts": db.size(),
            "answers": len(expected),
            "compiled_s": round(t_cp, 6),
            "columnar_s": round(t_col, 6),
            "speedup": round(t_cp / t_col, 2) if t_col else None,
            "sha256": digest,
        })
    return rows


def bench_q3_answers(sizes):
    open_query = OpenQuery(q3(), [Variable("x")])
    rows = []
    for people, block in sizes:
        db = q3_database(people, block)
        certain_answers(open_query, db, "compiled")
        expected, t_cp = timed(certain_answers, open_query, db, "compiled")
        certain_answers(open_query, db, "columnar")
        got, t_col = timed(certain_answers, open_query, db, "columnar")
        digest = answer_digest(expected)
        assert answer_digest(got) == digest, (people, block)
        rows.append({
            "people": people,
            "block": block,
            "facts": db.size(),
            "answers": len(expected),
            "compiled_s": round(t_cp, 6),
            "columnar_s": round(t_col, 6),
            "speedup": round(t_cp / t_col, 2) if t_col else None,
            "sha256": digest,
        })
    return rows


def bench_boolean(sizes):
    engine = CertaintyEngine(poll_qa())
    rows = []
    for people, towns in sizes:
        db = random_poll_database(people, towns, conflict_rate=0.5,
                                  rng=random.Random(71))
        engine.certain(db, "compiled")
        expected, t_cp = timed(engine.certain, db, "compiled")
        got, t_col = timed(engine.certain, db, "columnar")
        assert got == expected, (people, towns)
        rows.append({
            "people": people,
            "towns": towns,
            "facts": db.size(),
            "answer": expected,
            "compiled_s": round(t_cp, 6),
            "columnar_s": round(t_col, 6),
            "speedup": round(t_cp / t_col, 2) if t_col else None,
        })
    return rows


def main(argv):
    args = [a for a in argv[1:] if a != "--smoke"]
    smoke = ("--smoke" in argv[1:]
             or os.environ.get("BENCH_COLUMNAR_SMOKE") == "1")
    out_path = pathlib.Path(args[0]) if args else (
        pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_columnar.json"
    )
    answer_sizes = SMOKE_ANSWER_SIZES if smoke else ANSWER_SIZES
    q3_sizes = SMOKE_Q3_SIZES if smoke else Q3_SIZES
    boolean_sizes = SMOKE_BOOLEAN_SIZES if smoke else BOOLEAN_SIZES
    report = {
        "mode": "smoke" if smoke else "full",
        "queries": {
            "poll_qa": "{Lives(p|t), not Born(p|t), not Likes(p,t|)}",
            "q3": "{P(x|y), not N('c'|y)}",
        },
        "methods": {
            "compiled": "serial tuple-at-a-time plan executor (oracle)",
            "columnar": "vectorized batch executor, dictionary-encoded "
                        "int columns and batch hash joins",
        },
        "digests": "per point, sha256 over the sorted answer set; "
                   "asserted identical between both methods",
        "certain_answers_p": bench_answers(["p"], answer_sizes),
        "certain_answers_pt": bench_answers(["p", "t"], answer_sizes),
        "certain_answers_q3": bench_q3_answers(q3_sizes),
        "boolean_certainty_probe_delegated": bench_boolean(boolean_sizes),
        "plan_cache": plan_cache.stats(),
    }
    report["largest_size_speedups"] = {
        "certain_answers_p": report["certain_answers_p"][-1]["speedup"],
        "certain_answers_pt": report["certain_answers_pt"][-1]["speedup"],
        "certain_answers_q3": report["certain_answers_q3"][-1]["speedup"],
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    for key, value in report["largest_size_speedups"].items():
        print(f"{key:24s} speedup at largest size: {value}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

#!/usr/bin/env python3
"""Regenerate BENCH_storage.json: the durable store's three cost axes.

Usage:  PYTHONPATH=src python scripts/bench_storage.py [output_path] [--smoke]

* **Commit throughput** — single-fact commits and batched commits per
  second under ``sync="always"`` (every commit fsyncs; the durability
  guarantee the chaos harness tests) and ``sync="off"`` (page-cache
  speed, the upper bound), so the fsync tax is visible.
* **Replay time vs WAL length** — recovery time as a function of the
  number of uncheckpointed WAL records, plus the same store reopened
  after a checkpoint (snapshot load, zero replay): the number QP111
  exists to keep bounded.
* **SQL-pushdown crossover** — certain answers of ``poll_qa`` via the
  native plan-IR SQL compiler on the delta-maintained integer-encoded
  mirror (``method="sql"``) against the in-memory compiled and
  columnar executors, the previous formula-SQL mirror design (warm
  TEXT connection, load excluded), and the legacy per-call-load path,
  across a size grid.  At every point a SHA-256 digest over the
  sorted answer set of each method is recorded and asserted identical
  — the speedups are only claimed for provably identical answers.

``--smoke`` (or ``BENCH_STORAGE_SMOKE=1``) shrinks every grid to CI
sizes; the digest cross-check still runs at every point.

The JSON is committed so CI and future sessions can compare against a
known-good baseline.
"""

import hashlib
import json
import os
import pathlib
import random
import shutil
import sys
import tempfile
import time

from repro.core.terms import Variable
from repro.cqa.certain_answers import OpenQuery, certain_answers
from repro.storage import PersistentDatabase, storage_stats
from repro.workloads.poll import random_poll_database
from repro.workloads.queries import poll_qa

COMMIT_COUNTS = {"single": 2000, "batched": 200, "rows_per_batch": 50}
REPLAY_GRID = [500, 2000, 8000]
CROSSOVER_SIZES = [(600, 60), (2400, 200), (9600, 640), (19200, 1280)]

SMOKE_COMMIT_COUNTS = {"single": 200, "batched": 20, "rows_per_batch": 20}
SMOKE_REPLAY_GRID = [100, 400]
SMOKE_CROSSOVER_SIZES = [(300, 40), (1200, 100)]


def answer_digest(answers):
    payload = "\n".join(repr(row) for row in sorted(answers, key=repr))
    return hashlib.sha256(payload.encode()).hexdigest()


def timed(fn, *args, repeat=3):
    best = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def fresh_dir(base, name):
    path = base / name
    if path.exists():
        shutil.rmtree(path)
    return path


def seed_store(path, db, sync=None):
    """A store holding a copy of ``db``'s facts, committed in one batch."""
    store = PersistentDatabase(path, sync=sync)
    for schema in db.schemas.values():
        store.add_relation(schema)
    with store.batch():
        for name in db.relations():
            store.add_all(name, db.facts(name))
    return store


def bench_commit_throughput(base, counts):
    from repro.core.atoms import RelationSchema

    rows = []
    for sync in ("always", "off"):
        store = PersistentDatabase(fresh_dir(base, f"commit-{sync}"),
                                   sync=sync)
        store.add_relation(RelationSchema("R", 2, 1))
        n = counts["single"]
        t0 = time.perf_counter()
        for i in range(n):
            store.add("R", (i, i))
        single_s = time.perf_counter() - t0

        b, width = counts["batched"], counts["rows_per_batch"]
        t0 = time.perf_counter()
        for i in range(b):
            with store.batch():
                for j in range(width):
                    store.add("R", (n + i * width + j, j))
        batched_s = time.perf_counter() - t0
        status = store.storage_status()
        store.close()
        rows.append({
            "sync": sync,
            "single_commits": n,
            "single_commits_per_s": round(n / single_s, 1),
            "batches": b,
            "rows_per_batch": width,
            "batched_rows_per_s": round(b * width / batched_s, 1),
            "wal_bytes": status["wal_bytes"],
        })
    return rows


def bench_replay(base, grid):
    from repro.core.atoms import RelationSchema

    rows = []
    for n in grid:
        directory = fresh_dir(base, f"replay-{n}")
        store = PersistentDatabase(directory, sync="off")
        store.add_relation(RelationSchema("R", 2, 1))
        for i in range(n):
            store.add("R", (i % 97, i))
        store.close()

        def reopen():
            db = PersistentDatabase(directory, sync="off")
            recovery = db.last_recovery
            db.close()
            return recovery

        recovery, replay_s = timed(reopen)
        entry = {
            "wal_records": n,
            "replayed_records": recovery["replayed_records"],
            "reopen_s": round(replay_s, 6),
            "replay_ms": round(recovery["replay_ms"], 3),
        }
        # Checkpoint, then measure the snapshot-only reopen.
        store = PersistentDatabase(directory, sync="off")
        store.checkpoint()
        store.close()
        recovery, snap_s = timed(reopen)
        entry["after_checkpoint_reopen_s"] = round(snap_s, 6)
        entry["after_checkpoint_replayed"] = recovery["replayed_records"]
        rows.append(entry)
    return rows


def bench_sql_crossover(base, sizes):
    from repro.cqa.certain_answers import certain_answers_sql_query
    from repro.db.sqlite_backend import load_database
    from repro.fo.sql import decode_value

    open_query = OpenQuery(poll_qa(), [Variable("p")])

    def formula_sql(conn, db):
        rows = conn.execute(certain_answers_sql_query(open_query, db))
        return frozenset(tuple(decode_value(v) for v in row) for row in rows)

    def formula_sql_fresh_load(db):
        conn = load_database(db)
        try:
            return formula_sql(conn, db)
        finally:
            conn.close()

    rows = []
    for people, towns in sizes:
        db = random_poll_database(people, towns, conflict_rate=0.5,
                                  rng=random.Random(73))
        store = seed_store(fresh_dir(base, f"xover-{people}"), db,
                           sync="off")
        expected = certain_answers(open_query, store, "compiled")
        digest = answer_digest(expected)
        point = {"people": people, "towns": towns, "facts": store.size(),
                 "answers": len(expected), "sha256": digest}
        # native_sql: method="sql" on the store runs the compiled plan
        # inside the integer-encoded mirror (single SELECT, no load).
        for method, key in (("compiled", "compiled_s"),
                            ("columnar", "columnar_s"),
                            ("sql", "native_sql_s")):
            certain_answers(open_query, store, method)  # warm caches/mirror
            got, seconds = timed(certain_answers, open_query, store, method)
            assert answer_digest(got) == digest, (people, towns, method)
            point[key] = round(seconds, 6)
        # formula_sql: the previous mirror design — formula-level SQL
        # over TEXT-encoded tables on an already-loaded warm connection
        # (load excluded from the timing).  The baseline the native
        # plan-IR compiler is gated against.
        warm = load_database(store)
        try:
            got, seconds = timed(formula_sql, warm, store)
            assert answer_digest(got) == digest, (people, towns,
                                                  "formula-sql")
            point["formula_sql_s"] = round(seconds, 6)
        finally:
            warm.close()
        # legacy_sql: the same formula SQL on the plain in-memory
        # database — every call loads every fact into a fresh sqlite
        # connection first (the copy the mirror exists to avoid).
        got, seconds = timed(formula_sql_fresh_load, db)
        assert answer_digest(got) == digest, (people, towns, "legacy-sql")
        point["legacy_sql_s"] = round(seconds, 6)
        point["native_vs_formula_sql"] = (
            round(point["formula_sql_s"] / point["native_sql_s"], 2)
            if point["native_sql_s"] else None)
        point["native_vs_legacy_sql"] = (
            round(point["legacy_sql_s"] / point["native_sql_s"], 2)
            if point["native_sql_s"] else None)
        point["native_vs_compiled"] = (
            round(point["compiled_s"] / point["native_sql_s"], 2)
            if point["native_sql_s"] else None)
        store.close()
        rows.append(point)
    return rows


def main(argv):
    args = [a for a in argv[1:] if a != "--smoke"]
    smoke = ("--smoke" in argv[1:]
             or os.environ.get("BENCH_STORAGE_SMOKE") == "1")
    out_path = pathlib.Path(args[0]) if args else (
        pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_storage.json"
    )
    commit_counts = SMOKE_COMMIT_COUNTS if smoke else COMMIT_COUNTS
    replay_grid = SMOKE_REPLAY_GRID if smoke else REPLAY_GRID
    crossover = SMOKE_CROSSOVER_SIZES if smoke else CROSSOVER_SIZES

    base = pathlib.Path(tempfile.mkdtemp(prefix="repro-bench-storage-"))
    try:
        report = {
            "mode": "smoke" if smoke else "full",
            "query": "{Lives(p|t), not Born(p|t), not Likes(p,t|)}",
            "digests": "per crossover point, sha256 over the sorted "
                       "answer set; asserted identical across compiled, "
                       "columnar, native plan-IR SQL through the mirror, "
                       "warm formula-SQL, and per-call-load formula-SQL",
            "commit_throughput": bench_commit_throughput(base, commit_counts),
            "replay_vs_wal_length": bench_replay(base, replay_grid),
            "sql_crossover": bench_sql_crossover(base, crossover),
            "storage_stats": storage_stats(),
        }
    finally:
        shutil.rmtree(base, ignore_errors=True)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    fsync, nosync = report["commit_throughput"]
    print(f"commits/s  sync=always: {fsync['single_commits_per_s']}, "
          f"sync=off: {nosync['single_commits_per_s']}")
    largest = report["sql_crossover"][-1]
    print(f"at {largest['facts']} facts: native plan-IR sql is "
          f"{largest['native_vs_formula_sql']}x the warm formula-sql "
          f"mirror, {largest['native_vs_legacy_sql']}x the per-call-load "
          f"sql, {largest['native_vs_compiled']}x the in-memory compiled "
          f"plan")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

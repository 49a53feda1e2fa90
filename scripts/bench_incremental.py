#!/usr/bin/env python3
"""Regenerate BENCH_incremental.json: incremental view maintenance vs
full recompute on update-heavy workloads.

Usage:  PYTHONPATH=src python scripts/bench_incremental.py [output_path]
                                                           [--smoke]

Each point replays one :func:`random_update_stream` twice on
independent copies of the same database:

* **incremental** — a registered :class:`~repro.incremental.View`
  absorbs each committed batch through per-operator deltas; the timed
  loop is "apply batch, read ``view.answers``".
* **recompute** — the same mutations with no view attached, followed by
  a fresh compiled-plan execution per batch (the fastest
  non-incremental strategy the repo has).

Both loops pay the identical mutation cost, so the ratio isolates
maintenance against recomputation.  Final answer sets are asserted
equal before a point is recorded, and the smallest size of each series
is additionally cross-checked batch-by-batch.

``--smoke`` shrinks every series to CI-sized inputs (seconds, not
minutes) while keeping the correctness assertions; CI runs it on every
push.  The committed JSON comes from a full run.

Honest caveats (also in docs/INCREMENTAL.md): view *registration*
materializes every plan operator and is excluded from the maintenance
loop but reported per point as ``setup_s`` — incremental maintenance
pays off after roughly ``setup_s / (recompute_per_batch)`` batches.
Plans with active-domain operators fall back to subtree recomputation
whenever domain membership moves and would show far smaller speedups;
the guarded rewritings benchmarked here compile without them
(``fallback_recomputes`` is asserted zero).
"""

import json
import pathlib
import random
import sys
import time

from repro.core.atoms import RelationSchema
from repro.core.terms import Variable
from repro.cqa.certain_answers import OpenQuery, certain_answers
from repro.db.database import Database
from repro.incremental import ViewManager
from repro.workloads.generators import (
    UpdateStreamParams,
    random_update_stream,
)
from repro.workloads.poll import random_poll_database
from repro.workloads.queries import poll_qa, q3

# (n_people, n_towns, n_batches): largest point is >= 10k facts.
POLL_SIZES = [(400, 50, 60), (1500, 120, 60), (4000, 250, 60)]
# (n_people, block, n_batches)
Q3_SIZES = [(1000, 500, 60), (4000, 2000, 60), (8000, 4000, 60)]
SMOKE_POLL_SIZES = [(60, 12, 8), (150, 25, 8)]
SMOKE_Q3_SIZES = [(120, 60, 8), (300, 150, 8)]
BATCH_SIZE = 6
STREAM_SEED = 2018


def q3_database(n_people, block, seed=7):
    """P facts for ``n_people`` keys plus one N block of ``block`` rows."""
    rng = random.Random(seed)
    db = Database([RelationSchema("P", 2, 1), RelationSchema("N", 2, 1)])
    values = [f"v{j}" for j in range(max(block * 2, 50))]
    for i in range(n_people):
        for v in rng.sample(values, rng.choice([1, 1, 2])):
            db.add("P", (f"p{i}", v))
    for v in rng.sample(values, block):
        db.add("N", ("c", v))
    return db


def _apply(db, batch):
    with db.batch():
        for insert, relation, row in batch:
            if insert:
                db.add(relation, row)
            else:
                db.discard(relation, row)


def run_incremental(db, query, free, batches, check_each=None):
    """Timed loop: apply each batch, read the maintained answers."""
    db = db.copy()
    manager = ViewManager(db)
    t0 = time.perf_counter()
    view = manager.register_view(query, free)
    setup = time.perf_counter() - t0
    t0 = time.perf_counter()
    for i, batch in enumerate(batches):
        _apply(db, batch)
        answers = view.answers
        if check_each is not None:
            assert answers == check_each[i], f"batch {i} diverged"
    elapsed = time.perf_counter() - t0
    stats = view.stats()
    assert stats["fallback_recomputes"] == 0, "guarded plan took fallback"
    return view.answers, elapsed, setup, stats


def run_recompute(db, query, free, batches, record=False):
    """Timed loop: apply each batch, run the compiled plan from scratch."""
    db = db.copy()
    open_query = OpenQuery(query, free)
    certain_answers(open_query, db, "compiled")  # warm the plan cache
    per_batch = [] if record else None
    t0 = time.perf_counter()
    for batch in batches:
        _apply(db, batch)
        answers = certain_answers(open_query, db, "compiled")
        if per_batch is not None:
            per_batch.append(answers)
    elapsed = time.perf_counter() - t0
    return answers, elapsed, per_batch


def bench_series(name, make_db, sizes, query, free_names):
    free = [Variable(n) for n in free_names]
    rows = []
    for point_index, (a, b, n_batches) in enumerate(sizes):
        db = make_db(a, b)
        stream_params = UpdateStreamParams(
            n_batches=n_batches, batch_size=BATCH_SIZE,
            delete_fraction=0.5, churn=0.6,
        )
        batches = random_update_stream(db, stream_params,
                                       random.Random(STREAM_SEED))
        # Cross-check every batch at the smallest size; final-state
        # equality everywhere (per-step agreement is also covered by the
        # hypothesis suite in tests/).
        check = point_index == 0
        full_answers, t_full, per_batch = run_recompute(
            db, query, free, batches, record=check)
        inc_answers, t_inc, setup, stats = run_incremental(
            db, query, free, batches, check_each=per_batch)
        assert inc_answers == full_answers, (name, a, b)
        ops = sum(len(batch) for batch in batches)
        rows.append({
            "size": [a, b],
            "facts": db.size(),
            "batches": n_batches,
            "ops": ops,
            "answers": len(inc_answers),
            "incremental_s": round(t_inc, 6),
            "recompute_s": round(t_full, 6),
            "speedup": round(t_full / t_inc, 2) if t_inc else None,
            "setup_s": round(setup, 6),
            "rows_touched": stats["rows_touched"],
            "plan_nodes": stats["nodes"],
        })
        print(f"{name} {a}x{b}: {db.size()} facts, {ops} ops -> "
              f"incremental {t_inc:.4f}s vs recompute {t_full:.4f}s "
              f"({rows[-1]['speedup']}x)")
    return rows


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    smoke = "--smoke" in argv
    out_path = pathlib.Path(args[0]) if args else (
        pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_incremental.json"
    )
    poll_sizes = SMOKE_POLL_SIZES if smoke else POLL_SIZES
    q3_sizes = SMOKE_Q3_SIZES if smoke else Q3_SIZES

    report = {
        "mode": "smoke" if smoke else "full",
        "queries": {
            "poll_qa": "{Lives(p|t), not Born(p|t), not Likes(p,t|)}",
            "q3": "{P(x|y), not N('c'|y)}",
        },
        "workload": {
            "batch_size": BATCH_SIZE,
            "delete_fraction": 0.5,
            "churn": 0.6,
            "stream": "random_update_stream (workloads/generators.py), "
                      "seed 2018",
        },
        "methods": {
            "incremental": "registered view, per-operator delta "
                           "maintenance per committed batch",
            "recompute": "same mutations, fresh compiled-plan execution "
                         "per batch (plan cache warm)",
        },
        "poll_qa_answers_p": bench_series(
            "poll_qa(p)",
            lambda a, b: random_poll_database(
                a, b, conflict_rate=0.5, rng=random.Random(71)),
            poll_sizes, poll_qa(), ["p"]),
        "q3_answers_x": bench_series(
            "q3(x)", q3_database, q3_sizes, q3(), ["x"]),
        "notes": [
            "Both loops pay identical mutation costs; the ratio "
            "isolates maintenance vs recomputation.",
            "setup_s (one-time view materialization) is excluded from "
            "incremental_s and reported separately; maintenance "
            "amortizes it after setup_s / (recompute_s / batches) "
            "batches.",
            "Guarded rewritings compile without active-domain "
            "operators; fallback_recomputes is asserted 0 here. Plans "
            "that do use Adom* operators re-execute on every commit "
            "and would not see these speedups.",
            "The smallest point of each series is cross-checked "
            "against full recompute after every batch; larger points "
            "on final state (per-step agreement is property-tested in "
            "tests/test_incremental_property.py).",
        ],
    }
    report["largest_size_speedups"] = {
        "poll_qa_answers_p": report["poll_qa_answers_p"][-1]["speedup"],
        "q3_answers_x": report["q3_answers_x"][-1]["speedup"],
    }
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out_path}")
    for key, value in report["largest_size_speedups"].items():
        print(f"{key:24s} speedup at largest size: {value}x")
    if not smoke:
        weakest = min(report["largest_size_speedups"].values())
        assert weakest >= 5.0, (
            f"incremental maintenance under 5x at largest size "
            f"({weakest}x)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

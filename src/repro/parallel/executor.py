"""Parallel sharded certain-answer execution (``method="parallel"``).

Splits the database into block-preserving shards (one hash class of
the shard variable's key values per shard), runs the compiled open
rewriting on every shard in a persistent forked worker pool, and
unions the post-filtered per-shard answers.  Exactness rests on the
partitioning argument in :mod:`repro.parallel.partition`; the parity
suite (``tests/test_method_parity.py``) and the benchmark's
byte-identical assertion (``scripts/bench_parallel.py``) check it
end to end.

Serial fallback — running the plain ``compiled`` path in-process — is
taken whenever sharding cannot help or cannot be trusted:

* ``jobs <= 1``, or the platform cannot ``fork``;
* the database is below ``min_facts`` (default
  :data:`DEFAULT_MIN_FACTS`), where fork + IPC overhead dwarfs the
  work;
* the query is Boolean (certainty does not decompose over shards —
  see the counterexample in ``docs/PERFORMANCE.md``);
* no answer variable sits at a key position of any atom, so there is
  nothing sound to route blocks by;
* the compiled plan touches the active domain (``Adom*`` nodes):
  shards see a smaller domain than the whole database, so such plans
  are not shard-local.

Every fallback is counted (with its reason) in
:func:`parallel_stats`.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, FrozenSet, Optional, Tuple

from ..db.database import Database
from ..fo.compile import plan_cache
from ..obs.metrics import counters, snapshot
from ..obs.trace import NULL_TRACER
from .partition import shard_database, shard_spec
from .pool import fork_context, run_sharded, worker_pool

__all__ = [
    "parallel_certain_answers",
    "parallel_stats",
]

#: Below this many facts the parallel path falls back to serial
#: (fork + IPC overhead dwarfs the work).
DEFAULT_MIN_FACTS = 2000

# Shards per worker.  Far more shards than workers, so each shard's
# per-relation indexes stay cache-resident: on the benchmark host the
# sharded execution sum keeps dropping until ~64 shards (see
# docs/PERFORMANCE.md), and idle cost of extra shards is negligible.
DEFAULT_SHARD_FACTOR = 16

_STATS = counters(
    "parallel",
    runs=0,
    parallel_runs=0,
    serial_fallbacks=0,
    fallback_reasons={},
    shards=0,
    workers=0,
    tasks=0,
    partition_ms=0.0,
    merge_ms=0.0,
    worker_exec_ms=0.0,
    worker_rows=0,
    worker_plan_cache={"hits": 0, "misses": 0, "evictions": 0},
)

# Shard layouts keyed by (database identity, clock, spec, n_shards):
# partitioning depends only on the layout, not the worker count, so a
# jobs sweep over one database re-uses the same shard list for every
# pool instead of re-hashing millions of rows per worker count.
_SHARDS_CACHE_LIMIT = 4
_shards_cache: Dict[Tuple, list] = {}


def release_layouts(db: Optional[Database] = None) -> int:
    """Drop cached shard layouts — ``db``'s only, or all of them.

    The layout cache holds strong references to full shard copies of
    the database; a long-running server releases them together with
    the worker pools (see :func:`repro.parallel.release_database`).
    Returns the number of layouts dropped.
    """
    if db is None:
        n = len(_shards_cache)
        _shards_cache.clear()
        return n
    keys = [k for k in _shards_cache if k[0] == id(db)]
    for key in keys:
        del _shards_cache[key]
    return len(keys)


def parallel_stats() -> Dict[str, Any]:
    """Aggregated parallel-execution counters.

    Shard and worker counts of the most recent parallel run,
    cumulative partition/merge wall time, and serial fallbacks keyed
    by reason.  Work done inside forked workers is accounted under
    ``worker_rows`` / ``worker_plan_cache``: each pool call ships the
    worker-side counter *deltas* back with its result, and the parent
    accumulates them here.  They stay separate from the parent's own
    plan-cache counters because the caches are distinct objects after
    fork (see the fork-safety note on ``repro.fo.compile.PlanCache``).
    This feeds the ``parallel`` section of ``EngineMetrics``.
    """
    return snapshot("parallel")


def _fallback(open_query, db: Database, reason: str,
              tracer=NULL_TRACER) -> FrozenSet[Tuple]:
    from ..cqa.certain_answers import certain_answers

    _STATS["serial_fallbacks"] += 1
    reasons: Dict[str, int] = _STATS["fallback_reasons"]
    reasons[reason] = reasons.get(reason, 0) + 1
    tracer.event("parallel-fallback", reason=reason)
    return certain_answers(open_query, db, "compiled", tracer=tracer)


def parallel_certain_answers(
    open_query,
    db: Database,
    jobs: Optional[int] = None,
    min_facts: Optional[int] = None,
    shard_factor: Optional[int] = None,
    tracer=None,
) -> FrozenSet[Tuple]:
    """All certain answers of q(x⃗) on db, computed shard-parallel.

    Returns exactly ``certain_answers(open_query, db, "compiled")`` —
    the point is wall-clock, not semantics.  ``jobs=None`` uses the
    CPU count and ``min_facts=None`` :data:`DEFAULT_MIN_FACTS`; see the
    module docstring for the serial-fallback conditions.
    ``shard_factor`` (None: :data:`DEFAULT_SHARD_FACTOR`) controls
    over-partitioning: with ``jobs * shard_factor`` shards in the work
    queue, workers that finish early pick up remaining chunks, and
    smaller shards keep per-shard hash tables cache-resident.

    ``tracer`` records partition/merge spans, one span per worker group
    (shards owned, rows produced, in-shard execution time), and
    fallback events.
    """
    from ..cqa.certain_answers import _guarded_open_rewriting

    t = tracer if tracer is not None else NULL_TRACER
    if shard_factor is None:
        shard_factor = DEFAULT_SHARD_FACTOR
    if min_facts is None:
        min_facts = DEFAULT_MIN_FACTS
    _STATS["runs"] += 1
    n_jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
    if not open_query.free:
        return _fallback(open_query, db, "boolean", t)
    if n_jobs <= 1:
        return _fallback(open_query, db, "jobs=1", t)
    if db.size() < min_facts:
        return _fallback(open_query, db, "below-min-facts", t)
    if fork_context() is None:
        return _fallback(open_query, db, "no-fork", t)
    spec = shard_spec(open_query, db)
    if spec is None:
        return _fallback(open_query, db, "no-shard-variable", t)
    formula = _guarded_open_rewriting(open_query)
    compiled = plan_cache.get_or_compile(formula, db, open_query.free)
    if compiled.uses_adom:
        return _fallback(open_query, db, "plan-touches-adom", t)

    n_shards = max(2, n_jobs * max(1, shard_factor))
    filter_pos = compiled.free.index(spec.var)
    # A fully sharded layout (no broadcast relations) only ever scans
    # rows whose routing value belongs to the executing shard, so its
    # answers are shard-local by construction; the post-filter is only
    # needed when broadcast relations can generate foreign candidates.
    do_filter = bool(spec.broadcast)

    t0 = time.perf_counter()
    partitioned: Dict[str, bool] = {"fresh": False}
    layout_key = (id(db), db.clock, spec, n_shards)

    def factory():
        shards = _shards_cache.get(layout_key)
        if shards is None:
            stale = [k for k in _shards_cache
                     if k[0] == id(db) and k[1] != db.clock]
            while stale or len(_shards_cache) >= _SHARDS_CACHE_LIMIT:
                victim = stale.pop() if stale else next(iter(_shards_cache))
                del _shards_cache[victim]
            partitioned["fresh"] = True
            shards = shard_database(db, spec, n_shards)
            _shards_cache[layout_key] = shards
        return shards

    cache_key = (db.clock, n_jobs, n_shards, spec)
    got = worker_pool(db, cache_key, n_jobs, n_shards, factory)
    if got is None:
        return _fallback(open_query, db, "no-fork", t)
    shards, pools = got
    partition_seconds = time.perf_counter() - t0
    if partitioned["fresh"]:
        _STATS["partition_ms"] += partition_seconds * 1e3
        t.record("partition", partition_seconds, shards=n_shards)

    merged, merge_seconds, exec_seconds, worker_infos = run_sharded(
        pools, compiled.plan, compiled.constants, filter_pos, do_filter,
    )
    _STATS["merge_ms"] += merge_seconds * 1e3
    _STATS["worker_exec_ms"] += exec_seconds * 1e3
    _STATS["parallel_runs"] += 1
    _STATS["shards"] = n_shards
    _STATS["workers"] = n_jobs
    _STATS["tasks"] += n_jobs
    cache_totals: Dict[str, int] = _STATS["worker_plan_cache"]
    for info in worker_infos:
        _STATS["worker_rows"] += int(info.get("rows", 0))
        delta = info.get("plan_cache") or {}
        for key in cache_totals:
            cache_totals[key] += int(delta.get(key, 0))  # type: ignore[arg-type, call-overload]
        if t.enabled:
            t.record(
                "worker",
                float(info["exec_seconds"]),  # type: ignore[arg-type]
                worker=info["worker"],
                shards=info.get("shards", 0),
                rows=info.get("rows", 0),
            )
    t.record("merge", merge_seconds, rows=len(merged))
    return frozenset(merged)

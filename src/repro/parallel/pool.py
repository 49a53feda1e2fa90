"""Persistent fork-based worker pools for sharded plan execution.

Workers are forked *after* the parent has partitioned the database, so
every worker inherits the shard list copy-on-write — no shard is ever
pickled.  Only the per-call payload (a compiled plan of ~1 KB plus the
post-filter position) crosses the pipe on the way in, and only answer
rows cross it on the way out.

Two lifecycle decisions matter for steady-state latency:

* **Shard affinity.**  A shared work queue would hand shard *i* to a
  different worker on every call, and the column indexes that
  ``Database`` caches per relation would stay forever cold (each
  worker warms only its own copy-on-write copy).  The pool is
  therefore a *pool of pinned pools*: ``jobs`` single-worker
  ``ProcessPoolExecutor``s, each owning the fixed shard group
  ``shards[w::jobs]``.  A worker executes the same shards on every
  call, so its indexes warm once and stay warm.
* **``gc.freeze()`` after fork.**  Each worker's heap starts as a
  copy-on-write snapshot of the parent — including the parent's full
  database and every other shard.  Freezing moves those inherited
  objects into the permanent generation, so worker collections
  neither traverse the (immutable) snapshot nor dirty its pages with
  refcount writes.

Pools are cached per (database identity, changelog clock, shard
layout): repeated certain-answer calls against an unchanged database
reuse the warm pool, while any mutation bumps ``Database.clock`` and
transparently retires the stale pool.  :func:`shutdown_pools` — also
registered ``atexit`` — tears everything down.

Fork safety of process-wide caches: each worker inherits a snapshot of
the parent's ``repro.fo.compile.plan_cache`` (and every other module
global) at fork time.  Worker-side hits and misses accumulate in the
*worker's* copy and never appear in the parent's own plan-cache
counters; instead each pool call ships the worker-side counter
*deltas* back with its result, and the executor folds them into
``worker_plan_cache`` under ``repro.parallel.parallel_stats()`` (the
``parallel`` section of ``engine.metrics()``).
"""

from __future__ import annotations

import atexit
import gc
import marshal
import multiprocessing
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..db.database import Database
from ..fo.plan import Executor, Plan
from .partition import shard_of

__all__ = ["fork_context", "worker_pool", "run_sharded", "shutdown_pools",
           "admission_slots", "PoolRegistry", "pool_registry"]

_POOL_CACHE_LIMIT = 4


def admission_slots(jobs: int) -> int:
    """Concurrent execution slots for ``jobs`` workers: at most one
    in-flight plan execution per physical core.

    This is the parallel layer's admission-control rule; ``repro
    serve`` reuses it to size its own request semaphore so a saturated
    daemon queues requests instead of oversubscribing cores.
    """
    return max(1, min(jobs, os.cpu_count() or 1))


def fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The ``fork`` start method, or ``None`` where unsupported.

    The pool relies on copy-on-write shard inheritance; platforms
    without ``fork`` (Windows) fall back to serial execution upstream.
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return None


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------

# One pinned shard group per worker process: [(shard_index, shard_db)].
_group_shards: List[Tuple[int, Database]] = []
_group_n_shards: int = 0
_group_admission = None

# Plan-cache counters already reported to the parent: each call ships
# only the delta since the previous report, so the parent can fold the
# increments into its metrics without double counting across calls.
_reported_cache_stats: Dict[str, int] = {}


def _cache_stats_delta() -> Dict[str, int]:
    """Worker-side plan-cache counter increments since the last report.

    Forked workers inherit (and then mutate) their own copy of the
    process-wide plan cache; these deltas are how that activity becomes
    visible in the parent's ``EngineMetrics`` instead of silently
    vanishing with the worker.
    """
    from ..fo.compile import plan_cache

    now = plan_cache.stats()
    delta = {
        key: now[key] - _reported_cache_stats.get(key, 0)
        for key in ("hits", "misses", "evictions")
    }
    _reported_cache_stats.update(
        {key: now[key] for key in ("hits", "misses", "evictions")}
    )
    return delta


def _init_group(shards: List[Database], indices: Sequence[int],
                n_shards: int, admission) -> None:
    # Under fork these arguments re-bind inherited objects; nothing is
    # serialized.  Freezing the inherited heap keeps worker GC cycles
    # from traversing the parent snapshot (or dirtying its COW pages).
    global _group_shards, _group_n_shards, _group_admission
    _group_shards = [(i, shards[i]) for i in indices]
    _group_n_shards = n_shards
    _group_admission = admission
    gc.freeze()


def _run_group(task: Tuple) -> Tuple[bytes, float, Dict[str, object]]:
    """Execute one compiled plan on every shard this worker owns.

    Each per-shard execution holds one slot of the admission semaphore
    (``min(jobs, cpu_count)`` slots), so at most one execution runs per
    physical core.  Oversubscribed workers — ``jobs`` beyond the core
    count — would otherwise time-slice against each other and evict
    each other's shard working sets from the shared cache, destroying
    the very locality that sharding buys; with admission control they
    simply take turns, and the slot is released between shards so cores
    rotate fairly.  Result pickling happens outside the slot.

    When the layout has broadcast relations, rows are post-filtered to
    the shard's own hash class — discarding candidates that broadcast
    relations generated on behalf of other shards — so shard results
    are pairwise disjoint and merge by plain union.  Fully sharded
    layouts need no filter: every scanned row already carries a
    shard-local value at the routing position.
    """
    plan, constants, filter_pos, do_filter = task
    out: List[List[Tuple]] = []
    total_rows = 0
    exec_seconds = 0.0
    for index, shard_db in _group_shards:
        with _group_admission:
            t0 = time.perf_counter()
            rows = Executor(shard_db, None, constants).run(plan)
            exec_seconds += time.perf_counter() - t0
        if do_filter:
            kept = [
                row for row in rows
                if shard_of(row[filter_pos], _group_n_shards) == index
            ]
        else:
            kept = list(rows)
        total_rows += len(kept)
        out.append(kept)
    counters: Dict[str, object] = {
        "shards": len(_group_shards),
        "rows": total_rows,
        "plan_cache": _cache_stats_delta(),
    }
    return _encode_rows(out), exec_seconds, counters


def _encode_rows(groups: List[List[Tuple]]) -> bytes:
    """Serialize answer rows for the trip back to the parent.

    ``marshal`` handles tuples of primitive values (the overwhelmingly
    common shape of database rows) several times faster than pickle,
    and the result crosses the process boundary as a single ``bytes``
    payload — which the executor machinery pickles as a near-memcpy.
    Exotic value types fall back to pickle transparently.
    """
    try:
        return b"M" + marshal.dumps(groups)
    except ValueError:
        return b"P" + pickle.dumps(groups)


def _decode_rows(blob: bytes) -> List[List[Tuple]]:
    if blob[:1] == b"M":
        return marshal.loads(blob[1:])
    return pickle.loads(blob[1:])


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


class PoolRegistry:
    """Explicit lifecycle owner of the warm forked worker pools.

    The cache used to be a bare module dict torn down only via
    ``atexit`` — fine for one-shot CLI calls, a leak for a resident
    ``repro serve`` daemon whose store is checkpointed, reopened, or
    swapped while the process lives on.  The registry keeps the same
    keying — ``(database identity, changelog clock, shard layout)`` —
    and adds explicit teardown: :meth:`release` for one database's
    pools (called from ``PersistentDatabase.close()``, server
    shutdown, and ``repro watch`` on Ctrl-C), :meth:`shutdown` for
    everything, and context-manager form for scoped use.  The default
    process-wide instance is :data:`pool_registry`; ``atexit`` still
    runs :meth:`shutdown` as the last-resort backstop.
    """

    def __init__(self, limit: int = _POOL_CACHE_LIMIT):
        self._limit = limit
        # key -> (db strong ref, shards, pinned single-worker
        # executors); the strong reference keeps the id()-based key
        # honest for the entry's lifetime.
        self._pools: Dict[
            Tuple, Tuple[Database, List[Database], List[ProcessPoolExecutor]]
        ] = {}

    def __len__(self) -> int:
        return len(self._pools)

    def __enter__(self) -> "PoolRegistry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    @staticmethod
    def _teardown(entry) -> None:
        for pool in entry[2]:
            pool.shutdown(wait=False, cancel_futures=True)

    def lease(
        self,
        db: Database,
        cache_key: Tuple,
        jobs: int,
        n_shards: int,
        shards_factory,
    ) -> Optional[Tuple[List[Database], List[ProcessPoolExecutor]]]:
        """A warm (shards, pinned executors) pair, forked on first use.

        ``cache_key`` must determine the shard layout (it includes the
        database's clock, the shard spec, and the worker count);
        ``shards_factory`` is invoked only on a cache miss, *before*
        the fork, so workers inherit the fresh shards copy-on-write.
        Worker ``w`` permanently owns ``shards[w::jobs]``.  Returns
        ``None`` when the platform cannot fork.
        """
        key = (id(db),) + cache_key
        entry = self._pools.get(key)
        if entry is not None:
            return entry[1], entry[2]
        ctx = fork_context()
        if ctx is None:
            return None
        # Retire stale pools for the same database object (old clock
        # only — same-clock siblings such as another jobs value over
        # the same database stay warm) and enforce the small bound.
        stale = [k for k in self._pools
                 if k[0] == id(db) and k[1] != db.clock]
        while stale or len(self._pools) >= self._limit:
            victim = stale.pop() if stale else next(iter(self._pools))
            self._teardown(self._pools.pop(victim))
        shards = shards_factory()
        # Admission control: at most one in-flight plan execution per
        # physical core, however many workers the caller asked for.
        admission = ctx.Semaphore(admission_slots(jobs))
        pools = [
            ProcessPoolExecutor(
                max_workers=1,
                mp_context=ctx,
                initializer=_init_group,
                initargs=(shards, range(w, n_shards, jobs), n_shards,
                          admission),
            )
            for w in range(jobs)
        ]
        self._pools[key] = (db, shards, pools)
        return shards, pools

    def release(self, db: Optional[Database] = None) -> int:
        """Shut down cached pools — ``db``'s only, or all of them.

        Returns the number of pool entries torn down.  Safe to call
        repeatedly; releasing a database with no warm pools is a no-op.
        """
        if db is None:
            keys = list(self._pools)
        else:
            keys = [k for k in self._pools if k[0] == id(db)]
        for key in keys:
            self._teardown(self._pools.pop(key))
        return len(keys)

    def shutdown(self) -> int:
        """Tear down every cached pool (the ``atexit`` backstop)."""
        return self.release(None)


#: The process-wide registry every engine call leases pools from.
pool_registry = PoolRegistry()


def worker_pool(
    db: Database,
    cache_key: Tuple,
    jobs: int,
    n_shards: int,
    shards_factory,
) -> Optional[Tuple[List[Database], List[ProcessPoolExecutor]]]:
    """Lease from the process-wide :data:`pool_registry` (see
    :meth:`PoolRegistry.lease`)."""
    return pool_registry.lease(db, cache_key, jobs, n_shards, shards_factory)


def run_sharded(
    pools: List[ProcessPoolExecutor],
    plan: Plan,
    constants: Sequence,
    filter_pos: int,
    do_filter: bool,
) -> Tuple[Set[Tuple], float, float, List[Dict[str, object]]]:
    """Fan one plan out to every pinned worker and union the answers.

    All groups are submitted before any result is awaited, so workers
    run concurrently; results merge in worker order (and shard order
    within a worker), which makes the merge deterministic — though the
    shard answer sets are disjoint, so the union is order-insensitive
    anyway.

    Returns ``(merged, merge_seconds, exec_seconds, worker_infos)``;
    each worker info carries the worker index, its cumulative in-shard
    execution time, its answer-row and shard counts, and the worker's
    plan-cache counter delta — the raw material for per-shard spans
    and for merging worker-side counters into the parent's metrics.
    """
    task = (plan, tuple(constants), filter_pos, do_filter)
    futures = [pool.submit(_run_group, task) for pool in pools]
    merged: Set[Tuple] = set()
    merge_seconds = 0.0
    exec_seconds = 0.0
    worker_infos: List[Dict[str, object]] = []
    for worker, future in enumerate(futures):
        blob, group_exec, counters = future.result()
        exec_seconds += group_exec
        info = dict(counters)
        info["worker"] = worker
        info["exec_seconds"] = group_exec
        worker_infos.append(info)
        t0 = time.perf_counter()
        for rows in _decode_rows(blob):
            merged.update(rows)
        merge_seconds += time.perf_counter() - t0
    return merged, merge_seconds, exec_seconds, worker_infos


def shutdown_pools() -> None:
    """Tear down every cached pool (also registered ``atexit``)."""
    pool_registry.shutdown()


atexit.register(shutdown_pools)

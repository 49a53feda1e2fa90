"""Parallel sharded certain-answer execution.

The acyclic case of the paper puts CERTAINTY(q) in FO, so certain
answers decompose into independent per-candidate checks — and, block
by block, into independent shards of the database.  This package
partitions a :class:`~repro.db.database.Database` without ever
splitting a key-equal block (:mod:`~repro.parallel.partition`),
executes the compiled open rewriting on each shard in a persistent
forked worker pool (:mod:`~repro.parallel.pool`), and merges the
disjoint per-shard answers (:mod:`~repro.parallel.executor`).

Entry points: :func:`parallel_certain_answers` (or
``method="parallel"`` on ``certain_answers`` /
``CertaintyEngine.certain_answers`` / the ``repro answers --jobs N``
CLI), :func:`parallel_stats`, and :func:`shutdown_pools`.
"""

from .executor import (
    parallel_certain_answers,
    parallel_stats,
    release_layouts,
)
from .partition import ShardSpec, shard_database, shard_of, shard_spec
from .pool import PoolRegistry, admission_slots, pool_registry, shutdown_pools

__all__ = [
    "parallel_certain_answers",
    "parallel_stats",
    "release_database",
    "release_layouts",
    "PoolRegistry",
    "ShardSpec",
    "admission_slots",
    "pool_registry",
    "shard_database",
    "shard_of",
    "shard_spec",
    "shutdown_pools",
]


def release_database(db=None) -> int:
    """Free every parallel-layer resource held for ``db`` (or all).

    Tears down the warm forked worker pools *and* drops the cached
    shard layouts, so a long-running process (``repro serve``, ``repro
    watch``) can retire a database without leaking worker processes or
    shard copies.  Called automatically by
    ``PersistentDatabase.close()``.  Returns the number of pool entries
    plus layouts released.
    """
    return pool_registry.release(db) + release_layouts(db)

"""Process-wide storage counters: the ``storage`` section of ``engine.metrics()``.

One counter dict in the :mod:`repro.obs.metrics` registry: the WAL,
the store and the pushdown increment plain keys of :data:`STATS`, and
:func:`storage_stats` snapshots it.  The SQL pushdown keeps its own
nested section (native runs, mirror maintenance, statement cache).
"""

from __future__ import annotations

from typing import Any, Dict

from ..obs.metrics import counters, snapshot

__all__ = ["storage_stats", "STATS"]

STATS = counters(
    "storage",
    # write-ahead log
    wal_records=0,        # records appended (batch + schema)
    wal_bytes=0,          # payload + frame bytes appended
    wal_syncs=0,          # fsync calls on commit
    commits=0,            # committed changelog batches logged
    # recovery
    replays=0,            # open() recoveries performed
    replayed_records=0,   # WAL records applied during recovery
    replay_ms=0.0,        # cumulative recovery wall time
    torn_tails=0,         # truncated partial tail records
    # snapshots / checkpoints
    checkpoints=0,
    snapshot_bytes=0,     # bytes of the most recent snapshot
    snapshot_ms=0.0,      # cumulative snapshot wall time
    wal_pruned=0,         # WAL segment files deleted
    # SQL pushdown: native execution and mirror maintenance
    pushdown={
        "native_sql": 0,           # queries run as one SELECT in the mirror
        "mirror_rebuilds": 0,      # full reloads of the sqlite mirror
        "mirror_delta_rows": 0,    # fact rows applied incrementally
        "stmt_cache_hits": 0,      # compiled statements reused
        "stmt_cache_misses": 0,    # compiled statements built
    },
)


def storage_stats() -> Dict[str, Any]:
    """A snapshot of the storage counters."""
    return snapshot("storage")

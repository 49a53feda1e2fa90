"""Process-wide storage counters, surfaced as ``engine.metrics().extra["storage"]``.

One flat counter dict, mirroring the columnar backend's ``_STATS``
pattern: subsystem code increments plain keys, the obs layer snapshots
them through :func:`storage_stats`, and tests reset between cases with
:func:`reset_storage_stats`.  The SQL pushdown keeps its own nested
section (native runs, mirror maintenance, statement cache).
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = ["storage_stats", "reset_storage_stats", "STATS"]


def _fresh() -> Dict[str, Any]:
    return {
        # write-ahead log
        "wal_records": 0,        # records appended (batch + schema)
        "wal_bytes": 0,          # payload + frame bytes appended
        "wal_syncs": 0,          # fsync calls on commit
        "commits": 0,            # committed changelog batches logged
        # recovery
        "replays": 0,            # open() recoveries performed
        "replayed_records": 0,   # WAL records applied during recovery
        "replay_ms": 0.0,        # cumulative recovery wall time
        "torn_tails": 0,         # truncated partial tail records
        # snapshots / checkpoints
        "checkpoints": 0,
        "snapshot_bytes": 0,     # bytes of the most recent snapshot
        "snapshot_ms": 0.0,      # cumulative snapshot wall time
        "wal_pruned": 0,         # WAL segment files deleted
        # SQL pushdown: native execution and mirror maintenance
        "pushdown": {
            "native_sql": 0,           # queries run as one SELECT in the mirror
            "mirror_rebuilds": 0,      # full reloads of the sqlite mirror
            "mirror_delta_rows": 0,    # fact rows applied incrementally
            "adom_delta_rows": 0,      # active-domain refcount upserts
            "stmt_cache_hits": 0,      # compiled statements reused
            "stmt_cache_misses": 0,    # compiled statements built
        },
    }


STATS: Dict[str, Any] = _fresh()


def storage_stats() -> Dict[str, Any]:
    """A snapshot of the storage counters (the metrics source)."""
    out = dict(STATS)
    out["pushdown"] = dict(STATS["pushdown"])
    return out


def reset_storage_stats() -> None:
    """Zero every counter (test isolation)."""
    STATS.clear()
    STATS.update(_fresh())

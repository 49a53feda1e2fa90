"""Durable storage for the CQA engine (PR 8).

A :class:`PersistentDatabase` is a drop-in :class:`repro.db.Database`
whose committed state survives the process: every changelog batch is
written ahead to a CRC-framed, fsynced WAL (:mod:`repro.storage.wal`),
checkpoints compact the log into atomic snapshots
(:mod:`repro.storage.snapshot`), recovery replays the consistent prefix
(:mod:`repro.storage.store`), and ``method="sql"`` pushes compiled
first-order rewritings down to a delta-maintained in-memory sqlite
mirror (:mod:`repro.storage.pushdown`).  :mod:`repro.storage.chaos` is
the kill-9 harness that keeps the durability claim honest.

See ``docs/STORAGE.md`` for the file formats and recovery protocol.
"""

from .chaos import run_chaos
from .pushdown import (
    SQL_STMT_CACHE_SIZE,
    SQLiteMirror,
    native_sql_answers,
    native_sql_holds,
    prefer_sql,
    sql_mirror,
)
from .sqlgen import CompiledSQL, compile_plan
from .snapshot import SnapshotError, list_snapshots, read_snapshot, write_snapshot
from .stats import storage_stats
from .store import (
    DEFAULT_CHECKPOINT_BYTES,
    PersistentDatabase,
    StorageError,
    open_database,
    query_from_dict,
    query_to_dict,
    verify_store,
)
from .wal import WalError, WalWriter, list_segments, scan_wal, wal_sync_mode

__all__ = [
    "PersistentDatabase",
    "StorageError",
    "open_database",
    "verify_store",
    "query_to_dict",
    "query_from_dict",
    "SnapshotError",
    "write_snapshot",
    "read_snapshot",
    "list_snapshots",
    "WalError",
    "WalWriter",
    "scan_wal",
    "list_segments",
    "wal_sync_mode",
    "SQLiteMirror",
    "sql_mirror",
    "native_sql_answers",
    "native_sql_holds",
    "prefer_sql",
    "SQL_STMT_CACHE_SIZE",
    "CompiledSQL",
    "compile_plan",
    "DEFAULT_CHECKPOINT_BYTES",
    "storage_stats",
    "run_chaos",
]

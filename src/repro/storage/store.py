"""The persistent database: WAL-backed durability behind the Database API.

:class:`PersistentDatabase` subclasses :class:`repro.db.database.Database`
— every engine tier (interpreted, compiled, columnar, parallel, SQL)
accepts it unchanged — and adds a durable storage generation under one
directory::

    <store>/
      snapshot-<clock>.snap   # atomic relation image (repro.storage.snapshot)
      wal-<base>.log          # records with LSN > base (repro.storage.wal)
      views.json              # registered-view manifest (re-registered on open)

The SQL-pushdown mirror (:mod:`repro.storage.pushdown`) is not part of
it: ``method="sql"`` builds an in-memory copy on its first call in a
process and keeps it in step through the changelog.

Durability protocol
-------------------
Every genuine mutation (or committed batch) already produces one
:class:`~repro.db.changelog.Changelog` on the database's change-capture
layer; the store subscribes the WAL appender as the *first* changelog
listener, so the batch is framed, CRC'd, and (under ``sync="always"``)
fsynced **before** any other subscriber — incremental views, the SQL
mirror — observes it.  The record's LSN is the changelog clock at
commit time: one committed batch, one durable LSN, no translation
between the in-memory and on-disk orderings.

Recovery (:meth:`PersistentDatabase.open`) loads the newest readable
snapshot, replays every WAL record with ``lsn > clock`` in LSN order,
truncates a torn tail (see :mod:`repro.storage.wal`), and finally
forces the clock to the last durable LSN — the *prefix-consistent
clock* the chaos suite asserts: the recovered state is exactly the
state after some prefix of committed batches, never a partial batch.

Registered views are part of the durable state: specs recorded through
:meth:`register_view` land in ``views.json`` and are re-registered
(and thus re-materialized against the recovered facts) on open.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.atoms import Atom, RelationSchema
from ..core.query import Diseq, Query
from ..core.terms import Constant, Variable, is_variable
from ..db.changelog import Changelog
from ..db.database import BatchError, Database
from ..db.io import PathLike, _freeze, _thaw
from .snapshot import (
    SnapshotError,
    list_snapshots,
    read_snapshot,
    snapshot_clock,
    write_snapshot,
)
from .stats import STATS
from .wal import (
    HEADER_SIZE,
    WalWriter,
    _fsync_directory,
    list_segments,
    scan_wal,
    segment_base,
    wal_sync_mode,
)

__all__ = ["StorageError", "PersistentDatabase", "open_database",
           "verify_store", "query_to_dict", "query_from_dict",
           "DEFAULT_CHECKPOINT_BYTES"]

_VIEWS_FILE = "views.json"
_STORE_GLOBS = ("snapshot-*.snap", "wal-*.log", _VIEWS_FILE)

#: Past this many live WAL bytes, a checkpoint is overdue (QP111).
DEFAULT_CHECKPOINT_BYTES = 16 * 1024 * 1024


class StorageError(RuntimeError):
    """Raised on unusable store directories or closed-store misuse."""


def write_manifest(path: pathlib.Path, document: Dict[str, Any]) -> None:
    """Durably replace the JSON file ``path`` with ``document``: write
    and fsync a temp file, rename it over ``path``, fsync the directory."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fp:
        fp.write(json.dumps(document, indent=2, sort_keys=True) + "\n")
        fp.flush()
        os.fsync(fp.fileno())
    os.replace(tmp, path)
    _fsync_directory(path.parent)


# ----------------------------------------------------------------------
# query (de)serialization for the view manifest
# ----------------------------------------------------------------------


def _term_to_dict(term: Any) -> Dict[str, Any]:
    if is_variable(term):
        return {"v": term.name}
    return {"c": _thaw(term.value)}


def _term_from_dict(spec: Dict[str, Any]) -> Any:
    if "v" in spec:
        return Variable(spec["v"])
    return Constant(_freeze(spec["c"]))


def _atom_to_dict(atom: Atom) -> Dict[str, Any]:
    return {
        "relation": atom.relation,
        "arity": atom.schema.arity,
        "key": atom.schema.key_size,
        "terms": [_term_to_dict(t) for t in atom.terms],
    }


def _atom_from_dict(spec: Dict[str, Any]) -> Atom:
    schema = RelationSchema(spec["relation"], int(spec["arity"]),
                            int(spec["key"]))
    return Atom(schema, [_term_from_dict(t) for t in spec["terms"]])


def query_to_dict(query: Query) -> Dict[str, Any]:
    """A JSON-ready structural encoding of one sjfBCQ¬≠ query."""
    return {
        "positives": [_atom_to_dict(a) for a in query.positives],
        "negatives": [_atom_to_dict(a) for a in query.negatives],
        "diseqs": [
            [[_term_to_dict(lhs), _term_to_dict(rhs)] for lhs, rhs in d.pairs]
            for d in query.diseqs
        ],
    }


def query_from_dict(spec: Dict[str, Any]) -> Query:
    """Invert :func:`query_to_dict`."""
    return Query(
        positives=[_atom_from_dict(a) for a in spec["positives"]],
        negatives=[_atom_from_dict(a) for a in spec["negatives"]],
        diseqs=[
            Diseq([(_term_from_dict(lhs), _term_from_dict(rhs))
                   for lhs, rhs in pairs])
            for pairs in spec.get("diseqs", [])
        ],
    )


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------


def _auto_checkpoint_bytes(explicit: Optional[int]) -> Optional[int]:
    """The auto-checkpoint threshold: argument, else env, else off."""
    if explicit is not None:
        return explicit if explicit > 0 else None
    raw = os.environ.get("REPRO_WAL_AUTOCHECKPOINT_BYTES", "").strip()
    if raw.isdigit() and int(raw) > 0:
        return int(raw)
    return None


class PersistentDatabase(Database):
    """A :class:`Database` whose committed state survives the process.

    Parameters
    ----------
    path:
        The store directory (created if missing).
    sync:
        ``"always"`` (default; every commit fsyncs before returning) or
        ``"off"``; ``None`` reads ``REPRO_WAL_SYNC``.
    tracer:
        Optional :class:`repro.obs.Tracer`; records ``wal-replay``,
        ``wal-commit``, and ``checkpoint`` spans.
    auto_checkpoint_bytes:
        Checkpoint automatically once the live WAL segment exceeds this
        many bytes (``None``: manual checkpoints only; env fallback
        ``REPRO_WAL_AUTOCHECKPOINT_BYTES``).
    create:
        When False, refuse a directory that is not already a store.
    """

    def __init__(self, path: PathLike, sync: Optional[str] = None,
                 tracer=None, auto_checkpoint_bytes: Optional[int] = None,
                 create: bool = True):
        from ..obs.trace import NULL_TRACER

        super().__init__()
        self.path = pathlib.Path(path)
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._sync = wal_sync_mode(sync)
        self._auto_checkpoint = _auto_checkpoint_bytes(auto_checkpoint_bytes)
        self._wal: Optional[WalWriter] = None
        self._replaying = False
        self._closed = True
        self._snapshot_clock = 0
        self._wal_records = 0
        self._view_specs: List[Dict[str, Any]] = []
        self._views: List[Any] = []
        self.last_recovery: Dict[str, Any] = {}
        self.open(create=create)

    # -- lifecycle -----------------------------------------------------

    @property
    def is_open(self) -> bool:
        return not self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise StorageError(f"store {self.path} is closed")

    def open(self, create: bool = True) -> None:
        """Recover the durable state and start accepting commits.

        Idempotent across close/open cycles on one object: all
        in-memory state (facts, versions, clock, lazy indexes, the
        columnar store and its scan caches) is rebuilt from disk, so a
        reopened store never serves cache entries from its previous
        life.
        """
        if not self._closed:
            raise StorageError(f"store {self.path} is already open")
        exists = self.path.is_dir() and any(
            True for pattern in _STORE_GLOBS for _ in self.path.glob(pattern)
        )
        if not exists and not create:
            raise StorageError(f"{self.path} is not a repro store")
        self.path.mkdir(parents=True, exist_ok=True)
        # Rebuild the Database layer from scratch and drop the lazily
        # attached columnar store: its version-tagged scan caches are
        # meaningless against the recovered version counters (the
        # discard_all/replay regression in tests/test_storage_store.py).
        # A closed store queried with method="sql" got a mirror of its
        # old facts; drop it so the next sql call builds a fresh one.
        Database.__init__(self)
        if hasattr(self, "_columnar_store"):
            delattr(self, "_columnar_store")
        self._drop_mirror()
        self._views = []
        self._view_specs = []
        self._wal_records = 0
        t0 = time.perf_counter()
        self._replaying = True
        try:
            with self._tracer.span("wal-replay"):
                snapshot = self._load_latest_snapshot()
                replayed = self._replay_segments()
        finally:
            self._replaying = False
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        self._closed = False
        self.subscribe(self._on_commit)
        self._load_views()
        # Stale temp files from an interrupted checkpoint.
        for leftover in self.path.glob("snapshot-*.tmp"):
            leftover.unlink()
        STATS["replays"] += 1
        STATS["replayed_records"] += replayed
        STATS["replay_ms"] += elapsed_ms
        self.last_recovery = {
            "snapshot_clock": snapshot,
            "replayed_records": replayed,
            "replay_ms": elapsed_ms,
            "clock": self._clock,
        }

    def _load_latest_snapshot(self) -> int:
        """Load the newest readable snapshot; returns its clock (0: none)."""
        for path in reversed(list_snapshots(self.path)):
            try:
                clock, schemas, facts = read_snapshot(path)
            except SnapshotError:
                continue
            for schema in schemas:
                Database.add_relation(self, schema)
            for name, rows in facts.items():
                if rows:
                    self._facts[name] = set(rows)
                    self._versions[name] = 1
            self._clock = clock
            self._snapshot_clock = clock
            return clock
        self._snapshot_clock = 0
        return 0

    def _replay_segments(self) -> int:
        """Apply every durable record with ``lsn > clock``, in order.

        The last segment may carry a torn tail (truncated when the
        writer opens it).  Damage in an *earlier* segment ends the
        consistent prefix there: the segment is truncated and every
        later segment discarded, so the next recovery sees the same
        prefix.
        """
        segments = list_segments(self.path)
        applied = 0
        cut_off = False
        last_base: Optional[int] = None
        for i, segment in enumerate(segments):
            if cut_off:
                segment.unlink()
                continue
            base, records, good, damage = scan_wal(segment)
            last_base = base
            for record in records:
                applied += self._apply_record(record) or 0
            self._wal_records += len(records)
            if damage is not None and i < len(segments) - 1:
                # Mid-stream damage: truncate here, drop the rest.
                with open(segment, "r+b") as fp:
                    fp.truncate(good)
                STATS["torn_tails"] += 1
                cut_off = True
        if last_base is None:
            last_base = self._snapshot_clock
        self._wal, _ = WalWriter.open(self.path, last_base, self._sync)
        return applied

    def _apply_record(self, record: Tuple[Any, ...]) -> int:
        kind, lsn = record[0], record[1]
        if kind == "S":
            _, _, name, arity, key_size = record
            Database.add_relation(self, RelationSchema(name, arity, key_size))
            return 0
        if kind != "B":  # pragma: no cover - scan_wal filters these
            raise StorageError(f"unknown WAL record kind {kind!r}")
        if lsn <= self._clock:
            return 0  # already in the snapshot (or a replayed prefix)
        deltas = record[2]
        for relation, (inserted, deleted) in deltas.items():
            if relation not in self.schemas:
                raise StorageError(
                    f"WAL batch at LSN {lsn} touches unregistered "
                    f"relation {relation!r}")
            if deleted:
                self.discard_all(relation, deleted)
            if inserted:
                self.add_all(relation, inserted)
        # The in-memory clock advanced by the number of net mutations
        # just applied; pin it to the durable LSN so recovered clocks
        # are prefix-consistent with the writing process's history.
        self._clock = lsn
        return 1

    def _drop_mirror(self) -> None:
        mirror = getattr(self, "_sql_mirror", None)
        if mirror is not None:
            mirror.close()
            delattr(self, "_sql_mirror")

    def close(self) -> None:
        """Flush and stop.  Committed batches are already durable; the
        store object can be reopened with :meth:`open`."""
        if self._closed:
            return
        if self.in_batch:
            raise BatchError("cannot close with an open batch; commit first")
        self._drop_mirror()
        # Retire any warm forked worker pools and cached shard layouts
        # still pinned to this object, so close/reopen cycles in a
        # long-running process never leak worker processes.
        from ..parallel import release_database

        release_database(self)
        self.unsubscribe(self._on_commit)
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        self._closed = True

    def __enter__(self) -> "PersistentDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- logging -------------------------------------------------------

    def _changed(self, relation: str, inserted: Iterable[Tuple] = (),
                 deleted: Iterable[Tuple] = ()) -> None:
        # Refuse mutations on a closed store: silently accepted writes
        # would never reach the WAL.  (Reopening rebuilds the in-memory
        # state from disk, discarding whatever the caller half-did.)
        if self._closed and not self._replaying:
            raise StorageError(
                f"store {self.path} is closed; reopen before mutating")
        super()._changed(relation, inserted, deleted)

    def add_relation(self, schema: RelationSchema) -> None:
        is_new = schema.name not in self.schemas
        super().add_relation(schema)
        if is_new and not self._replaying:
            self._require_open()
            assert self._wal is not None
            self._wal.append(("S", self._clock, schema.name, schema.arity,
                              schema.key_size))
            self._wal_records += 1

    def _on_commit(self, log: Changelog) -> None:
        if self._replaying:
            return
        if self._wal is None:
            raise StorageError(
                f"store {self.path} is closed; reopen before mutating")
        record = ("B", log.version, {
            name: (list(delta.inserted), list(delta.deleted))
            for name, delta in log.deltas.items()
        })
        with self._tracer.span("wal-commit", lsn=log.version,
                               rows=log.rows_touched()):
            self._wal.append(record)
        self._wal_records += 1
        STATS["commits"] += 1
        if (self._auto_checkpoint is not None and not self.in_batch
                and self._wal.size >= self._auto_checkpoint):
            self.checkpoint()

    # -- checkpointing -------------------------------------------------

    def checkpoint(self) -> int:
        """Write an atomic snapshot at the current clock and prune the
        WAL.  Returns the snapshot's size in bytes."""
        self._require_open()
        if self.in_batch:
            raise BatchError("cannot checkpoint inside an open batch")
        assert self._wal is not None
        t0 = time.perf_counter()
        with self._tracer.span("checkpoint", clock=self._clock):
            size = write_snapshot(self.path, self._clock, self.schemas,
                                  self._facts)
            self._snapshot_clock = self._clock
            self._wal.close()
            self._wal, _ = WalWriter.open(self.path, self._clock, self._sync)
            self._wal_records = 0
            for segment in list_segments(self.path):
                if (segment != self._wal.path
                        and segment_base(segment) < self._clock):
                    segment.unlink()
                    STATS["wal_pruned"] += 1
            for snap in list_snapshots(self.path):
                if snapshot_clock(snap) < self._clock:
                    snap.unlink()
            mirror = getattr(self, "_sql_mirror", None)
            if mirror is not None:
                mirror.refresh_stats()
        STATS["checkpoints"] += 1
        STATS["snapshot_bytes"] = size
        STATS["snapshot_ms"] += (time.perf_counter() - t0) * 1000.0
        return size

    # -- views ---------------------------------------------------------

    def register_view(self, query: Query, free: Sequence[Variable] = ()):
        """Register a materialized view *durably*: the spec is recorded
        in the store manifest and re-registered on every open."""
        from ..incremental import view_manager

        self._require_open()
        view = view_manager(self).register_view(query, list(free))
        spec = {"query": query_to_dict(query),
                "free": [v.name for v in free]}
        if spec not in self._view_specs:
            self._view_specs.append(spec)
            self._write_views_manifest()
        self._views.append(view)
        return view

    @property
    def views(self) -> Tuple[Any, ...]:
        """The re-registered view objects, in manifest order."""
        return tuple(self._views)

    def _views_path(self) -> pathlib.Path:
        return self.path / _VIEWS_FILE

    def _write_views_manifest(self) -> None:
        write_manifest(self._views_path(), {"views": self._view_specs})

    def _load_views(self) -> None:
        from ..incremental import view_manager

        path = self._views_path()
        if not path.exists():
            return
        manifest = json.loads(path.read_text())
        self._view_specs = list(manifest.get("views", []))
        manager = view_manager(self)
        for spec in self._view_specs:
            query = query_from_dict(spec["query"])
            free = [Variable(name) for name in spec["free"]]
            self._views.append(manager.register_view(query, free))

    # -- inspection ----------------------------------------------------

    def storage_status(self) -> Dict[str, Any]:
        """One dict of durable-state vitals (CLI ``repro db open`` and
        the QP111 analysis rule read this)."""
        segments = list_segments(self.path)
        wal_bytes = sum(
            max(0, seg.stat().st_size - HEADER_SIZE) for seg in segments
            if seg.exists()
        )
        return {
            "path": str(self.path),
            "open": self.is_open,
            "clock": self._clock,
            "snapshot_clock": self._snapshot_clock,
            "wal_records": self._wal_records,
            "wal_bytes": wal_bytes,
            "wal_segments": len(segments),
            "facts": self.size(),
            "relations": len(self.schemas),
            "views": len(self._view_specs),
            "sync": self._sync,
        }

    def __repr__(self) -> str:
        state = "open" if self.is_open else "closed"
        return (f"PersistentDatabase({str(self.path)!r}, {state}, "
                f"clock={self._clock}, {self.size()} facts)")


def open_database(path: PathLike, **kwargs) -> PersistentDatabase:
    """Open an existing store (refuses a directory that is not one)."""
    return PersistentDatabase(path, create=False, **kwargs)


# ----------------------------------------------------------------------
# offline verification
# ----------------------------------------------------------------------


def verify_store(path: PathLike, integrity: bool = False) -> Dict[str, Any]:
    """Non-destructive health check of a store directory.

    Always performs the CRC sweep: every snapshot is decoded and every
    WAL segment scanned frame by frame; a torn tail on the *last*
    segment is recoverable (reported, still ``ok``), damage anywhere
    else is not.  With ``integrity=True`` the consistent prefix is
    additionally replayed into a scratch in-memory database and audited
    against the schema layer: arity mismatches are errors, and the
    primary-key audit reports how many blocks violate their key (an
    inconsistency *measure*, not an error — dirty databases are this
    engine's subject matter).
    """
    directory = pathlib.Path(path)
    report: Dict[str, Any] = {
        "path": str(directory), "ok": True,
        "snapshots": [], "segments": [], "errors": [],
    }
    if not directory.is_dir():
        report["ok"] = False
        report["errors"].append(f"{directory} is not a directory")
        return report
    usable_snapshot: Optional[Tuple[int, list, dict]] = None
    for snap in list_snapshots(directory):
        entry: Dict[str, Any] = {"file": snap.name}
        try:
            clock, schemas, facts = read_snapshot(snap)
            entry["ok"] = True
            entry["clock"] = clock
            entry["facts"] = sum(len(rows) for rows in facts.values())
            usable_snapshot = (clock, schemas, facts)
        except SnapshotError as exc:
            entry["ok"] = False
            entry["error"] = str(exc)
            report["errors"].append(str(exc))
        report["snapshots"].append(entry)
    if report["snapshots"] and not report["snapshots"][-1]["ok"]:
        # The newest snapshot must load; older corrupt ones are moot.
        report["ok"] = False
    segments = list_segments(directory)
    all_records: List[Tuple[Any, ...]] = []
    for i, segment in enumerate(segments):
        base, records, good, damage = scan_wal(segment)
        entry = {"file": segment.name, "base": base,
                 "records": len(records), "damage": damage}
        report["segments"].append(entry)
        all_records.extend(records)
        if damage is not None and i < len(segments) - 1:
            report["ok"] = False
            report["errors"].append(
                f"{segment.name}: mid-stream damage: {damage}")
            break
    if integrity:
        report["integrity"] = _integrity_audit(usable_snapshot, all_records)
        if report["integrity"]["errors"]:
            report["ok"] = False
            report["errors"].extend(report["integrity"]["errors"])
    return report


def _integrity_audit(snapshot: Optional[Tuple[int, list, dict]],
                     records: Iterable[Tuple[Any, ...]]) -> Dict[str, Any]:
    """Replay the consistent prefix in memory and audit the result."""
    db = Database()
    clock = 0
    errors: List[str] = []
    if snapshot is not None:
        clock, schemas, facts = snapshot
        for schema in schemas:
            db.add_relation(schema)
        for name, rows in facts.items():
            for row in rows:
                try:
                    db.add(name, row)
                except ValueError as exc:
                    errors.append(f"snapshot: {exc}")
    recovered = clock
    for record in records:
        kind, lsn = record[0], record[1]
        if kind == "S":
            _, _, name, arity, key_size = record
            try:
                db.add_relation(RelationSchema(name, arity, key_size))
            except ValueError as exc:
                errors.append(f"LSN {lsn}: {exc}")
            continue
        if lsn <= recovered:
            continue
        for relation, (inserted, deleted) in record[2].items():
            try:
                if deleted:
                    db.discard_all(relation, deleted)
                if inserted:
                    db.add_all(relation, inserted)
            except ValueError as exc:
                errors.append(f"LSN {lsn}: {relation}: {exc}")
        recovered = lsn
    violating_blocks = 0
    for relation in db.relations():
        violating_blocks += sum(
            1 for rows in db.blocks(relation).values() if len(rows) > 1
        )
    return {
        "recovered_clock": recovered,
        "facts": db.size(),
        "relations": len(db.schemas),
        "key_violating_blocks": violating_blocks,
        "consistent": db.is_consistent,
        "repairs": db.repair_count() if db.size() <= 2000 else None,
        "errors": errors,
    }

"""The write-ahead log: length+CRC32-framed changelog batches on disk.

Every committed changelog batch of a :class:`~repro.storage.store.
PersistentDatabase` becomes exactly one WAL record whose LSN *is* the
database's monotone changelog clock at commit time
(:attr:`repro.db.database.Database.clock`), so the durable history and
the in-memory change-capture layer share one ordering and incremental
views can resume from a recovered clock without translation.

Record framing (all integers little-endian)::

    +----------+----------+------------------+
    | length   | crc32    | payload          |
    | 4 bytes  | 4 bytes  | `length` bytes   |
    +----------+----------+------------------+

The payload is a ``marshal``-encoded tuple — several times faster
than pickle on tuples of primitive values — of one of::

    ("B", lsn, {relation: ([inserted rows], [deleted rows]), ...})
    ("S", lsn, relation, arity, key_size)

``"B"`` records are committed batches; ``"S"`` records are schema
registrations (``add_relation`` does not move the clock, so they carry
the clock observed at registration and replay idempotently).

Durability and recovery:

* ``sync="always"`` (the default, env ``REPRO_WAL_SYNC``) issues
  ``fsync`` after every appended record, so a record returned from
  :meth:`WalWriter.append` survives ``kill -9`` and power loss;
  ``sync="off"`` leaves flushing to the OS (benchmarks, bulk loads).
* A crash can leave a *torn tail*: a final record whose frame or
  payload is incomplete or whose CRC does not match.  :func:`scan_wal`
  stops at the first damaged frame and reports the byte offset of the
  last good record; :meth:`WalWriter.open` truncates the file there,
  so exactly the committed prefix survives and no partial batch is
  ever replayed.

Crash injection (the chaos suite's hook): ``REPRO_WAL_CRASH_AT=<n>``
arms a process-wide budget of *n* bytes across all WAL writes; the
write that would exceed it is cut short at the byte boundary, flushed,
fsynced, and the process exits hard (``os._exit``) — a deterministic,
byte-precise simulation of dying mid-write with a torn record on disk.
"""

from __future__ import annotations

import io
import marshal
import os
import pathlib
import struct
from typing import Any, List, Optional, Tuple

from .stats import STATS

__all__ = ["WalError", "WalWriter", "scan_wal", "segment_path",
           "wal_sync_mode", "CRASH_EXIT_CODE"]

_FRAME = struct.Struct("<II")
_HEADER = struct.Struct("<8sQ")
MAGIC = b"RPWAL001"
HEADER_SIZE = _HEADER.size
#: Sanity bound on one record's payload (a batch of row deltas).
MAX_RECORD = 1 << 30

#: Exit status of an injected crash (mirrors a SIGKILL'd shell's 137).
CRASH_EXIT_CODE = 137

try:
    from zlib import crc32
except ImportError:  # pragma: no cover - zlib is part of CPython
    from binascii import crc32  # type: ignore


class WalError(RuntimeError):
    """Raised on unrecoverable WAL damage (bad magic, impossible frame)."""


def wal_sync_mode(explicit: Optional[str] = None) -> str:
    """Resolve the sync policy: explicit argument, else ``REPRO_WAL_SYNC``.

    ``"always"`` (default) fsyncs every commit; ``"off"`` (aliases:
    ``never``, ``0``, ``no``) does not.
    """
    raw = explicit if explicit is not None else os.environ.get(
        "REPRO_WAL_SYNC", "")
    raw = raw.strip().lower()
    if raw in ("", "always", "1", "yes", "on"):
        return "always"
    if raw in ("off", "never", "0", "no"):
        return "off"
    raise ValueError(
        f"REPRO_WAL_SYNC must be 'always' or 'off', got {raw!r}"
    )


def segment_path(directory: pathlib.Path, base: int) -> pathlib.Path:
    """The WAL segment holding records with LSN > ``base``."""
    return directory / f"wal-{base:016d}.log"


def segment_base(path: pathlib.Path) -> int:
    """The base clock encoded in a segment's file name."""
    return int(path.name[len("wal-"):-len(".log")])


def list_segments(directory: pathlib.Path) -> List[pathlib.Path]:
    """All WAL segments of a store directory, in base-clock order."""
    return sorted(directory.glob("wal-*.log"), key=segment_base)


# ----------------------------------------------------------------------
# crash injection
# ----------------------------------------------------------------------

_crash_budget: Optional[int] = None
_crash_armed = False


def _load_crash_budget() -> Optional[int]:
    """The remaining injected-crash byte budget (None: no injection)."""
    global _crash_budget, _crash_armed
    if not _crash_armed:
        raw = os.environ.get("REPRO_WAL_CRASH_AT", "").strip()
        _crash_budget = int(raw) if raw.isdigit() else None
        _crash_armed = True
    return _crash_budget


def _spend_crash_budget(n: int) -> int:
    """Consume ``n`` bytes of budget; the allowed write may be shorter."""
    global _crash_budget
    if _crash_budget is None:
        return n
    allowed = min(n, _crash_budget)
    _crash_budget -= allowed
    return allowed


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------


def scan_wal(path: pathlib.Path) -> Tuple[int, List[Tuple[Any, ...]], int, Optional[str]]:
    """Read one segment, stopping at the first damaged frame.

    Returns ``(base_clock, records, good_offset, damage)`` where
    ``records`` are the decoded payload tuples of every intact record,
    ``good_offset`` is the byte offset just past the last intact record
    (the truncation point for recovery), and ``damage`` is ``None`` for
    a clean segment or a human-readable reason for the torn tail.

    A file too short to hold the header — a crash during segment
    creation, before any record could have been acknowledged — scans as
    empty with ``good_offset`` 0, signalling the writer to rebuild the
    header.
    """
    data = path.read_bytes()
    if len(data) < HEADER_SIZE:
        return segment_base(path), [], 0, (
            "truncated header" if data else None)
    magic, base = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise WalError(f"{path.name}: bad magic {magic!r}")
    records: List[Tuple[Any, ...]] = []
    offset = HEADER_SIZE
    last_lsn = -1
    while offset < len(data):
        if offset + _FRAME.size > len(data):
            return base, records, offset, "torn frame header"
        length, crc = _FRAME.unpack_from(data, offset)
        if length > MAX_RECORD:
            return base, records, offset, f"implausible length {length}"
        end = offset + _FRAME.size + length
        if end > len(data):
            return base, records, offset, "torn payload"
        payload = data[offset + _FRAME.size:end]
        if crc32(payload) & 0xFFFFFFFF != crc:
            return base, records, offset, "crc mismatch"
        try:
            record = marshal.loads(payload)
        except (ValueError, EOFError, TypeError):
            return base, records, offset, "undecodable payload"
        if (not isinstance(record, tuple) or len(record) < 2
                or record[0] not in ("B", "S")
                or not isinstance(record[1], int)):
            return base, records, offset, "malformed record"
        lsn = record[1]
        if record[0] == "B" and lsn <= last_lsn:
            return base, records, offset, (
                f"non-monotone LSN {lsn} after {last_lsn}")
        last_lsn = max(last_lsn, lsn)
        records.append(record)
        offset = end
    return base, records, offset, None


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------


def _fsync_directory(directory: pathlib.Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class WalWriter:
    """Appends framed records to one segment, fsyncing per ``sync``."""

    def __init__(self, path: pathlib.Path, base: int, fp: io.BufferedRandom,
                 size: int, sync: str):
        self.path = path
        self.base = base
        self.sync = sync
        self._fp: Optional[io.BufferedRandom] = fp
        self.size = size

    @classmethod
    def open(cls, directory: pathlib.Path, base: int,
             sync: str = "always") -> Tuple["WalWriter", List[Tuple[Any, ...]]]:
        """Open (creating or recovering) the segment with base ``base``.

        An existing segment is scanned first; a torn tail is truncated
        away so the writer appends after the last intact record.
        Returns the writer and the segment's intact records.
        """
        path = segment_path(directory, base)
        records: List[Tuple[Any, ...]] = []
        if path.exists():
            _, records, good, damage = scan_wal(path)
            fp = open(path, "r+b")
            if damage is not None:
                fp.truncate(good)
                STATS["torn_tails"] += 1
            if good < HEADER_SIZE:
                fp.truncate(0)
                fp.seek(0)
                fp.write(_HEADER.pack(MAGIC, base))
                fp.flush()
                os.fsync(fp.fileno())
                good = HEADER_SIZE
            fp.seek(good)
            return cls(path, base, fp, good, sync), records
        fp = open(path, "x+b")
        writer = cls(path, base, fp, 0, sync)
        writer._write(_HEADER.pack(MAGIC, base))
        writer._flush(force=True)
        # Records acknowledged in this segment are durable only once
        # its directory entry is.
        _fsync_directory(directory)
        return writer, records

    def _write(self, data: bytes) -> None:
        assert self._fp is not None, "writer is closed"
        if _load_crash_budget() is None:
            self._fp.write(data)
            self.size += len(data)
            return
        allowed = _spend_crash_budget(len(data))
        self._fp.write(data[:allowed])
        self.size += allowed
        if allowed < len(data):
            # Injected crash: persist the torn prefix, die without any
            # cleanup (atexit handlers, finally blocks) running.
            self._fp.flush()
            os.fsync(self._fp.fileno())
            os._exit(CRASH_EXIT_CODE)

    def _flush(self, force: bool = False) -> None:
        assert self._fp is not None, "writer is closed"
        self._fp.flush()
        if force or self.sync == "always":
            os.fsync(self._fp.fileno())
            STATS["wal_syncs"] += 1

    def append(self, record: Tuple[Any, ...]) -> int:
        """Frame, append, and (per policy) fsync one record.

        Returns the record's size on disk in bytes.  When this method
        returns under ``sync="always"``, the record is durable.
        """
        payload = marshal.dumps(record)
        frame = _FRAME.pack(len(payload), crc32(payload) & 0xFFFFFFFF)
        self._write(frame + payload)
        self._flush()
        n = len(frame) + len(payload)
        STATS["wal_records"] += 1
        STATS["wal_bytes"] += n
        return n

    @property
    def closed(self) -> bool:
        return self._fp is None

    def close(self) -> None:
        if self._fp is not None:
            self._fp.flush()
            os.fsync(self._fp.fileno())
            self._fp.close()
            self._fp = None

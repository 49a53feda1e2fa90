"""Atomic snapshots: the database's relations as int-column images.

A snapshot is one self-contained file from which recovery can rebuild
the whole fact store without replaying history.  A snapshot-local
:class:`~repro.columnar.dictionary.ValueDictionary` assigns dense codes
to every domain value, and each relation is stored as
``("C", n_rows, arity, [array('q') column bytes])`` — near-memcpy on
both ends (readers also accept a ``("V", rows)`` value form).  The
whole document goes through ``marshal`` (``b"M"`` prefix) with a
transparent pickle fallback (``b"P"``) for exotic value types.

File layout (integers little-endian)::

    +----------+----------+----------+------------------+
    | magic    | crc32    | length   | payload          |
    | 8 bytes  | 4 bytes  | 8 bytes  | `length` bytes   |
    +----------+----------+----------+------------------+

Writes are atomic: the payload is written to a ``.tmp`` sibling,
flushed and fsynced, then ``os.rename``\\ d over the final
``snapshot-<clock>.snap`` name and the directory fsynced — a crash
leaves either the old snapshot set or the new one, never a half
snapshot under the final name.  Readers verify the CRC before trusting
anything, so a corrupt file is rejected (and recovery falls back to an
older snapshot plus a longer WAL replay).

Crash injection for the chaos suite: ``REPRO_SNAPSHOT_CRASH_AT`` may be
a byte count (die mid-``.tmp``-write after that many bytes) or the
sentinels ``before-rename`` / ``after-rename``.
"""

from __future__ import annotations

import marshal
import os
import pathlib
import pickle
import struct
from array import array
from typing import Dict, List, Optional, Set, Tuple

from ..columnar.dictionary import ValueDictionary
from ..core.atoms import RelationSchema
from .wal import CRASH_EXIT_CODE, _fsync_directory

try:
    from zlib import crc32
except ImportError:  # pragma: no cover - zlib is part of CPython
    from binascii import crc32  # type: ignore

__all__ = ["SnapshotError", "write_snapshot", "read_snapshot",
           "snapshot_path", "list_snapshots"]

MAGIC = b"RPSNAP01"
_HEADER = struct.Struct("<8sIQ")

Row = Tuple


class SnapshotError(RuntimeError):
    """Raised when a snapshot file cannot be trusted."""


def snapshot_path(directory: pathlib.Path, clock: int) -> pathlib.Path:
    return directory / f"snapshot-{clock:016d}.snap"


def snapshot_clock(path: pathlib.Path) -> int:
    return int(path.name[len("snapshot-"):-len(".snap")])


def list_snapshots(directory: pathlib.Path) -> List[pathlib.Path]:
    """All snapshot files of a store directory, oldest first."""
    return sorted(directory.glob("snapshot-*.snap"), key=snapshot_clock)


def _encode_relation(rows: Set[Row], arity: int,
                     dictionary: ValueDictionary) -> Tuple:
    """One relation in the ``"C"`` int-column form."""
    ordered = list(rows)
    encode = dictionary.encode
    columns = [
        array("q", [encode(row[j]) for row in ordered])
        for j in range(arity)
    ]
    return ("C", len(ordered), arity, [col.tobytes() for col in columns])


def _decode_relation(entry: Tuple, values: List[object]) -> Set[Row]:
    tag = entry[0]
    if tag == "V":
        return {tuple(row) for row in entry[1]}
    if tag != "C":
        raise SnapshotError(f"unknown relation encoding {tag!r}")
    _, n, arity, blobs = entry
    if n == 0:
        return set()
    if arity == 0:
        return {()}
    decoded = []
    for blob in blobs:
        col = array("q")
        col.frombytes(blob)
        if len(col) != n:
            raise SnapshotError("column length disagrees with row count")
        decoded.append(map(values.__getitem__, col))
    return set(zip(*decoded))


def _encode_payload(document: dict) -> bytes:
    try:
        return b"M" + marshal.dumps(document)
    except ValueError:
        return b"P" + pickle.dumps(document)


def _decode_payload(blob: bytes) -> dict:
    if blob[:1] == b"M":
        return marshal.loads(blob[1:])
    if blob[:1] == b"P":
        return pickle.loads(blob[1:])
    raise SnapshotError(f"unknown payload prefix {blob[:1]!r}")


def _crash_mode() -> Optional[str]:
    raw = os.environ.get("REPRO_SNAPSHOT_CRASH_AT", "").strip()
    return raw or None


def _crash_now() -> None:
    os._exit(CRASH_EXIT_CODE)


def write_snapshot(directory: pathlib.Path, clock: int,
                   schemas: Dict[str, RelationSchema],
                   facts: Dict[str, Set[Row]]) -> int:
    """Atomically write ``snapshot-<clock>.snap``; returns bytes on disk.

    The value dictionary is built fresh per snapshot (dense codes over
    exactly the values alive at ``clock``), so deleted values never
    leak into the on-disk image — the durable cousin of the columnar
    store's fresh-store-per-database rule.
    """
    dictionary = ValueDictionary()
    relations = {
        name: _encode_relation(facts.get(name, set()),
                               schemas[name].arity, dictionary)
        for name in sorted(schemas)
    }
    document = {
        "clock": clock,
        "schemas": [(s.name, s.arity, s.key_size)
                    for _, s in sorted(schemas.items())],
        "dictionary": list(dictionary.values),
        "relations": relations,
    }
    payload = _encode_payload(document)
    header = _HEADER.pack(MAGIC, crc32(payload) & 0xFFFFFFFF, len(payload))
    tmp = directory / f"snapshot-{clock:016d}.tmp"
    final = snapshot_path(directory, clock)
    crash = _crash_mode()
    with open(tmp, "wb") as fp:
        data = header + payload
        if crash is not None and crash.isdigit():
            cut = min(int(crash), len(data))
            fp.write(data[:cut])
            fp.flush()
            os.fsync(fp.fileno())
            _crash_now()
        fp.write(data)
        fp.flush()
        os.fsync(fp.fileno())
    if crash == "before-rename":
        _crash_now()
    os.rename(tmp, final)
    _fsync_directory(directory)
    if crash == "after-rename":
        _crash_now()
    return len(header) + len(payload)


def read_snapshot(path: pathlib.Path) -> Tuple[int, List[RelationSchema],
                                               Dict[str, Set[Row]]]:
    """Decode one snapshot, raising :class:`SnapshotError` on damage."""
    data = path.read_bytes()
    if len(data) < _HEADER.size:
        raise SnapshotError(f"{path.name}: truncated header")
    magic, crc, length = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise SnapshotError(f"{path.name}: bad magic {magic!r}")
    payload = data[_HEADER.size:]
    if len(payload) != length:
        raise SnapshotError(
            f"{path.name}: payload is {len(payload)} bytes, header "
            f"promises {length}")
    if crc32(payload) & 0xFFFFFFFF != crc:
        raise SnapshotError(f"{path.name}: crc mismatch")
    try:
        document = _decode_payload(payload)
    except (ValueError, EOFError, TypeError) as exc:
        raise SnapshotError(f"{path.name}: undecodable payload: {exc}")
    values = list(document["dictionary"])
    schemas = [RelationSchema(name, arity, key)
               for name, arity, key in document["schemas"]]
    facts = {
        name: _decode_relation(entry, values)
        for name, entry in document["relations"].items()
    }
    return int(document["clock"]), schemas, facts

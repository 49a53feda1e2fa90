"""Global per-database value dictionaries and the columnar store.

Dictionary encoding is what lets the vectorized executor work on
``array('q')`` int columns instead of tuples of Python objects: every
domain value that ever appears in a fact (or a query constant) gets a
small non-negative integer code, and all batch operators — hash joins,
selections, deduplication — compare and hash those codes.

Two different lifetimes coexist here, and keeping them apart is the
whole invalidation story (the bug class this module exists to close):

* The :class:`ValueDictionary` is **append-only and never invalidated**.
  A code, once assigned, means the same value forever — deleting the
  value from the database merely leaves its code unused.  Append-only
  is what lets other code layers hold codes: the SQL mirror persists
  them (:mod:`repro.storage.pushdown`), and cached scan batches stay
  decodable however much the dictionary grows.
* The **encoded relation columns and scan results are version-tagged
  caches**.  Each entry records the :meth:`Database.relation_version`
  (for per-relation data) or the changelog :attr:`Database.clock` (for
  whole-database data) it was built against, exactly like the
  database's own lazy hash indexes; any mutation — including
  ``discard_all`` and incremental update streams, which bump the clock
  without growing the domain — retires the stale columns on the next
  access.  ``tests/test_columnar.py`` pins this with an update-stream
  regression test.

The store itself is attached lazily to the :class:`Database` instance
(``db._columnar_store``); ``Database.copy()`` builds a fresh object, so
copies never alias a stale store.
"""

from __future__ import annotations

import threading
from array import array
from typing import Dict, Iterable, List, Optional, Tuple

from ..db.database import Database

__all__ = ["ValueDictionary", "ColumnarStore", "columnar_store"]

_STORE_ATTR = "_columnar_store"

#: Encoded relation columns: one ``array('q')`` per position.
Columns = Tuple[array, ...]


class ValueDictionary:
    """An append-only bijection between domain values and int codes.

    Codes are assigned densely from zero in first-seen order; the
    reverse direction is a plain list lookup.  Values must be hashable
    (they are database fact components, which already live in sets).
    """

    __slots__ = ("_codes", "_values", "_lock")

    def __init__(self) -> None:
        self._codes: Dict[object, int] = {}
        self._values: List[object] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._values)

    def encode(self, value: object) -> int:
        """The code of ``value``, assigning a fresh one on first sight."""
        code = self._codes.get(value)
        if code is None:
            # Double-checked under the lock: concurrent server threads
            # (repro serve runs reads in a pool) must never hand the
            # same fresh code to two different values.  The hit path
            # above stays lock-free — dict reads are GIL-atomic and
            # the mapping is append-only.
            with self._lock:
                code = self._codes.get(value)
                if code is None:
                    code = len(self._values)
                    self._codes[value] = code
                    self._values.append(value)
        return code

    def encode_many(self, values: Iterable[object]) -> None:
        """Assign codes to every value, in order."""
        for value in values:
            self.encode(value)

    def code_of(self, value: object) -> Optional[int]:
        """The existing code of ``value``, or ``None`` if never seen."""
        return self._codes.get(value)

    def decode(self, code: int) -> object:
        """The value behind one code (raises ``IndexError`` if unknown)."""
        return self._values[code]

    @property
    def values(self) -> List[object]:
        """The code -> value table (treat as read-only; index = code)."""
        return self._values


class ColumnarStore:
    """Per-database cache of dictionary-encoded relation columns.

    Holds the database's global :class:`ValueDictionary` plus two
    version-tagged caches:

    * ``encoded``: relation name -> full relation as per-position int
      columns, tagged with the relation version it was built from;
    * ``scan``: one entry per distinct scan shape (constants, repeated
      -variable checks, projection), tagged the same way, so repeated
      executions of a plan skip the filter/dedup work entirely.

    The store never holds a reference to its database — every method
    takes the ``db`` it serves, which keeps ``Database.copy()`` and
    garbage collection trivial.
    """

    __slots__ = ("dictionary", "_encoded", "_scans")

    def __init__(self) -> None:
        self.dictionary = ValueDictionary()
        # relation -> (relation version, columns, n_rows)
        self._encoded: Dict[str, Tuple[int, Columns, int]] = {}
        # scan key -> (relation version, batch); caching the batch object
        # (not bare columns) keeps its fused-key cache warm across runs
        self._scans: Dict[Tuple, Tuple[int, object]] = {}

    def encoded(self, db: Database, relation: str) -> Tuple[Columns, int]:
        """The whole relation as int columns (version-cached).

        Any mutation of the relation bumps its version and retires the
        cached columns on the next call; the dictionary itself is
        append-only and survives.
        """
        version = db.relation_version(relation)
        cached = self._encoded.get(relation)
        if cached is not None and cached[0] == version:
            return cached[1], cached[2]
        schema = db.schemas.get(relation)
        arity = schema.arity if schema is not None else 0
        rows = list(db.facts(relation))
        encode = self.dictionary.encode
        columns: Columns = tuple(
            array("q", [encode(row[j]) for row in rows])
            for j in range(arity)
        )
        self._encoded[relation] = (version, columns, len(rows))
        # Scan results derive from these columns; drop their stale
        # entries.  Concurrent readers (repro serve shares the read
        # lock) insert and sweep too: iterate a snapshot, and let a key
        # another thread already removed stay removed.
        for key, (built, _) in list(self._scans.items()):
            if key[0] == relation and built != version:
                self._scans.pop(key, None)
        return columns, len(rows)

    def scan_cache_get(self, db: Database, key: Tuple):
        """A cached scan batch, or ``None`` when absent/stale.

        ``key[0]`` must be the relation name; entries are valid only at
        the relation version they were computed against.
        """
        cached = self._scans.get(key)
        if cached is None or cached[0] != db.relation_version(key[0]):
            return None
        return cached[1]

    def scan_cache_put(self, db: Database, key: Tuple, batch) -> None:
        self._scans[key] = (db.relation_version(key[0]), batch)

    def prime(self, db: Database) -> int:
        """Encode every relation of ``db`` into the dictionary.

        Returns the dictionary length afterwards.
        """
        for relation in db.relations():
            self.encoded(db, relation)
        return len(self.dictionary)


def columnar_store(db: Database) -> ColumnarStore:
    """The database's columnar store, created on first use."""
    store = getattr(db, _STORE_ATTR, None)
    if store is None:
        store = ColumnarStore()
        setattr(db, _STORE_ATTR, store)
    return store

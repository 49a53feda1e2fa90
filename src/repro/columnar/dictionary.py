"""Global per-database value dictionaries and the columnar store.

Dictionary encoding is what lets the vectorized executor work on int
columns — plain lists of the codes this dictionary assigned — instead
of tuples of Python objects: every domain value that ever appears in a
fact (or a query constant) gets a small non-negative integer code, and
all batch operators — hash joins, selections, deduplication — compare
and hash those codes.

Four lifetimes coexist here, and keeping them apart is the whole
invalidation story:

* The :class:`ValueDictionary` is **append-only and never invalidated**.
  A code, once assigned, means the same value forever — deleting the
  value from the database merely leaves its code unused.  Append-only
  is what lets other code layers hold codes: the SQL mirror stores
  them (:mod:`repro.storage.pushdown`), and cached scan batches stay
  decodable however much the dictionary grows.
* The **encoded relation columns follow the changelog**.
  :func:`columnar_store` subscribes the store when it creates it, and
  the listener only queues each committed
  :class:`~repro.db.changelog.Delta` with the relation's version after
  it, so a commit encodes nothing.  The next read of the relation
  folds the queue into *copies* of the cached columns — a delete moves
  the last row into the freed slot through a row -> slot map that the
  first fold builds (read-only stores never build one), an insert
  appends — so a column handed out earlier never changes.  The read
  re-encodes the relation in full instead when the queue does not lead
  from the cached version to the current one: columns encoded inside
  an open batch (its commit delta overlaps them, so they are never
  folded), a batch whose net delta was empty, or a queue dropped for
  holding more rows than the relation.
* **Scan results are version-tagged caches**, valid only at the
  :meth:`Database.relation_version` they were computed against and
  swept when their relation's columns move on.
* **Kept answers are never invalidated, only compared.**  Per compiled
  plan the store keeps the answer it last returned, the set of its
  rows' fused keys and the radix they were fused under.  The next
  read of that plan fuses its new root under the current radix: an
  equal key set returns the kept answer, and otherwise the kept answer
  drops the rows of vanished keys and gains those of new keys (codes
  are append-only, so an old key still unfuses to the same values).  A
  moved radix, or a change of more than half the answer, decodes
  afresh.  Entries are bounded by the plan cache's ``maxsize``, least
  recently used first out.

Each relation's cache entry publishes its columns together with a
*base batch* over them, in one tuple, because readers take a lock-free
fast path: a reader never sees new columns with an old base batch.
The base batch caches the fused keys that full-width scans ask for
(through :attr:`ColumnarRelation._origins`), and a fold patches those
key vectors with the same edits instead of re-fusing the relation.
Folds and full encodes run under the store's lock, so two readers
never fold into one slot map.  A kept answer is published the same
way, as one ``(radix, key set, answer)`` tuple of frozensets, so
``repro serve``'s reader threads may share it.
``tests/test_columnar_delta.py`` pins the fold and the kept answers
against the compiled oracle, including the open-batch trap.

The store itself is attached lazily to the :class:`Database` instance
(``db._columnar_store``); ``Database.copy()`` builds a fresh object, so
copies never alias a stale store.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import partial
from itertools import repeat
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple)

from ..core.terms import Variable
from ..db.changelog import Changelog, Delta
from ..db.database import Database
from ..fo.compile import plan_cache
from .relation import ColumnarRelation

__all__ = ["ValueDictionary", "ColumnarStore", "columnar_store"]

_STORE_ATTR = "_columnar_store"
#: Serializes lazy attaches: two threads racing on a database's first
#: columnar read must not both subscribe a store.
_ATTACH_LOCK = threading.Lock()

#: Encoded relation columns: one list of codes per position.
Columns = Sequence[List[int]]
#: One encoded row: its codes, position by position.
CodeRow = Tuple[int, ...]
#: The answer last returned for a plan: ``(radix, the fused keys of
#: its rows under that radix, its value rows)``, published as one tuple
#: and never mutated.
KeptAnswer = Tuple[int, FrozenSet[int], FrozenSet[Tuple]]


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


class _Pending:
    """Committed deltas of one relation not yet folded into its columns."""

    __slots__ = ("deltas", "rows", "size")

    def __init__(self, size: int):
        #: ``(relation version after the delta, delta)``, commit order.
        self.deltas: List[Tuple[int, Delta]] = []
        #: Inserted plus deleted rows queued.
        self.rows = 0
        #: The relation's size once every queued delta applies.
        self.size = size


def _code_rows(columns: Columns, n: int) -> Iterable[CodeRow]:
    return zip(*columns) if columns else repeat((), n)


class ColumnarStore:
    """Per-database cache of dictionary-encoded relation columns.

    Holds the database's global :class:`ValueDictionary` plus:

    * ``encoded``: relation name -> ``(relation version, base batch,
      foldable)``, the base batch holding the whole relation as
      per-position int columns; ``foldable`` entries take the queued
      changelog deltas on their next read;
    * ``pending``: relation name -> the committed deltas queued since
      its foldable entry;
    * ``scan``: one entry per distinct scan shape (constants, repeated
      -variable checks, projection), tagged with the relation version,
      so repeated executions of a plan skip the filter/dedup work;
    * ``answers``: compiled plan -> the :data:`KeptAnswer` last
      returned for it, least recently used first.

    The store never holds a reference to its database — every method
    takes the ``db`` it serves, and the changelog listener that
    :func:`columnar_store` subscribes reads relation versions through
    a bound method.
    """

    __slots__ = ("dictionary", "_encoded", "_pending", "_slots", "_scans",
                 "_answers", "_lock")

    def __init__(self) -> None:
        self.dictionary = ValueDictionary()
        self._encoded: Dict[str, Tuple[int, ColumnarRelation, bool]] = {}
        self._pending: Dict[str, _Pending] = {}
        # relation -> {code row: slot} of its foldable entry, built by
        # the first fold and kept in step by every later one
        self._slots: Dict[str, Dict[CodeRow, int]] = {}
        # scan key -> (relation version, batch); caching the batch object
        # (not bare columns) keeps its fused-key cache warm across runs
        self._scans: Dict[Tuple, Tuple[int, object]] = {}
        # plans hash by identity; a plan the plan cache evicted ages out
        self._answers: "OrderedDict[object, KeptAnswer]" = OrderedDict()
        self._lock = threading.Lock()

    # -- changelog -----------------------------------------------------

    def _on_commit(self, version_of: Callable[[str], int],
                   log: Changelog) -> None:
        """Changelog listener: queue each delta whose relation has
        foldable columns, tagged with ``version_of(relation)``.

        Encodes nothing.  A queue that grows past the relation's size
        would fold slower than a full encode, so it is dropped together
        with the columns it would have patched.
        """
        with self._lock:
            for name, delta in log.deltas.items():
                entry = self._encoded.get(name)
                version = version_of(name)
                # An entry at this version already holds the delta: an
                # earlier listener read the relation.
                if entry is None or not entry[2] or entry[0] >= version:
                    continue
                pending = self._pending.get(name)
                if pending is None:
                    pending = self._pending[name] = _Pending(entry[1].length)
                pending.deltas.append((version, delta))
                pending.rows += len(delta)
                pending.size += len(delta.inserted) - len(delta.deleted)
                if pending.rows > pending.size:
                    del self._pending[name], self._encoded[name]
                    self._slots.pop(name, None)

    # -- encoded relations ---------------------------------------------

    def relation_batch(self, db: Database, relation: str) -> ColumnarRelation:
        """The whole relation as one batch at its current version.

        Version-cached: a hit is lock-free.  Otherwise the queued
        deltas fold into copies of the cached columns, or — when they
        do not lead from the cached version to this one — the relation
        is encoded afresh.  The dictionary is append-only and survives
        either way.
        """
        version = db.relation_version(relation)
        entry = self._encoded.get(relation)
        if entry is not None and entry[0] == version:
            return entry[1]
        with self._lock:
            entry = self._encoded.get(relation)
            if entry is not None and entry[0] == version:
                return entry[1]
            pending = self._pending.pop(relation, None)
            batch = None
            if (entry is not None and pending is not None
                    and pending.deltas[-1][0] == version):
                batch = self._fold(relation, entry[1], pending)
            if batch is None:
                self._slots.pop(relation, None)
                batch = self._encode(db, relation)
                # Inside an open batch the columns already hold rows
                # that its commit delta reports again.
                foldable = not db.in_batch
            else:
                foldable = True
            self._encoded[relation] = (version, batch, foldable)
            # Scan results derive from these columns; drop their stale
            # entries.  Concurrent readers insert scans lock-free:
            # iterate a snapshot, and let a key another thread already
            # removed stay removed.
            for key, (built, _) in list(self._scans.items()):
                if key[0] == relation and built != version:
                    self._scans.pop(key, None)
        return batch

    def _encode(self, db: Database, relation: str) -> ColumnarRelation:
        schema = db.schemas.get(relation)
        arity = schema.arity if schema is not None else 0
        rows = list(db.facts(relation))
        encode = self.dictionary.encode
        columns = [[encode(row[j]) for row in rows] for j in range(arity)]
        cols = tuple(Variable(f"c{j}") for j in range(arity))
        return ColumnarRelation(cols, columns, len(rows))

    def _fold(self, relation: str, old: ColumnarRelation,
              pending: _Pending) -> Optional[ColumnarRelation]:
        """``old`` with the queued deltas applied, or ``None`` when one
        does not apply (a deleted row not encoded, an inserted one
        already there).

        Works on copies: ``old``'s columns and key vectors may be in
        use by readers that took the lock-free path.  Multi-position
        fused keys cached on ``old`` are patched along with the
        columns, as long as their radix still exceeds every code.
        """
        code_of, encode = self.dictionary.code_of, self.dictionary.encode
        edits = [([tuple(map(code_of, row)) for row in delta.deleted],
                  [tuple(map(encode, row)) for row in delta.inserted])
                 for _, delta in pending.deltas]
        limit = len(self.dictionary)
        patched = [(key, list(vector))
                   for key, vector in list(old._fused.items())
                   if type(key[0]) is tuple and len(key[0]) > 1
                   and key[1] >= limit]
        vectors = [vector for _, vector in patched]
        columns = [col[:] for col in old.columns]
        n = old.length
        slots = self._slots.get(relation)
        if slots is None:
            slots = dict(zip(_code_rows(old.columns, n), range(n)))
            self._slots[relation] = slots
        for deleted, inserted in edits:
            for row in deleted:
                slot = slots.pop(row, None)
                if slot is None:
                    return None
                n -= 1
                if slot != n:
                    slots[tuple(col[n] for col in columns)] = slot
                    for col in columns:
                        col[slot] = col[n]
                    for vector in vectors:
                        vector[slot] = vector[n]
                for col in columns:
                    col.pop()
                for vector in vectors:
                    vector.pop()
            for row in inserted:
                if row in slots:
                    return None
                slots[row] = n
                n += 1
                for col, code in zip(columns, row):
                    col.append(code)
                for (positions, radix), vector in patched:
                    key = row[positions[0]]
                    for p in positions[1:]:
                        key = key * radix + row[p]
                    vector.append(key)
        return ColumnarRelation(old.cols, columns, n, fused=dict(patched))

    # -- scans ---------------------------------------------------------

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

    # -- answers -------------------------------------------------------

    def kept_answer(self, plan) -> Optional[KeptAnswer]:
        """The answer last kept for ``plan`` on this store, or ``None``."""
        return self._answers.get(plan)

    def keep_answer(self, plan, kept: KeptAnswer) -> None:
        """Publish ``kept`` as ``plan``'s answer, evicting the least
        recently kept beyond the plan cache's bound."""
        with self._lock:
            answers = self._answers
            answers[plan] = kept
            answers.move_to_end(plan)
            while len(answers) > plan_cache.maxsize:
                answers.popitem(last=False)

    def prime(self, db: Database) -> int:
        """Encode every relation of ``db`` into the dictionary.

        Returns the dictionary length afterwards.
        """
        for relation in db.relations():
            self.relation_batch(db, relation)
        return len(self.dictionary)


def columnar_store(db: Database) -> ColumnarStore:
    """The database's columnar store, created and subscribed to its
    changelog on first use."""
    store = getattr(db, _STORE_ATTR, None)
    if store is None:
        with _ATTACH_LOCK:
            store = getattr(db, _STORE_ATTR, None)
            if store is None:
                store = ColumnarStore()
                db.subscribe(partial(store._on_commit, db.relation_version))
                setattr(db, _STORE_ATTR, store)
    return store

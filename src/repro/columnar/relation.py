"""The columnar batch representation: distinct rows as int columns.

A :class:`ColumnarRelation` is the vectorized counterpart of the tuple
executor's ``Set[Row]``: the same relation of variable assignments,
stored as one plain list of dictionary codes per column.  The list
holds the very int objects the dictionary assigned, so reading an
element allocates nothing.  The executor maintains a **distinct-rows
invariant** — every batch it produces holds each row at most once — so
set semantics are preserved without the per-row hashing that dominates
the tuple path.

:func:`fuse` packs several key columns into one int per row (codes are
dense and non-negative, so ``k0 * base + k1`` with ``base`` at least
the dictionary length is injective), which is what lets batch hash
joins and deduplication build int-keyed hash tables instead of tuple
keys.
"""

from __future__ import annotations

from itertools import islice
from operator import add, itemgetter
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Sequence,
    Tuple)

from ..core.terms import Variable

if TYPE_CHECKING:  # the store module imports this one
    from .dictionary import ValueDictionary

__all__ = ["ColumnarRelation", "fuse", "gather"]

Row = Tuple
Cols = Tuple[Variable, ...]
#: Where a column comes from: ``(source batch, row index vector or
#: None for identity, source position)``.
Origin = Tuple["ColumnarRelation", Optional[Sequence[int]], int]


def gather(values: Sequence, selection: Sequence[int]) -> List:
    """The selected elements, in selection order, as a fresh list.

    One function for code columns, fused key vectors (whose entries
    can exceed 64 bits on wide batches) and index vectors alike.
    ``itemgetter(*selection)`` resolves the whole selection in one C
    call — measurably faster than mapping ``__getitem__`` — at the
    price of one transient tuple.
    """
    if len(selection) > 1:
        return list(itemgetter(*selection)(values))
    return [values[i] for i in selection]


def fuse(columns: Sequence[Sequence[int]], positions: Sequence[int],
         n: int, base: int) -> Sequence[int]:
    """One int key per row over the given column positions.

    Injective whenever every code is in ``[0, base)`` — callers pass
    the current dictionary length, which bounds every assigned code.
    With no positions every row keys to 0 (the nullary key); with one
    position the column itself is the key sequence (no copy).
    """
    if not positions:
        return [0] * n
    if len(positions) == 1:
        return columns[positions[0]]
    keys: Sequence[int] = columns[positions[0]]
    for p in positions[1:]:
        # k * base + c, elementwise, without a Python-level loop body.
        keys = list(map(add, map(base.__mul__, keys), columns[p]))
    return keys


class ColumnarRelation:
    """Distinct rows over ``cols``, one int column per variable.

    A batch is built either with every column in hand (scans,
    deduplications, the store's relation batches) or from per-column
    **origins** ``(source batch, row index vector or None for identity,
    source position)``: join outputs, filter results (select,
    semi/anti-join, difference) and reorders.  A column with an origin
    is gathered from its source on first read and kept, so a column no
    operator reads is never gathered.  Gathering writes to the batch:
    batches that threads share — the store's relation batches and scan
    results, which ``repro serve``'s readers all use — are built with
    every column in hand.  Selecting from a batch composes each
    distinct index vector once, never stacking lazy layers; fused keys
    over columns that share one source and one index vector come from
    the source's cached key vector (see :meth:`fused`).
    """

    __slots__ = ("cols", "length", "_columns", "_fused", "_origins")

    def __init__(self, cols: Cols,
                 columns: Optional[Iterable[List[int]]], length: int,
                 fused: Optional[dict] = None,
                 origins: Optional[Tuple[Origin, ...]] = None):
        self.cols = cols
        self.length = length
        # None marks a column not gathered yet (it has an origin).
        self._columns: List[Optional[List[int]]] = (
            [None] * len(cols) if columns is None else list(columns))
        # Shared with re-labelled views of the same columns (the scan
        # cache hands out one data batch under several column tuples).
        self._fused: dict = {} if fused is None else fused
        self._origins = origins

    @property
    def columns(self) -> List[List[int]]:
        """Every column, gathering the ones not read yet."""
        return [self.column(j) for j in range(len(self.cols))]

    def column(self, j: int) -> List[int]:
        """One column — the accessor operators should prefer: it
        gathers (and keeps) column ``j`` alone."""
        col = self._columns[j]
        if col is None:
            assert self._origins is not None
            source, idx, pos = self._origins[j]
            col = source.column(pos)
            if idx is not None:
                col = gather(col, idx)
            self._columns[j] = col
        return col

    def fused(self, positions: Sequence[int], base: int) -> Sequence[int]:
        """Fused int keys over ``positions``, cached per batch.

        Memoized batches are probed by several parent operators (both
        join sides, semi/anti filters, difference); the key vector for
        a given ``(positions, base)`` is computed once.  The cache is
        keyed on ``base`` too because the dictionary may grow between
        executions (new codes never invalidate old keys, but fused
        values must come from one radix to be comparable).  Columns
        that share one source and one index vector take their keys out
        of the source's cached vector with a single gather.
        """
        pos = tuple(positions)
        key = (pos, base)
        keys = self._fused.get(key)
        if keys is None:
            common = self.common_origin(pos) if len(pos) > 1 else None
            if common is not None:
                source, idx, spos = common
                keys = source.fused(spos, base)
                if idx is not None:
                    keys = gather(keys, idx)
            else:
                keys = fuse([self.column(p) for p in pos], range(len(pos)),
                            self.length, base)
            self._fused[key] = keys
        return keys

    def common_origin(self, positions: Sequence[int]) -> Optional[
            Tuple["ColumnarRelation", Optional[Sequence[int]], List[int]]]:
        """``(source, index vector, source positions)`` when every column
        at ``positions`` comes from one source through one index vector,
        else ``None``."""
        origins = self._origins
        if origins is None or not positions:
            return None
        source, idx, _ = origins[positions[0]]
        spos = []
        for p in positions:
            src, vec, pos = origins[p]
            if src is not source or vec is not idx:
                return None
            spos.append(pos)
        return source, idx, spos

    def join_index(self, positions: Sequence[int],
                   base: int) -> Tuple[dict, bool]:
        """A hash index over the fused keys, cached per batch.

        Returns ``(table, unique)``: with ``unique`` the keys are
        distinct and ``table`` maps key -> row index; otherwise it maps
        key -> list of row indices.  Cached alongside the fused keys,
        so a build side that lives in the scan cache keeps its index
        across executions.
        """
        key = ("idx", tuple(positions), base)
        index = self._fused.get(key)
        if index is None:
            keys = self.fused(positions, base)
            table: dict = dict(zip(keys, range(self.length)))
            if len(table) == self.length:
                index = (table, True)
            else:
                multi: dict = {}
                setdefault = multi.setdefault
                for j, k in enumerate(keys):
                    setdefault(k, []).append(j)
                index = (multi, False)
            self._fused[key] = index
        return index

    @classmethod
    def empty(cls, cols: Cols) -> "ColumnarRelation":
        return cls(cols, [[] for _ in cols], 0)

    @classmethod
    def from_rows(cls, cols: Cols, rows: Iterable[Row],
                  dictionary: ValueDictionary) -> "ColumnarRelation":
        """Encode a set of (already distinct) value rows."""
        rows = list(rows)
        encode = dictionary.encode
        columns = [[encode(row[j]) for row in rows]
                   for j in range(len(cols))]
        return cls(cols, columns, len(rows))

    @classmethod
    def from_code_rows(cls, cols: Cols,
                       rows: Iterable[Sequence[int]],
                       batch_size: int = 4096) -> "ColumnarRelation":
        """Ingest (already distinct) rows of dictionary *codes* in bulk.

        The zero-shuttle half of the SQL pushdown: a sqlite cursor over
        an integer-encoded mirror yields code tuples, which land
        directly in int columns — answers never materialize as Python
        value tuples on the way out of the database.
        """
        columns: List[List[int]] = [[] for _ in cols]
        length = 0
        it = iter(rows)
        while True:
            batch = list(islice(it, batch_size))
            if not batch:
                break
            length += len(batch)
            for col, codes in zip(columns, zip(*batch)):
                col.extend(codes)
        return cls(cols, columns, length)

    @property
    def width(self) -> int:
        return len(self.cols)

    def to_rows(self, dictionary: ValueDictionary) -> FrozenSet[Row]:
        """Decode back to the tuple executor's representation."""
        if self.length == 0:
            return frozenset()
        if not self.cols:
            return frozenset({()})
        values = dictionary.values
        if self.length > 1:
            decoded = [itemgetter(*col)(values) for col in self.columns]
        else:
            decoded = [[values[col[0]]] for col in self.columns]
        return frozenset(zip(*decoded))

    def _sources(self) -> Tuple[Origin, ...]:
        """Per-column origins; a batch without them is its own source."""
        if self._origins is not None:
            return self._origins
        return tuple((self, None, j) for j in range(len(self.cols)))

    def select(self, selection: Sequence[int]) -> "ColumnarRelation":
        """The batch restricted to the rows of one selection vector.

        Gathers nothing: each origin's index vector composes with
        ``selection`` once per distinct vector, not once per column.
        """
        composed: Dict[int, Sequence[int]] = {}
        origins = []
        for source, idx, pos in self._sources():
            if idx is None:
                rows = selection
            else:
                rows = composed.get(id(idx))
                if rows is None:
                    rows = composed[id(idx)] = gather(idx, selection)
            origins.append((source, rows, pos))
        return ColumnarRelation(self.cols, None, len(selection),
                                origins=tuple(origins))

    def reorder(self, cols: Cols,
                positions: Sequence[int]) -> "ColumnarRelation":
        """The columns at ``positions``, relabelled ``cols``.

        Gathers nothing, and keeps the columns already read.  The rows
        stay distinct only when ``positions`` cover every column:
        callers guarantee it.
        """
        if cols == self.cols and tuple(positions) == tuple(range(len(cols))):
            return self
        origins = self._sources()
        return ColumnarRelation(
            cols, [self._columns[p] for p in positions], self.length,
            origins=tuple(origins[p] for p in positions))

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        names = ", ".join(v.name for v in self.cols)
        return f"ColumnarRelation[{names}] ({self.length} rows)"

"""The columnar batch representation: distinct rows as int columns.

A :class:`ColumnarRelation` is the vectorized counterpart of the tuple
executor's ``Set[Row]``: the same relation of variable assignments,
stored as one ``array('q')`` of dictionary codes per column.  The
executor maintains a **distinct-rows invariant** — every batch it
produces holds each row at most once — so set semantics are preserved
without the per-row hashing that dominates the tuple path.

:func:`fuse` packs several key columns into one int per row (codes are
dense and non-negative, so ``k0 * base + k1`` with ``base`` at least
the dictionary length is injective), which is what lets batch hash
joins and deduplication build int-keyed hash tables instead of tuple
keys.
"""

from __future__ import annotations

from array import array
from itertools import islice
from operator import add, itemgetter
from typing import (
    TYPE_CHECKING, Iterable, List, Optional, Sequence, Set, Tuple)

from ..core.terms import Variable

if TYPE_CHECKING:  # the store module imports this one
    from .dictionary import ValueDictionary

__all__ = ["ColumnarRelation", "fuse", "gather", "pick"]

Row = Tuple
Cols = Tuple[Variable, ...]


def gather(column: Sequence[int], selection: Sequence[int]) -> array:
    """The selected elements of one column, as a fresh int column.

    ``itemgetter(*selection)`` resolves the whole selection in one C
    call — measurably faster than mapping ``__getitem__`` — at the
    price of one transient tuple.
    """
    if len(selection) > 1:
        return array("q", itemgetter(*selection)(column))
    return array("q", map(column.__getitem__, selection))


def pick(values: Sequence, selection: Sequence[int]) -> List:
    """The selected elements as a plain list.

    The list-valued sibling of :func:`gather` for fused key vectors,
    whose entries can exceed 64 bits on wide batches and so must never
    pass through an ``array('q')``.
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

    A batch is either **materialized** (it owns one ``array('q')`` per
    column) or a **deferred selection** over another batch: it records
    the source and a selection vector, and gathers a column only when
    some operator actually reads it.  Filters (select, semi/anti-join,
    difference) produce deferred batches, so a three-column filter
    result whose parent only projects two columns never pays the third
    gather — and its fused join keys come straight from the source's
    cached key vector with a single gather instead of a fresh
    multi-column fuse.  Chained selections compose their vectors, so
    laziness never gathers more than the eager executor did.
    """

    __slots__ = ("cols", "length", "_columns", "_fused", "_source", "_sel",
                 "_origins")

    def __init__(self, cols: Cols,
                 columns: Optional[Iterable[array]], length: int,
                 fused: Optional[dict] = None,
                 source: Optional["ColumnarRelation"] = None,
                 sel: Optional[Sequence[int]] = None):
        self.cols = cols
        self._columns: Optional[Tuple[array, ...]] = (
            None if columns is None else tuple(columns))
        self.length = length
        # Shared with re-labelled views of the same columns (the scan
        # cache hands out one data batch under several column tuples).
        self._fused: dict = {} if fused is None else fused
        self._source = source
        self._sel = sel
        # Per-column provenance ``(source batch, row index vector or
        # None for identity, source position)`` — the join operator
        # records where each output column was gathered from, so fused
        # keys over columns that all came from one side derive from
        # that side's cached key vector (see :meth:`fused`).
        self._origins: Optional[Tuple] = None

    @property
    def columns(self) -> Tuple[array, ...]:
        """Every column, materializing a deferred selection on demand."""
        columns = self._columns
        if columns is None:
            columns = tuple(self.column(j) for j in range(len(self.cols)))
            self._columns = columns
            self._source = self._sel = None
        return columns

    def column(self, j: int) -> array:
        """One column — the lazy accessor operators should prefer.

        On a deferred batch this gathers (and caches) just column
        ``j``; the other columns stay unmaterialized.
        """
        columns = self._columns
        if columns is not None:
            return columns[j]
        key = ("col", j)
        col = self._fused.get(key)
        if col is None:
            assert self._source is not None and self._sel is not None
            col = gather(self._source.column(j), self._sel)
            self._fused[key] = col
        return col

    def fused(self, positions: Sequence[int], base: int) -> Sequence[int]:
        """Fused int keys over ``positions``, cached per batch.

        Memoized batches are probed by several parent operators (both
        join sides, semi/anti filters, difference); the key vector for
        a given ``(positions, base)`` is computed once.  The cache is
        keyed on ``base`` too because the dictionary may grow between
        executions (new codes never invalidate old keys, but fused
        values must come from one radix to be comparable).  Deferred
        batches pick their keys out of the source's cached vector —
        fused keys can exceed 64 bits for wide batches, so that gather
        stays a plain list, never an ``array('q')``.
        """
        pos = tuple(positions)
        key = (pos, base)
        keys = self._fused.get(key)
        if keys is None:
            origins = self._origins
            if origins is not None and len(pos) > 1:
                infos = [origins[p] for p in pos]
                src, idx = infos[0][0], infos[0][1]
                if all(o[0] is src and o[1] is idx for o in infos[1:]):
                    source_keys = src.fused(
                        tuple(o[2] for o in infos), base)
                    keys = (source_keys if idx is None
                            else pick(source_keys, idx))
            if keys is None:
                if self._columns is not None:
                    keys = fuse(self._columns, pos, self.length, base)
                elif len(pos) == 1:
                    keys = self.column(pos[0])
                else:
                    assert (self._source is not None
                            and self._sel is not None)
                    keys = pick(self._source.fused(pos, base), self._sel)
            self._fused[key] = keys
        return keys

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
        return cls(cols, tuple(array("q") for _ in cols), 0)

    @classmethod
    def from_rows(cls, cols: Cols, rows: Iterable[Row],
                  dictionary: ValueDictionary) -> "ColumnarRelation":
        """Encode a set of (already distinct) value rows."""
        rows = list(rows)
        encode = dictionary.encode
        columns = tuple(
            array("q", [encode(row[j]) for row in rows])
            for j in range(len(cols))
        )
        return cls(cols, columns, len(rows))

    @classmethod
    def from_code_rows(cls, cols: Cols,
                       rows: Iterable[Sequence[int]],
                       batch_size: int = 4096) -> "ColumnarRelation":
        """Ingest (already distinct) rows of dictionary *codes* in bulk.

        The zero-shuttle half of the SQL pushdown: a sqlite cursor over
        an integer-encoded mirror yields code tuples, which land
        directly in ``array('q')`` columns — answers never materialize
        as Python value tuples on the way out of the database.
        """
        columns = tuple(array("q") for _ in cols)
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

    def to_rows(self, dictionary: ValueDictionary) -> Set[Row]:
        """Decode back to the tuple executor's representation."""
        if self.length == 0:
            return set()
        if not self.cols:
            return {()}
        values = dictionary.values
        if self.length > 1:
            decoded = [itemgetter(*col)(values) for col in self.columns]
        else:
            decoded = [[values[col[0]]] for col in self.columns]
        return set(zip(*decoded))

    def select(self, selection: Sequence[int]) -> "ColumnarRelation":
        """The batch restricted to the rows of one selection vector.

        Deferred: no column is gathered until something reads it.
        Selecting from an already-deferred batch composes the two
        selection vectors instead of stacking lazy layers.
        """
        if self._columns is None:
            source, sel = self._source, self._sel
            assert source is not None and sel is not None
            composed = pick(sel, selection)
            return ColumnarRelation(self.cols, None, len(composed),
                                    source=source, sel=composed)
        return ColumnarRelation(self.cols, None, len(selection),
                                source=self, sel=selection)

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        names = ", ".join(v.name for v in self.cols)
        return f"ColumnarRelation[{names}] ({self.length} rows)"

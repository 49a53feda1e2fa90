"""Columnar vectorized execution backend for the plan IR.

Dictionary-encoded int columns, plain lists of codes
(:mod:`repro.columnar.dictionary`, :mod:`repro.columnar.relation`),
and a batch-at-a-time :class:`~repro.columnar.executor.VectorExecutor`
over the same plan trees the tuple :class:`~repro.fo.plan.Executor`
runs — reachable as ``method="columnar"`` and, for open queries on
databases of at least ``COLUMNAR_MIN_FACTS`` facts, from
``method="auto"``.  The tuple executor remains the oracle: the parity
suites cross-validate every columnar path against it.
"""

from .dictionary import ColumnarStore, ValueDictionary, columnar_store
from .executor import (
    VectorExecutor,
    columnar_holds,
    columnar_rows,
    columnar_stats,
    prefer_columnar,
)
from .relation import ColumnarRelation, fuse, gather

__all__ = [
    "ColumnarRelation",
    "ColumnarStore",
    "ValueDictionary",
    "VectorExecutor",
    "columnar_holds",
    "columnar_rows",
    "columnar_stats",
    "columnar_store",
    "fuse",
    "gather",
    "prefer_columnar",
]

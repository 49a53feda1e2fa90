"""Unified engine metrics: one registry for every process-wide counter.

Each subsystem declares its section once, at import, and increments
the returned dict in place (a plain ``d[key] += n`` on the hot path):

>>> _STATS = counters("columnar", runs=0, auto_routed=0)   # doctest: +SKIP
>>> _STATS["runs"] += 1                                     # doctest: +SKIP

:func:`snapshot` copies one section, :func:`reset_metrics` zeroes them
all, and :func:`collect_metrics` (what ``engine.metrics()`` returns)
bundles the plan cache's counters and the four sections into one
typed :class:`EngineMetrics` (``schema_version`` 1).  The parallel
section includes the **merged worker-side counters**
(``worker_plan_cache``, ``worker_rows``) that forked workers report
back per call, fixing the old behaviour where ``repro certain --jobs
--stats`` silently dropped everything that happened inside workers.

This module imports no subsystem at module level, because every
subsystem imports it.  See ``docs/OBSERVABILITY.md`` for the schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict

__all__ = [
    "EngineMetrics",
    "collect_metrics",
    "counters",
    "reset_metrics",
    "snapshot",
]

#: Version of the metrics document shape (bump on breaking changes).
SCHEMA_VERSION = 1

#: Live counter dicts by section, and the zero state each resets to.
_LIVE: Dict[str, Dict[str, Any]] = {}
_ZERO: Dict[str, Dict[str, Any]] = {}


def _copy(counts: Dict[str, Any]) -> Dict[str, Any]:
    """A deep copy of a section: numbers, and dicts of them.

    Each level is copied by one ``dict()`` call, which no other thread
    interrupts, so a snapshot taken while a request thread adds a key
    (a new ``fallback_reasons`` entry) never iterates a changing dict.
    """
    out = dict(counts)
    for key, value in out.items():
        if type(value) is dict:
            out[key] = _copy(value)
    return out


def counters(section: str, **zero: Any) -> Dict[str, Any]:
    """The live counter dict of ``section``, registered on first call.

    ``zero`` is the section's reset state: numbers, or nested dicts of
    them.  Later calls return the same dict and ignore ``zero``.
    """
    live = _LIVE.get(section)
    if live is None:
        _ZERO[section] = _copy(zero)
        live = _LIVE[section] = _copy(zero)
    return live


def snapshot(section: str) -> Dict[str, Any]:
    """A deep copy of one section's counters."""
    return _copy(_LIVE[section])


def reset_metrics() -> None:
    """Zero every section in place (test and benchmark isolation)."""
    for section, live in _LIVE.items():
        live.clear()
        live.update(_copy(_ZERO[section]))


@dataclass(frozen=True)
class EngineMetrics:
    """One consistent snapshot of every engine subsystem's counters.

    ``plan_cache``
        LRU compilation cache: hits, misses, evictions, size, maxsize.
    ``parallel``
        Sharded executor: runs, parallel_runs, serial_fallbacks (with
        per-reason breakdown), shard/worker counts, partition/merge/
        exec wall time, and the merged worker-side counters
        (``worker_plan_cache``, ``worker_rows``).
    ``views``
        Incremental maintenance: views registered, commits seen,
        deltas applied, rows touched, fallback recomputes (Adom*
        plans re-executed on a commit).
    ``columnar``
        Vectorized backend: runs, sentence and Adom* hand-overs to the
        row executor, auto routings, scan-cache hits, kept answers
        reused and answer rows decoded.
    ``storage``
        Durable store: WAL, recovery and checkpoint counters, and the
        SQL pushdown's under a nested ``pushdown`` dict.
    """

    plan_cache: Dict[str, int]
    parallel: Dict[str, Any]
    views: Dict[str, int]
    columnar: Dict[str, int]
    storage: Dict[str, Any]
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-ready document (the ``--stats`` payload)."""
        return {
            "schema_version": self.schema_version,
            "plan_cache": _copy(self.plan_cache),
            "parallel": _copy(self.parallel),
            "views": _copy(self.views),
            "columnar": _copy(self.columnar),
            "storage": _copy(self.storage),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def collect_metrics() -> EngineMetrics:
    """Snapshot every section (what ``engine.metrics()`` returns)."""
    # Importing each subsystem declares its section.
    from .. import columnar, incremental, parallel, storage  # noqa: F401
    from ..fo.compile import plan_cache

    return EngineMetrics(
        plan_cache=plan_cache.stats(),
        parallel=snapshot("parallel"),
        views=snapshot("views"),
        columnar=snapshot("columnar"),
        storage=snapshot("storage"),
    )

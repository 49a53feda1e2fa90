"""Unified engine metrics: one schema over every subsystem's counters.

The engine's counters live in process-global, differently shaped
stats dicts (plan cache, parallel executor, incremental views); the
one place to read them is

>>> engine = CertaintyEngine(query)          # doctest: +SKIP
>>> engine.metrics()                         # doctest: +SKIP
EngineMetrics(plan_cache={...}, parallel={...}, views={...})

:class:`EngineMetrics` is the typed snapshot (``schema_version`` 1);
:class:`MetricsRegistry` is the extension point — subsystems register
a named source callable, and :func:`collect_metrics` snapshots them
all.  The parallel source includes the **merged worker-side counters**
(``worker_plan_cache``, ``worker_rows``) that forked workers report
back per call, fixing the old behaviour where ``repro certain --jobs
--stats`` silently dropped everything that happened inside workers.

See ``docs/OBSERVABILITY.md`` for the full schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict

__all__ = [
    "EngineMetrics",
    "MetricsRegistry",
    "collect_metrics",
    "default_registry",
]

#: Version of the metrics document shape (bump on breaking changes).
SCHEMA_VERSION = 1


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
    ``extra``
        Any additionally registered sources, keyed by source name.
    """

    plan_cache: Dict[str, int]
    parallel: Dict[str, Any]
    views: Dict[str, int]
    extra: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-ready document (the ``--stats`` payload)."""
        out: Dict[str, Any] = {
            "schema_version": self.schema_version,
            "plan_cache": dict(self.plan_cache),
            "parallel": dict(self.parallel),
            "views": dict(self.views),
        }
        for name, counters in self.extra.items():
            out[name] = dict(counters)
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


class MetricsRegistry:
    """Named counter sources, snapshotted together.

    A *source* is a zero-argument callable returning a flat(ish) dict
    of counters.  The three core sources (``plan_cache``, ``parallel``,
    ``views``) are pre-registered on :data:`default_registry`;
    subsystems added later (or tests) can register their own and have
    them appear under :attr:`EngineMetrics.extra` automatically.
    """

    CORE = ("plan_cache", "parallel", "views")

    def __init__(self) -> None:
        self._sources: Dict[str, Callable[[], Dict[str, Any]]] = {}

    def register(self, name: str,
                 source: Callable[[], Dict[str, Any]]) -> None:
        """Add (or replace) a named counter source."""
        self._sources[name] = source

    def unregister(self, name: str) -> None:
        self._sources.pop(name, None)

    def sources(self) -> Dict[str, Callable[[], Dict[str, Any]]]:
        return dict(self._sources)

    def collect(self) -> EngineMetrics:
        """Snapshot every source into one :class:`EngineMetrics`."""
        snapshots = {name: dict(fn()) for name, fn in self._sources.items()}
        extra = {k: v for k, v in snapshots.items() if k not in self.CORE}
        return EngineMetrics(
            plan_cache=snapshots.get("plan_cache", {}),
            parallel=snapshots.get("parallel", {}),
            views=snapshots.get("views", {}),
            extra=extra,
        )


def _plan_cache_source() -> Dict[str, Any]:
    from ..fo.compile import plan_cache

    return plan_cache.stats()


def _parallel_source() -> Dict[str, Any]:
    from ..parallel import parallel_stats

    return parallel_stats()


def _views_source() -> Dict[str, Any]:
    from ..incremental import view_stats

    return view_stats()


def _columnar_source() -> Dict[str, Any]:
    from ..columnar import columnar_stats

    return columnar_stats()


def _storage_source() -> Dict[str, Any]:
    from ..storage import storage_stats

    return storage_stats()


def _make_default_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.register("plan_cache", _plan_cache_source)
    registry.register("parallel", _parallel_source)
    registry.register("views", _views_source)
    registry.register("columnar", _columnar_source)
    registry.register("storage", _storage_source)
    return registry


#: The process-wide registry behind ``CertaintyEngine.metrics()``.
default_registry = _make_default_registry()


def collect_metrics() -> EngineMetrics:
    """Snapshot the default registry (what ``engine.metrics()`` returns)."""
    return default_registry.collect()

"""``RunConfig``: one dataclass for the engine's runtime knobs.

The knobs used to live in scattered ``os.environ`` reads —
``REPRO_MAX_WORKERS`` in :mod:`repro.parallel.pool`,
``REPRO_PARALLEL_MIN_FACTS`` in :mod:`repro.parallel.executor`,
``BENCH_PARALLEL_SMOKE`` in the benchmark scripts — plus the new
``REPRO_TRACE_FILE``.  :class:`RunConfig` consolidates them: construct
one explicitly for programmatic control, or :meth:`RunConfig.from_env`
to read the environment with explicit keyword overrides winning over
env values.  Every size gate resolves here (``resolved_min_facts``,
``resolved_sql_min_facts``, ``resolved_columnar_min_facts``), so each
knob has one default and one env variable.  Engine calls reach it
through :meth:`repro.obs.ExecutionOptions.run_config`: set option
fields win, unset ones fall back to the environment.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any, Mapping, Optional

__all__ = ["RunConfig", "DEFAULT_MIN_FACTS", "DEFAULT_SQL_MIN_FACTS",
           "DEFAULT_SQL_STMT_CACHE", "DEFAULT_COLUMNAR_MIN_FACTS"]

#: Below this many facts the parallel path falls back to serial
#: (fork + IPC overhead dwarfs the work).
DEFAULT_MIN_FACTS = 2000

#: Below this many facts the per-query overhead of sqlite (statement
#: lookup, bulk decode) beats the in-memory executors.
DEFAULT_SQL_MIN_FACTS = 4096

#: Compiled-statement LRU entries per sqlite mirror (0 disables).
DEFAULT_SQL_STMT_CACHE = 64

#: Below this many facts ``auto`` never routes to the columnar backend
#: (encoding whole relations costs more than small tuple runs save).
DEFAULT_COLUMNAR_MIN_FACTS = 4000


def _positive_int(raw: Optional[str]) -> Optional[int]:
    raw = (raw or "").strip()
    if raw.isdigit() and int(raw) > 0:
        return int(raw)
    return None


def _nonnegative_int(raw: Optional[str]) -> Optional[int]:
    raw = (raw or "").strip()
    if raw.isdigit():
        return int(raw)
    return None


@dataclass(frozen=True)
class RunConfig:
    """Consolidated runtime configuration for one engine call (or many).

    ``jobs``
        Worker count for ``method="parallel"`` (None: CPU count).
    ``max_workers``
        Hard cap on workers (env: ``REPRO_MAX_WORKERS``).
    ``parallel_min_facts``
        Database size below which the parallel path runs serially
        (env: ``REPRO_PARALLEL_MIN_FACTS``; None: 2000).
    ``shard_factor``
        Shards per worker for the parallel path (None: executor
        default of 16).
    ``trace``
        Collect spans and per-operator profiles for this run.
    ``trace_file``
        Append span JSONL here after the run (env:
        ``REPRO_TRACE_FILE``; setting it implies ``trace``).
    ``parallel_smoke``
        Benchmark smoke mode: tiny sizes, jobs=2 grid (env:
        ``BENCH_PARALLEL_SMOKE``).
    ``sql_min_facts``
        Database size below which ``auto`` skips the sqlite-mirror
        pushdown (env: ``REPRO_SQL_MIN_FACTS``; None: 4096).
    ``sql_stmt_cache``
        Compiled-statement LRU entries per sqlite mirror, 0 disables
        (env: ``REPRO_SQL_STMT_CACHE``; None: 64).
    ``columnar_min_facts``
        Database size below which ``auto`` skips the columnar backend
        (env: ``REPRO_COLUMNAR_MIN_FACTS``; None: 4000).
    """

    jobs: Optional[int] = None
    max_workers: Optional[int] = None
    parallel_min_facts: Optional[int] = None
    shard_factor: Optional[int] = None
    trace: bool = False
    trace_file: Optional[str] = None
    parallel_smoke: bool = False
    sql_min_facts: Optional[int] = None
    sql_stmt_cache: Optional[int] = None
    columnar_min_facts: Optional[int] = None

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None,
                 **overrides: Any) -> "RunConfig":
        """Environment-derived defaults, explicit overrides winning.

        ``overrides`` accepts any :class:`RunConfig` field; a ``None``
        override means "keep the env-derived value".
        """
        if env is None:
            env = os.environ
        config = cls(
            max_workers=_positive_int(env.get("REPRO_MAX_WORKERS")),
            parallel_min_facts=_nonnegative_int(
                env.get("REPRO_PARALLEL_MIN_FACTS")
            ),
            trace_file=(env.get("REPRO_TRACE_FILE") or "").strip() or None,
            parallel_smoke=bool((env.get("BENCH_PARALLEL_SMOKE") or "").strip()),
            sql_min_facts=_nonnegative_int(env.get("REPRO_SQL_MIN_FACTS")),
            sql_stmt_cache=_nonnegative_int(env.get("REPRO_SQL_STMT_CACHE")),
            columnar_min_facts=_nonnegative_int(
                env.get("REPRO_COLUMNAR_MIN_FACTS")
            ),
        )
        effective = {k: v for k, v in overrides.items() if v is not None}
        return replace(config, **effective) if effective else config

    @property
    def tracing(self) -> bool:
        """Is tracing requested (explicitly or via a trace file)?"""
        return self.trace or self.trace_file is not None

    def make_tracer(self) -> Optional[Any]:
        """A fresh :class:`~repro.obs.trace.Tracer` when tracing is on."""
        if not self.tracing:
            return None
        from .trace import Tracer

        return Tracer()

    def resolved_jobs(self, jobs: Optional[int] = None) -> int:
        """The effective worker count: explicit > config > CPU count,
        clamped by ``max_workers``."""
        n = jobs if jobs is not None else self.jobs
        if n is None:
            n = os.cpu_count() or 1
        if self.max_workers is not None:
            n = min(n, self.max_workers)
        return max(1, n)

    def resolved_min_facts(self, min_facts: Optional[int] = None) -> int:
        """The effective parallel size threshold."""
        if min_facts is not None:
            return min_facts
        if self.parallel_min_facts is not None:
            return self.parallel_min_facts
        return DEFAULT_MIN_FACTS

    def resolved_sql_min_facts(self) -> int:
        """The effective SQL-pushdown size threshold."""
        if self.sql_min_facts is not None:
            return self.sql_min_facts
        return DEFAULT_SQL_MIN_FACTS

    def resolved_sql_stmt_cache(self) -> int:
        """The effective statement-cache capacity (0 disables)."""
        if self.sql_stmt_cache is not None:
            return self.sql_stmt_cache
        return DEFAULT_SQL_STMT_CACHE

    def resolved_columnar_min_facts(self) -> int:
        """The effective columnar size threshold."""
        if self.columnar_min_facts is not None:
            return self.columnar_min_facts
        return DEFAULT_COLUMNAR_MIN_FACTS

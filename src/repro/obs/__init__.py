"""Observability: structured tracing, plan profiling, unified metrics.

The engine has seven methods (brute, interpreted, rewriting,
compiled, columnar, sql, parallel) plus incrementally maintained
views; this package makes all of them *measurable* instead of
inferable from end-to-end wall clock:

* :mod:`repro.obs.trace` — a :class:`Tracer` with nestable spans
  (monotonic-clock timings, counters, tags), a zero-overhead no-op
  default, and JSONL export (the callers' ``--trace-out``);
* :mod:`repro.obs.profile` — per-operator plan profiling
  (:class:`PlanProfile`) and the ``EXPLAIN ANALYZE``-style renderers
  behind ``repro plan --analyze`` and ``repro certain --trace``;
* :mod:`repro.obs.metrics` — the one registry of process-wide
  counters (:func:`counters`, :func:`reset_metrics`) and
  :class:`EngineMetrics`, its typed snapshot over the plan cache,
  parallel executor, incremental views, columnar backend and storage;
* :mod:`repro.obs.options` — :class:`ExecutionOptions`, the one
  frozen per-call options object (``method`` and ``jobs``; no env
  fallback), with a strict JSON round-trip that doubles as the
  ``repro serve`` wire form (``docs/serve.schema.json``);
* :mod:`repro.obs.schema` — a dependency-free JSON-Schema-subset
  validator used by the ``trace-smoke`` CI job against
  ``docs/trace.schema.json``.

See ``docs/OBSERVABILITY.md`` for the span model and the metrics
schema.
"""

from .metrics import EngineMetrics, collect_metrics, reset_metrics
from .options import KNOWN_METHODS, ExecutionOptions, OptionsError
from .profile import (
    OperatorStats,
    PlanProfile,
    profile_tree,
    render_profile,
    trace_payload,
)
from .schema import SchemaError, validate
from .trace import NULL_TRACER, NullTracer, Span, Tracer, read_jsonl, render_spans

__all__ = [
    "EngineMetrics",
    "ExecutionOptions",
    "KNOWN_METHODS",
    "NULL_TRACER",
    "NullTracer",
    "OperatorStats",
    "OptionsError",
    "PlanProfile",
    "SchemaError",
    "Span",
    "Tracer",
    "collect_metrics",
    "profile_tree",
    "read_jsonl",
    "render_profile",
    "render_spans",
    "reset_metrics",
    "trace_payload",
    "validate",
]

"""Per-operator plan profiling and ``EXPLAIN ANALYZE`` rendering.

A :class:`PlanProfile` is the sink the executor writes into when (and
only when) a run is traced: for every plan node it accumulates
inclusive wall time, output cardinality, memoization hits, index
lookups, and short-circuit probe counts.  The executor's hot path is
gated on ``profile is None`` — a disabled run executes byte-for-byte
the same set algebra it always did (guarded by the overhead test on
the ``bench_plan`` smoke grid).

Rendering pairs the profile with its plan tree:

* :func:`render_profile` — the indented ``repro plan --analyze`` /
  ``repro certain --trace`` text form, one line per operator annotated
  with time (inclusive and self), rows in/out, and memo/index/probe
  counters;
* :func:`profile_tree` — the same information as a nested dict;
* :func:`trace_payload` — the full ``--json`` document (operators plus
  flattened spans), the shape ``docs/trace.schema.json`` pins down.

Self time is inclusive time minus the direct children's inclusive
time, clamped at zero; because the executor memoizes per node, a
shared (DAG) subplan charges its one real execution to the first
parent and a ``memo_hits`` tick to the others.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from ..fo.plan import Plan, Scan

__all__ = [
    "OperatorStats",
    "PlanProfile",
    "render_profile",
    "profile_tree",
    "trace_payload",
]

#: Counter names carried per operator, in rendering order.  The last
#: two are written only by the columnar backend: ``batches`` counts
#: materializing batch executions, ``decode_fallbacks`` (on the root
#: node) counts Adom* plans it handed to the row executor (QP103).
COUNTER_NAMES = ("memo_hits", "index_hits", "rows_scanned",
                 "probe_calls", "probe_memo_hits", "batches",
                 "decode_fallbacks")


class OperatorStats:
    """Accumulated execution facts for one plan node."""

    __slots__ = ("calls", "seconds", "rows_out", "memo_hits", "index_hits",
                 "rows_scanned", "probe_calls", "probe_memo_hits",
                 "batches", "decode_fallbacks")

    def __init__(self) -> None:
        self.calls = 0
        self.seconds = 0.0
        self.rows_out = 0
        self.memo_hits = 0
        self.index_hits = 0
        self.rows_scanned = 0
        self.probe_calls = 0
        self.probe_memo_hits = 0
        self.batches = 0
        self.decode_fallbacks = 0

    def as_dict(self) -> Dict[str, Union[int, float]]:
        return {
            "calls": self.calls,
            "seconds": self.seconds,
            "rows_out": self.rows_out,
            "memo_hits": self.memo_hits,
            "index_hits": self.index_hits,
            "rows_scanned": self.rows_scanned,
            "probe_calls": self.probe_calls,
            "probe_memo_hits": self.probe_memo_hits,
            "batches": self.batches,
            "decode_fallbacks": self.decode_fallbacks,
        }


class PlanProfile:
    """Per-node stats sink for one (or several) plan executions.

    Keyed by node identity; safe to reuse across repeated executions of
    the same plan object, in which case counters accumulate.
    """

    __slots__ = ("_stats",)

    def __init__(self) -> None:
        self._stats: Dict[int, OperatorStats] = {}

    def stats_for(self, plan: Plan) -> OperatorStats:
        """The (created-on-demand) stats record of one plan node."""
        stats = self._stats.get(id(plan))
        if stats is None:
            stats = OperatorStats()
            self._stats[id(plan)] = stats
        return stats

    def record(self, plan: Plan, seconds: float, rows_out: int) -> None:
        """Log one materializing execution of ``plan`` (inclusive time)."""
        stats = self.stats_for(plan)
        stats.calls += 1
        stats.seconds += seconds
        stats.rows_out = rows_out

    def count(self, plan: Plan, name: str, n: int = 1) -> None:
        """Add ``n`` to one of the node's named counters."""
        stats = self.stats_for(plan)
        setattr(stats, name, getattr(stats, name) + n)

    def total_seconds(self, plan: Plan) -> float:
        """Inclusive time recorded at the plan's root."""
        return self.stats_for(plan).seconds

    def __len__(self) -> int:
        return len(self._stats)


def _self_seconds(plan: Plan, profile: PlanProfile) -> float:
    stats = profile.stats_for(plan)
    child_seconds = sum(
        profile.stats_for(child).seconds for child in plan.children()
    )
    return max(0.0, stats.seconds - child_seconds)


def _rows_in(plan: Plan, profile: PlanProfile) -> int:
    if isinstance(plan, Scan):
        stats = profile.stats_for(plan)
        return stats.rows_scanned if stats.rows_scanned else stats.rows_out
    return sum(profile.stats_for(child).rows_out for child in plan.children())


def render_profile(plan: Plan, profile: PlanProfile) -> str:
    """The ``EXPLAIN ANALYZE`` text form: one line per operator."""
    lines: List[str] = []

    def walk(node: Plan, depth: int) -> None:
        stats = profile.stats_for(node)
        cols = ", ".join(v.name for v in node.cols)
        parts = [
            f"time={stats.seconds * 1e3:.3f}ms",
            f"self={_self_seconds(node, profile) * 1e3:.3f}ms",
            f"rows={_rows_in(node, profile)}->{stats.rows_out}",
        ]
        for name in COUNTER_NAMES:
            value = getattr(stats, name)
            if value:
                parts.append(f"{name}={value}")
        if stats.calls != 1:
            parts.append(f"calls={stats.calls}")
        lines.append(
            "  " * depth
            + f"{node.label()}  -> [{cols}]  ({' '.join(parts)})"
        )
        for child in node.children():
            walk(child, depth + 1)

    walk(plan, 0)
    return "\n".join(lines)


def profile_tree(plan: Plan, profile: PlanProfile) -> Dict[str, Any]:
    """The nested-dict form of one profiled operator tree."""
    stats = profile.stats_for(plan)
    return {
        "op": type(plan).__name__,
        "label": plan.label(),
        "cols": [v.name for v in plan.cols],
        "time_ms": round(stats.seconds * 1e3, 6),
        "self_ms": round(_self_seconds(plan, profile) * 1e3, 6),
        "calls": stats.calls,
        "rows_in": _rows_in(plan, profile),
        "rows_out": stats.rows_out,
        "memo_hits": stats.memo_hits,
        "index_hits": stats.index_hits,
        "rows_scanned": stats.rows_scanned,
        "probe_calls": stats.probe_calls,
        "probe_memo_hits": stats.probe_memo_hits,
        "batches": stats.batches,
        "decode_fallbacks": stats.decode_fallbacks,
        "children": [profile_tree(child, profile) for child in plan.children()],
    }


def trace_payload(
    query: str,
    method: str,
    tracer: Any,
    free: Optional[List[str]] = None,
    answer: Optional[bool] = None,
    answers: Optional[int] = None,
    total_ms: Optional[float] = None,
) -> Dict[str, Any]:
    """The machine-readable ``--trace --json`` document.

    Collects every plan profile the tracer accumulated (the common case
    is exactly one — the compiled execution) plus the flattened span
    records.  The shape is pinned by ``docs/trace.schema.json`` and
    validated in the ``trace-smoke`` CI job.
    """
    operators = [
        dict(profile_tree(plan, profile), **{
            k: v for k, v in tags.items() if k in ("method", "phase")
        })
        for plan, profile, tags in tracer.profiles
    ]
    if total_ms is None:
        total_ms = sum(
            record["duration_ms"]
            for record in tracer.to_records()
            if record["depth"] == 0
        )
    return {
        "schema_version": 1,
        "query": query,
        "method": method,
        "free": list(free or []),
        "answer": answer,
        "answers": answers,
        "total_ms": round(total_ms, 6),
        "operators": operators,
        "spans": tracer.to_records(),
    }

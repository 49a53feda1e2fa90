"""Structured tracing: nestable spans with monotonic timings.

A :class:`Span` is one timed region of work — a certainty call, a plan
execution, one shard group, one view maintenance pass — carrying free-
form ``tags`` (set at creation or while open) and integer ``counters``
(accumulated while the span is open).  A :class:`Tracer` maintains the
span stack, owns the finished span forest, and serializes it as JSONL
(one record per span, parent links by id) for offline attribution.

The default throughout the engine is :data:`NULL_TRACER`, a
:class:`NullTracer` whose every method is a no-op returning shared
singletons — callers thread ``tracer or NULL_TRACER`` and pay one
attribute check plus at most one no-op call per *coarse* region.  The
per-operator hot path is gated separately (see
:class:`repro.obs.profile.PlanProfile` and the ``profile is None``
branches in :class:`repro.fo.plan.Executor`), so disabled tracing adds
no measurable cost to plan execution.

Clocks are ``time.perf_counter`` (monotonic); JSONL records carry
``start_ms`` relative to the tracer's epoch, never wall-clock time.
"""

from __future__ import annotations

import json
import time
from typing import IO, Any, Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "read_jsonl",
    "render_spans",
]


class Span:
    """One timed region: name, tags, counters, and child spans."""

    __slots__ = ("span_id", "name", "tags", "counters", "start", "end",
                 "children")

    def __init__(self, span_id: int, name: str,
                 tags: Dict[str, Any]) -> None:
        self.span_id = span_id
        self.name = name
        self.tags = tags
        self.counters: Dict[str, int] = {}
        self.start: float = 0.0
        self.end: float = 0.0
        self.children: List["Span"] = []

    @property
    def duration_ms(self) -> float:
        """Span duration in milliseconds (0 until the span closes)."""
        return max(0.0, (self.end - self.start) * 1e3)

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the span's ``name`` counter."""
        self.counters[name] = self.counters.get(name, 0) + n

    def tag(self, **tags: Any) -> None:
        """Set tags known only once the span is open (e.g. the method
        ``auto`` routed to)."""
        self.tags.update(tags)

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration_ms:.3f}ms)"


class _SpanHandle:
    """Context manager opening a span on enter, closing it on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._open(self._span)
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._close(self._span)


class Tracer:
    """Collects a forest of nested spans plus attached plan profiles.

    Spans nest through the ``with tracer.span(...)`` protocol; the
    tracer tracks the open-span stack, so :meth:`count` and
    :meth:`event` attribute to the innermost open span.  Finished
    plan-execution profiles (:class:`repro.obs.profile.PlanProfile`)
    are attached via :meth:`add_profile` so renderers can pair each
    profile with its plan tree after the run.
    """

    enabled = True

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self.profiles: List[Tuple[Any, Any, Dict[str, Any]]] = []
        self._stack: List[Span] = []
        self._next_id = 0
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------

    def span(self, name: str, **tags: Any) -> _SpanHandle:
        """A context manager timing one nested region."""
        return _SpanHandle(self, self._make(name, tags))

    def event(self, name: str, **tags: Any) -> Span:
        """A zero-duration span (a point annotation, e.g. a fallback)."""
        span = self._make(name, tags)
        span.start = span.end = time.perf_counter()
        self._attach(span)
        return span

    def record(self, name: str, seconds: float, **tags: Any) -> Span:
        """A completed span with an externally measured duration.

        Used where the work happened elsewhere — e.g. per-worker shard
        execution timed inside a forked process and reported back.
        """
        span = self._make(name, tags)
        span.end = time.perf_counter()
        span.start = span.end - max(0.0, seconds)
        self._attach(span)
        return span

    def count(self, name: str, n: int = 1) -> None:
        """Add to the innermost open span's counter (no-op when none)."""
        if self._stack:
            self._stack[-1].count(name, n)

    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def add_profile(self, plan: Any, profile: Any, **tags: Any) -> None:
        """Attach a finished per-operator profile for later rendering."""
        self.profiles.append((plan, profile, tags))

    # ------------------------------------------------------------------

    def _make(self, name: str, tags: Dict[str, Any]) -> Span:
        span = Span(self._next_id, name, tags)
        self._next_id += 1
        return span

    def _attach(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)

    def _open(self, span: Span) -> None:
        self._attach(span)
        self._stack.append(span)
        span.start = time.perf_counter()

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        # Tolerate mismatched exits (an inner span leaked by an
        # exception path): pop everything above the closing span.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def iter_spans(self) -> Iterator[Tuple[Span, Optional[Span], int]]:
        """Depth-first ``(span, parent, depth)`` over the forest."""

        def walk(span: Span, parent: Optional[Span],
                 depth: int) -> Iterator[Tuple[Span, Optional[Span], int]]:
            yield span, parent, depth
            for child in span.children:
                yield from walk(child, span, depth + 1)

        for root in self.roots:
            yield from walk(root, None, 0)

    def to_records(self) -> List[Dict[str, Any]]:
        """Flat JSON-serializable records, one per span."""
        records = []
        for span, parent, depth in self.iter_spans():
            records.append({
                "id": span.span_id,
                "parent": parent.span_id if parent is not None else None,
                "depth": depth,
                "name": span.name,
                "start_ms": round((span.start - self._epoch) * 1e3, 6),
                "duration_ms": round(span.duration_ms, 6),
                "tags": {k: _jsonable(v) for k, v in span.tags.items()},
                "counters": dict(span.counters),
            })
        return records

    def write_jsonl(self, target: Union[str, IO[str]]) -> int:
        """Append one JSON record per span to a path or file object.

        Returns the number of records written.  Appending (not
        truncating) lets long benchmark runs accumulate traces from
        many engine calls into one attribution log.
        """
        records = self.to_records()
        if hasattr(target, "write"):
            fp = target  # type: ignore[assignment]
            for record in records:
                fp.write(json.dumps(record, sort_keys=True) + "\n")  # type: ignore[union-attr]
        else:
            with open(target, "a") as fp2:
                for record in records:
                    fp2.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)


class _NullSpan:
    """The shared do-nothing span: counts and tags vanish."""

    __slots__ = ()
    name = "null"
    tags: Dict[str, Any] = {}
    counters: Dict[str, int] = {}
    duration_ms = 0.0

    def count(self, name: str, n: int = 1) -> None:
        pass

    def tag(self, **tags: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The zero-overhead default: every method is a no-op.

    ``enabled`` is ``False``, which is what execution layers branch on
    to skip building :class:`~repro.obs.profile.PlanProfile` objects —
    the only per-operator cost tracing could add.
    """

    enabled = False
    roots: List[Span] = []
    profiles: List[Tuple[Any, Any, Dict[str, Any]]] = []

    __slots__ = ()

    def span(self, name: str, **tags: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **tags: Any) -> _NullSpan:
        return _NULL_SPAN

    def record(self, name: str, seconds: float, **tags: Any) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, n: int = 1) -> None:
        pass

    def current(self) -> None:
        return None

    def add_profile(self, plan: Any, profile: Any, **tags: Any) -> None:
        pass

    def iter_spans(self) -> Iterator[Tuple[Span, Optional[Span], int]]:
        return iter(())

    def to_records(self) -> List[Dict[str, Any]]:
        return []

    def write_jsonl(self, target: Union[str, IO[str]]) -> int:
        return 0


#: The process-wide no-op tracer threaded as the default everywhere.
NULL_TRACER = NullTracer()


def read_jsonl(source: Union[str, IO[str]]) -> List[Dict[str, Any]]:
    """Parse a span JSONL file back into its records (round-trip of
    :meth:`Tracer.write_jsonl`)."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()  # type: ignore[union-attr]
    else:
        with open(source) as fp:
            lines = fp.read().splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def render_spans(tracer: Union[Tracer, NullTracer]) -> str:
    """An indented, human-readable rendering of the span forest."""
    lines = []
    for span, _parent, depth in tracer.iter_spans():
        parts = [f"{span.name}  {span.duration_ms:.3f}ms"]
        if span.tags:
            parts.append(" ".join(
                f"{k}={_jsonable(v)}" for k, v in sorted(span.tags.items())
            ))
        if span.counters:
            parts.append(" ".join(
                f"{k}={v}" for k, v in sorted(span.counters.items())
            ))
        lines.append("  " * depth + "  ".join(parts))
    return "\n".join(lines)


def _jsonable(value: Any) -> Any:
    """Coerce a tag value to a JSON-serializable primitive."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)

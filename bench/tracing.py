"""Layer attribution for the traced run, from outside the program.

Nothing under ``src/`` knows about the benchmark.  :class:`Probe`
replaces the program's entry points with timing wrappers *at the attribute each
caller looks up* — a module global, a package attribute imported at call
time, or a class attribute — and records their spans into one
:class:`repro.obs.Tracer`.  The program's own spans (``wal-commit``,
``view-maintain``, ``checkpoint``, ``certain-answers``, ...) and the
:class:`~repro.obs.PlanProfile` objects that ``certain_answers(tracer=)``
attaches land in the same tracer, so each timed operation becomes one
span tree under an ``op`` root.  Every tree is folded into per-layer
sums as soon as the operation ends and kept in memory as one
``docs/trace.schema.json`` document; :func:`append_jsonl` writes them out
when the run ends.

A missing entry point raises at :meth:`Probe.install`: a traced run that
silently measured nothing would report zeros as if the layer were idle.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.verifier import plan_uses_adom
from repro.columnar import columnar_stats
from repro.fo.compile import plan_cache
from repro.fo.plan import plan_nodes
from repro.incremental import view_stats
from repro.obs import Tracer
from repro.obs.profile import profile_tree
from repro.storage.stats import storage_stats

#: (module, attribute path, span name).  ``None`` = counted, not timed.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str]], ...] = (
    ("repro.core.parser", "parse_query", "core.parse"),
    ("repro.cqa.engine", "CertaintyEngine.__init__", "cqa.engine_init"),
    ("repro.cqa.engine", "CertaintyEngine.certain", "cqa.dispatch"),
    ("repro.cqa.engine", "consistent_rewriting", "cqa.rewrite"),
    ("repro.cqa.certain_answers", "certain_answers", "cqa.dispatch"),
    ("repro.cqa.certain_answers", "classify", "core.classify"),
    ("repro.cqa.certain_answers", "_guarded_open_rewriting", "cqa.rewrite"),
    ("repro.fo.compile", "PlanCache.get_or_compile", "fo.plan_cache"),
    ("repro.fo.compile", "compile_formula", "fo.compile"),
    ("repro.storage.pushdown", "prefer_sql", "cqa.route"),
    ("repro.columnar", "prefer_columnar", "cqa.route"),
    ("repro.fo.compile", "CompiledQuery.rows", "exec.compiled"),
    ("repro.fo.compile", "CompiledQuery.holds", "exec.compiled"),
    ("repro.columnar", "columnar_rows", "exec.columnar"),
    ("repro.columnar", "columnar_holds", "exec.columnar"),
    ("repro.storage.pushdown", "native_sql_answers", "exec.sql"),
    ("repro.storage.pushdown", "native_sql_holds", "exec.sql"),
    ("repro.columnar.dictionary", "ColumnarStore.scan_cache_get", None),
)

#: Span name -> metric summing its inclusive time (outermost per family).
INCLUSIVE = {
    "core.parse": "core.parse_ms",
    "core.classify": "core.classify_ms",
    "cqa.engine_init": "cqa.engine_init_ms",
    "cqa.rewrite": "cqa.rewrite_ms",
    "fo.compile": "fo.compile_ms",
    "cqa.route": "cqa.route_ms",
    "exec.compiled": "exec.compiled_ms",
    "exec.columnar": "exec.columnar_ms",
    "exec.sql": "exec.sql_ms",
    "db.apply": "db.apply_ms",
    "storage.commit": "storage.commit_ms",
    "wal-commit": "storage.wal_commit_ms",
    "view-maintain": "incremental.view_maintain_ms",
    "checkpoint": "checkpoint_total_ms",
}

#: Span name -> metric summing its self time.  The program's own
#: dispatch spans count as dispatch, like the wrapper around them.
SELF = {
    "cqa.dispatch": "cqa.dispatch_ms",
    "certain-answers": "cqa.dispatch_ms",
    "certain": "cqa.dispatch_ms",
    "rewrite-and-compile": "cqa.dispatch_ms",
    "execute": "cqa.dispatch_ms",
    "probe": "cqa.dispatch_ms",
    "fo.plan_cache": "fo.plan_lookup_ms",
    "storage.commit": "storage.commit_other_ms",
}

# The package re-exports the function under the submodule's name.
_CERTAIN_ANSWERS = importlib.import_module("repro.cqa.certain_answers")

OP_KINDS = ("Scan", "Select", "Project", "Join", "SemiJoin", "AntiJoin",
            "Union", "Difference")
_PROFILE_PREFIX = {"compiled": "fo.op", "columnar": "columnar.op"}

#: Every ``*_ms`` metric reported as a mean per traced operation.
MS_METRICS = tuple(sorted(
    {m for m in INCLUSIVE.values() if m != "checkpoint_total_ms"}
    | set(SELF.values())
    | {f"{p}.{k}_ms" for p in _PROFILE_PREFIX.values() for k in OP_KINDS}
))


def _family(name: str) -> str:
    # A backend call nested in another (columnar_holds delegates to
    # CompiledQuery.holds) belongs to the outer one.
    return "exec" if name.startswith("exec.") else name


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _resolve(module: str, path: str) -> Tuple[Any, str, Any]:
    """(owner, attribute name, current value) of a dotted attribute."""
    owner: Any = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise RuntimeError(f"entry point {module}.{path} is missing")
    return owner, attr, vars(owner)[attr]


class Probe:
    """Timing wrappers plus the per-layer sums of one traced phase."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.active = False
        self.docs: List[str] = []  # one JSON trace document per op
        self.n_ops = 0
        self.sums: Dict[str, float] = defaultdict(float)
        self.deltas: Dict[str, int] = defaultdict(int)
        self.routes: Counter = Counter()
        self.rows_written = 0
        self.rows_out = 0
        self.answer_ops = 0
        self.compiled_plans = 0
        self.compiled_nodes = 0
        self.adom_plans = 0
        self.scan_lookups = 0
        self.scan_hits = 0
        self._route: List[Tuple[str, bool]] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- wrappers --------------------------------------------------------

    def install(self) -> None:
        observers: Dict[str, Callable[[Any], None]] = {
            "compile_formula": self._saw_compiled,
            "prefer_sql": lambda hit: self._route.append(("sql", hit)),
            "prefer_columnar": lambda hit: self._route.append(("columnar", hit)),
            "ColumnarStore.scan_cache_get": self._saw_scan,
        }
        for module, path, span in ENTRY_POINTS:
            owner, attr, original = _resolve(module, path)
            self._saved.append((owner, attr, original))
            setattr(owner, attr,
                    self._wrap(original, span, observers.get(path)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Callable, span: Optional[str],
              observe: Optional[Callable[[Any], None]]) -> Callable:
        probe, tracer = self, self.tracer

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not probe.active:
                return fn(*args, **kwargs)
            if span is None:
                result = fn(*args, **kwargs)
            else:
                with tracer.span(span):
                    result = fn(*args, **kwargs)
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def _saw_compiled(self, compiled: Any) -> None:
        self.compiled_plans += 1
        self.compiled_nodes += sum(1 for _ in plan_nodes(compiled.plan))
        self.adom_plans += int(plan_uses_adom(compiled.plan))

    def _saw_scan(self, hit: Any) -> None:
        self.scan_lookups += 1
        self.scan_hits += hit is not None

    # -- operations ------------------------------------------------------

    def begin(self) -> None:
        """Start the traced phase: drop spans recorded while idle."""
        self.tracer.roots.clear()
        self.tracer.profiles.clear()

    def run_op(self, index: int, op: Any) -> Tuple[Any, float]:
        """Run one operation under an ``op`` root span; returns
        ``(result, seconds)``."""
        before = _counters()
        self._route = []
        result = None
        self.active = True
        try:
            with self.tracer.span("op", op_id=index, kind=op.kind) as root:
                result = op.thunk()
        finally:
            self.active = False
            self._account(index, op, root, result, before, _counters())
        return result, root.duration_ms / 1e3

    def _account(self, index: int, op: Any, root: Any, result: Any,
                 before: Dict[str, int], after: Dict[str, int]) -> None:
        self.n_ops += 1
        for key, value in after.items():
            self.deltas[key] += value - before[key]
        if self._route:
            chosen = next((backend for backend, hit in self._route if hit),
                          "compiled")
            self.routes[chosen] += 1
        if isinstance(result, frozenset):
            self.answer_ops += 1
            self.rows_out += len(result)
        self.rows_written += op.rows
        records: List[Dict[str, Any]] = []
        self._walk(root, None, 0, frozenset(), index, root.start, records)
        operators = []
        for plan, profile, tags in self.tracer.profiles:
            self._fold_profile(plan, profile, tags.get("method"))
            tree = profile_tree(plan, profile)
            tree.update({k: v for k, v in tags.items()
                         if k in ("method", "phase")})
            operators.append(tree)
        self.tracer.roots.clear()
        self.tracer.profiles.clear()
        self.docs.append(json.dumps({
            "schema_version": 1,
            "query": op.query,
            "method": op.method,
            "free": list(op.free),
            "answer": result if isinstance(result, bool) else None,
            "answers": len(result) if isinstance(result, frozenset) else None,
            "total_ms": round(root.duration_ms, 6),
            "operators": operators,
            "spans": records,
        }, sort_keys=True, separators=(",", ":")))

    def _walk(self, span: Any, parent: Optional[int], depth: int,
              families: frozenset, op_id: int, epoch: float,
              records: List[Dict[str, Any]]) -> None:
        name = span.name
        duration = span.duration_ms
        self_ms = max(0.0, duration - sum(c.duration_ms
                                          for c in span.children))
        family = _family(name)
        if name in INCLUSIVE and family not in families:
            self.sums[INCLUSIVE[name]] += duration
        if name in SELF:
            self.sums[SELF[name]] += self_ms
        if depth == 0:
            # The op root's own time is what no layer span covers.
            self.sums["unattributed"] += self_ms
        tags = {k: _jsonable(v) for k, v in span.tags.items()}
        tags["op_id"] = op_id
        records.append({
            "id": span.span_id,
            "parent": parent,
            "depth": depth,
            "name": name,
            "start_ms": round((span.start - epoch) * 1e3, 6),
            "duration_ms": round(duration, 6),
            "tags": tags,
            "counters": dict(span.counters),
        })
        for child in span.children:
            self._walk(child, span.span_id, depth + 1, families | {family},
                       op_id, epoch, records)

    def _fold_profile(self, plan: Any, profile: Any,
                      method: Optional[str]) -> None:
        prefix = _PROFILE_PREFIX.get(method or "")
        if prefix is None:
            return
        seen = set()
        for node in plan_nodes(plan):
            kind = type(node).__name__
            if id(node) in seen or kind not in OP_KINDS:
                continue
            seen.add(id(node))
            inner = sum(profile.stats_for(c).seconds for c in node.children())
            self_s = max(0.0, profile.stats_for(node).seconds - inner)
            self.sums[f"{prefix}.{kind}_ms"] += self_s * 1e3

    # -- results ---------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer metrics of the traced phase (0 for idle layers)."""
        n = max(1, self.n_ops)
        d = self.deltas
        out = {name: self.sums.get(name, 0.0) / n for name in MS_METRICS}
        routed = sum(self.routes.values())
        out.update({
            "trace.unattributed_ms": self.sums.get("unattributed", 0.0) / n,
            "cqa.rewrite_cache_hit_ratio": _ratio(
                d["rewrite_hits"], d["rewrite_hits"] + d["rewrite_misses"]),
            "fo.plan_cache_hit_ratio": _ratio(
                d["plan_hits"], d["plan_hits"] + d["plan_misses"]),
            "fo.plan_nodes": _ratio(self.compiled_nodes, self.compiled_plans),
            "fo.adom_plans": self.adom_plans,
            "cqa.route.sql": _ratio(self.routes["sql"], routed),
            "cqa.route.columnar": _ratio(self.routes["columnar"], routed),
            "cqa.route.compiled": _ratio(self.routes["compiled"], routed),
            "exec.rows_out": _ratio(self.rows_out, self.answer_ops),
            "columnar.scan_cache_hit_ratio": _ratio(self.scan_hits,
                                                    self.scan_lookups),
            "columnar.decode_fallbacks": d["decode_fallbacks"],
            "storage.stmt_cache_hit_ratio": _ratio(
                d["stmt_hits"], d["stmt_hits"] + d["stmt_misses"]),
            "storage.fsyncs_per_commit": _ratio(d["wal_syncs"], d["commits"]),
            "storage.wal_bytes_per_row": _ratio(d["wal_bytes"],
                                                self.rows_written),
            "storage.checkpoints": d["checkpoints"],
            "storage.checkpoint_ms": _ratio(
                self.sums.get("checkpoint_total_ms", 0.0), d["checkpoints"]),
            "storage.mirror_delta_rows": _ratio(d["mirror_delta_rows"],
                                                d["commits"]),
            "storage.mirror_rebuilds": d["mirror_rebuilds"],
            "incremental.rows_touched_per_commit": _ratio(
                d["view_rows_touched"], d["view_commits"]),
            "incremental.fallback_recomputes": d["view_fallbacks"],
        })
        return out


def _counters() -> Dict[str, int]:
    """The program's own counters, snapshotted around every operation."""
    storage = storage_stats()
    pushdown = storage["pushdown"]
    views = view_stats()
    rewrites = _CERTAIN_ANSWERS._guarded_open_rewriting_cached.cache_info()
    return {
        "rewrite_hits": rewrites.hits,
        "rewrite_misses": rewrites.misses,
        "plan_hits": plan_cache.hits,
        "plan_misses": plan_cache.misses,
        "decode_fallbacks": columnar_stats()["decode_fallbacks"],
        "stmt_hits": pushdown["stmt_cache_hits"],
        "stmt_misses": pushdown["stmt_cache_misses"],
        "mirror_delta_rows": pushdown["mirror_delta_rows"],
        "mirror_rebuilds": pushdown["mirror_rebuilds"],
        "wal_syncs": storage["wal_syncs"],
        "wal_bytes": storage["wal_bytes"],
        "commits": storage["commits"],
        "checkpoints": storage["checkpoints"],
        "view_commits": views["commits_seen"],
        "view_rows_touched": views["rows_touched"],
        "view_fallbacks": views["fallback_recomputes"],
    }


def append_jsonl(path: Any, docs: List[str]) -> None:
    with open(path, "a") as fp:
        for doc in docs:
            fp.write(doc + "\n")

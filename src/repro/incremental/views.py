"""Materialized certain-answer views, maintained under updates.

A :class:`View` is the certain-answer set of one FO-rewritable query,
kept current as facts are inserted and deleted.  A :class:`ViewManager`
subscribes to a database's changelog (:meth:`Database.subscribe`) and
pushes every committed batch through each registered view's
:class:`~repro.incremental.delta.IncrementalPlan` — so after any
``commit()`` (or any single mutation outside a batch), ``view.answers``
is already up to date, without a full re-execution.

A commit that touches none of a view's relations skips the view.  A
view whose plan contains active-domain operators is the exception: any
fact can move the active domain, so the manager re-executes it on every
commit and diffs the answers (``fallback_recomputes``).  Guarded
rewritings — the common case — compile without Adom* operators and
never take that path.  ``repro analyze`` flags queries that *will*
take it before any view is built (rule QP103 in
:mod:`repro.analysis.rules`).

Stats mirror the plan cache: per-manager :meth:`ViewManager.stats` and
a process-wide :func:`view_stats`, surfaced as the ``views`` section
of ``engine.metrics()``.  Maintenance work is traceable — attach a
:class:`repro.obs.Tracer` via ``view_manager(db, tracer=...)`` for a
``view-maintain`` span per commit.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.classify import Verdict, classify
from ..core.query import Query
from ..core.terms import Variable
from ..db.changelog import Changelog
from ..db.database import Database
from ..fo.compile import plan_cache
from ..fo.formula import Formula, free_variables
from ..obs.metrics import counters, snapshot
from .delta import IncrementalPlan

Row = Tuple


class StaleVersionError(ValueError):
    """Raised by :meth:`View.changed_since` for trimmed-away versions."""


#: Process-wide counters, aggregated across all view managers.
_STATS = counters(
    "views",
    views_registered=0,
    commits_seen=0,
    deltas_applied=0,
    rows_touched=0,
    fallback_recomputes=0,
)


def view_stats() -> Dict[str, int]:
    """Process-wide incremental-maintenance counters (all managers)."""
    return snapshot("views")


class View:
    """One maintained certain-answer set.

    ``answers`` is always current with the owning database;
    ``changed_since(version)`` reports the net answer diff since an
    earlier :attr:`version` (a :attr:`Database.clock` value).
    """

    def __init__(self, manager: "ViewManager", query: Optional[Query],
                 free: Tuple[Variable, ...], formula: Formula,
                 incremental: IncrementalPlan, version: int):
        self._manager = manager
        self.query = query
        self.free = free
        self.formula = formula
        self.incremental = incremental
        self._version = version
        self._registered_at = version
        # (version-after, inserted, deleted) per applied non-empty batch.
        self._history: List[Tuple[int, FrozenSet[Row], FrozenSet[Row]]] = []
        self._trimmed_before = version

    @property
    def answers(self) -> FrozenSet[Row]:
        """The current certain answers (aligned with :attr:`free`)."""
        return frozenset(self.incremental.rows)

    @property
    def holds(self) -> bool:
        """For a Boolean view (no free variables): is the query certain?"""
        return bool(self.incremental.rows)

    @property
    def version(self) -> int:
        """The database clock value this view is current with."""
        return self._version

    def changed_since(self, version: int) -> Tuple[FrozenSet[Row], FrozenSet[Row]]:
        """Net ``(inserted, deleted)`` answer rows since *version*.

        *version* must be a clock value at or after this view's
        registration that is still within the retained history window
        (:attr:`ViewManager.history_limit` batches).
        """
        if version >= self._version:
            return frozenset(), frozenset()
        if version < self._trimmed_before:
            raise StaleVersionError(
                f"version {version} predates retained view history "
                f"(oldest known: {self._trimmed_before})"
            )
        ins: Set[Row] = set()
        dels: Set[Row] = set()
        for after, step_ins, step_dels in self._history:
            if after <= version:
                continue
            for row in step_dels:
                if row in ins:  # inserted earlier in the window: nets out
                    ins.discard(row)
                else:
                    dels.add(row)
            for row in step_ins:
                if row in dels:  # deleted earlier in the window: nets out
                    dels.discard(row)
                else:
                    ins.add(row)
        return frozenset(ins), frozenset(dels)

    def _record(self, version: int, ins: FrozenSet[Row],
                dels: FrozenSet[Row], limit: int) -> None:
        self._version = version
        if not ins and not dels:
            return
        self._history.append((version, ins, dels))
        while len(self._history) > limit:
            dropped = self._history.pop(0)
            self._trimmed_before = dropped[0]

    def stats(self) -> Dict[str, int]:
        """Maintenance counters of this view's incremental plan."""
        return self.incremental.stats()

    def __repr__(self) -> str:
        names = ", ".join(v.name for v in self.free) or "boolean"
        return (f"View[{names}] v{self._version} "
                f"({len(self.incremental.rows)} answers)")


class ViewManager:
    """Keeps registered views current under one database's changelog.

    ``tracer`` (a :class:`repro.obs.Tracer`) records one
    ``view-maintain`` span per committed batch — delta sizes, rows
    touched, and fallback recomputes — plus a per-view event when a
    view's answers actually move.

    Each view keeps the answer deltas of its last :attr:`history_limit`
    (256) batches for :meth:`View.changed_since`.
    """

    def __init__(self, db: Database, tracer=None):
        from ..obs.trace import NULL_TRACER

        self.db = db
        self.history_limit = 256
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._views: List[View] = []
        self.commits_seen = 0
        db.subscribe(self._on_commit)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def register_view(self, query: Query,
                      free: Sequence[Variable] = ()) -> View:
        """Materialize and maintain the certain answers of *query*.

        With ``free`` empty this is a Boolean certainty view (query
        :attr:`View.holds`); otherwise the view maintains the certain
        answers over the given free variables.  Requires the (grounded)
        query to be in FO — the same condition as ``method="compiled"``.
        """
        from ..cqa.certain_answers import OpenQuery, _guarded_open_rewriting
        from ..cqa.rewriting import NotInFO, consistent_rewriting

        free = tuple(free)
        if free:
            open_query = OpenQuery(query, free)
            if not open_query.in_fo:
                raise NotInFO(
                    "incremental views require a consistent FO rewriting; "
                    "the grounded query's attack graph is cyclic"
                )
            formula = _guarded_open_rewriting(open_query)
        else:
            if classify(query).verdict is not Verdict.IN_FO:
                raise NotInFO(
                    "incremental views require a consistent FO rewriting; "
                    "the query's attack graph is cyclic"
                )
            formula = consistent_rewriting(query)
        return self._register(query, free, formula)

    def register_formula(self, formula: Formula,
                         free: Optional[Sequence[Variable]] = None) -> View:
        """Maintain an arbitrary FO formula's answer set (expert hook)."""
        out = tuple(free) if free is not None else tuple(
            sorted(free_variables(formula))
        )
        return self._register(None, out, formula)

    def _register(self, query: Optional[Query], free: Tuple[Variable, ...],
                  formula: Formula) -> View:
        compiled = plan_cache.get_or_compile(formula, self.db, free or None)
        incremental = IncrementalPlan(compiled.plan, self.db, compiled.constants)
        view = View(self, query, compiled.free, formula, incremental,
                    self.db.clock)
        self._views.append(view)
        _STATS["views_registered"] += 1
        return view

    def unregister(self, view: View) -> None:
        """Stop maintaining a view (its answers freeze at this state)."""
        if view in self._views:
            self._views.remove(view)

    def close(self) -> None:
        """Detach from the database; all views freeze."""
        self.db.unsubscribe(self._on_commit)
        self._views.clear()

    @property
    def views(self) -> Tuple[View, ...]:
        return tuple(self._views)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def _on_commit(self, log: Changelog) -> None:
        self.commits_seen += 1
        _STATS["commits_seen"] += 1
        t = self.tracer
        delta_size = sum(
            len(d.inserted) + len(d.deleted) for d in log.deltas.values()
        )
        with t.span("view-maintain", version=log.version) as span:
            span.count("delta_size", delta_size)
            for i, view in enumerate(self._views):
                inc = view.incremental
                if not inc.uses_adom and not (inc.relations & log.relations):
                    view._version = log.version
                    span.count("views_skipped")
                    continue
                before_touched = inc.rows_touched
                before_fallback = inc.fallback_recomputes
                ins, dels = inc.apply(log, self.db)
                touched = inc.rows_touched - before_touched
                fallbacks = inc.fallback_recomputes - before_fallback
                _STATS["deltas_applied"] += 1
                _STATS["rows_touched"] += touched
                _STATS["fallback_recomputes"] += fallbacks
                span.count("deltas_applied")
                span.count("rows_touched", touched)
                span.count("fallback_recomputes", fallbacks)
                if ins or dels:
                    t.event("view-delta", view=i, inserted=len(ins),
                            deleted=len(dels))
                view._record(log.version, frozenset(ins), frozenset(dels),
                             self.history_limit)

    def stats(self) -> Dict[str, int]:
        """Counters across this manager's views (mirrors the plan
        cache's stats hook)."""
        out = {
            "views": len(self._views),
            "commits_seen": self.commits_seen,
            "deltas_applied": 0,
            "rows_touched": 0,
            "fallback_recomputes": 0,
        }
        for view in self._views:
            s = view.incremental.stats()
            out["deltas_applied"] += s["deltas_applied"]
            out["rows_touched"] += s["rows_touched"]
            out["fallback_recomputes"] += s["fallback_recomputes"]
        return out


def view_manager(db: Database, tracer=None) -> ViewManager:
    """The database's attached view manager, created on first use.

    One manager per database keeps subscription bookkeeping in one
    place; repeated calls return the same instance.  Passing ``tracer``
    attaches it to the manager (including an already-existing one), so
    later commits are traced.
    """
    manager = getattr(db, "_view_manager", None)
    if manager is None:
        manager = ViewManager(db, tracer=tracer)
        db._view_manager = manager  # type: ignore[attr-defined]
    elif tracer is not None:
        manager.tracer = tracer
    return manager

"""High-level certainty engine: one entry point per question over the
seven interchangeable strategies, and a cross-validation helper.

``brute``, ``interpreted``, ``rewriting``, ``compiled``, ``sql``,
``parallel`` and ``columnar`` (plus ``auto`` routing) are described in
:mod:`repro.cqa.certain_answers`, whose single dispatcher serves both
questions: :meth:`CertaintyEngine.certain` is its ``free=()`` call —
Boolean certainty is the answer set ``{()}`` or nothing — and
:meth:`CertaintyEngine.certain_answers` its open form.  Sentences keep
the short-circuit probe path on every plan backend; ``parallel`` runs
them serially, counting a ``boolean`` fallback in the parallel metrics,
because certainty does not decompose over shards.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional

from ..core.classify import Classification, Verdict
from ..core.query import Query
from ..db.database import Database
from ..fo.formula import Formula
from ..lint import LintResult, lint_query
from .certain_answers import SERIAL_FO_METHODS, OpenQuery, require_fo
from .rewriting import consistent_rewriting


@dataclass
class CrossValidation:
    """Results of running every applicable strategy on one instance."""

    results: Dict[str, bool]

    @property
    def consistent(self) -> bool:
        """Did all strategies agree?"""
        return len(set(self.results.values())) <= 1

    @property
    def answer(self) -> bool:
        """The agreed answer (raises if strategies disagree)."""
        if not self.consistent:
            raise AssertionError(f"solvers disagree: {self.results}")
        return next(iter(self.results.values()))


class CertaintyEngine:
    """Answers CERTAINTY(q) for one fixed query on many databases.

    The engine classifies the query once, constructs (and caches) the
    rewriting when one exists, and dispatches per call.
    """

    def __init__(self, query: Query):
        self.query = query
        self._boolean = OpenQuery(query, ())
        self.classification: Classification = self._boolean.classification
        self._rewriting: Optional[Formula] = None

    @cached_property
    def lint(self) -> LintResult:
        """The query's lint report, computed on first access.

        Answering never reads it: a query outside FO already fails with
        its coded diagnostics (:func:`~repro.cqa.certain_answers.require_fo`).
        """
        return lint_query(self.query)

    @property
    def in_fo(self) -> bool:
        """Does the query admit a consistent FO rewriting (Thm 4.3)?"""
        return self.classification.verdict is Verdict.IN_FO

    @property
    def rewriting(self) -> Formula:
        """The consistent FO rewriting (constructed lazily, cached)."""
        if self._rewriting is None:
            self._rewriting = consistent_rewriting(self.query)
        return self._rewriting

    def certain(self, db: Database, options=None, *, tracer=None) -> bool:
        """Is q true in every repair of db?

        ``options`` is an :class:`repro.obs.ExecutionOptions` (or a
        bare method string as shorthand, or its strict ``dict`` wire
        form — the body of a ``repro serve`` request).  This is the
        ``free=()`` call of :func:`repro.cqa.certain_answers.certain_answers`,
        so methods, ``auto`` routing and ``tracer`` behave as there;
        the probe span and profile of a sentence are tagged
        ``phase="probe"``.
        """
        from .certain_answers import certain_answers

        return () in certain_answers(self._boolean, db, options,
                                     tracer=tracer)

    def certain_answers(self, db: Database, free=(), options=None, *,
                        tracer=None):
        """All certain answers of q(x⃗) on db, for answer variables
        ``free``.

        Thin wrapper around :func:`repro.cqa.certain_answers.certain_answers`
        reusing this engine's query; ``options`` is an
        :class:`repro.obs.ExecutionOptions` (or a method string), where
        ``method="parallel"`` with ``jobs=N`` runs the sharded
        worker-pool path.
        """
        from .certain_answers import certain_answers

        free = tuple(free)
        open_query = OpenQuery(self.query, free) if free else self._boolean
        return certain_answers(open_query, db, options, tracer=tracer)

    def metrics(self):
        """A unified :class:`repro.obs.EngineMetrics` snapshot.

        Bundles the plan cache's counters and the process-wide
        parallel, views, columnar and storage sections of the
        :mod:`repro.obs.metrics` registry into one typed object with a
        stable ``to_dict()``/``to_json()`` shape.
        """
        from ..obs.metrics import collect_metrics

        return collect_metrics()

    def register_view(self, db: Database, free=(), tracer=None):
        """Materialize this query as an incrementally maintained view.

        Returns a :class:`repro.incremental.View` kept current by the
        database's changelog: after any mutation (or batch commit),
        ``view.holds`` / ``view.answers`` reflect the new certain
        answers without a full re-execution.  Requires the query to be
        in FO with ``free`` as answer variables, like
        ``method="compiled"``, and raises
        :class:`~repro.db.database.BatchError` inside an open batch.
        ``tracer`` attaches a :class:`repro.obs.Tracer` to the
        database's view manager so maintenance work is traced.
        """
        from ..incremental import view_manager

        require_fo(OpenQuery(self.query, free), "incremental")
        return view_manager(db, tracer=tracer).register_view(self.query, free)

    def cross_validate(self, db: Database) -> CrossValidation:
        """Run every applicable serial strategy and collect the answers."""
        results = {"brute": self.certain(db, "brute")}
        if self.in_fo:
            for method in SERIAL_FO_METHODS:
                results[method] = self.certain(db, method)
        return CrossValidation(results)


def certain(query: Query, db: Database, method: str = "auto") -> bool:
    """One-shot convenience wrapper around :class:`CertaintyEngine`."""
    return CertaintyEngine(query).certain(db, method)

"""Certain answers, and the one method dispatch behind every engine call.

Section 1 of the paper: "The extension to queries with free variables
is easy, essentially because free variables can be treated as
constants."  A tuple c⃗ is a *certain answer* of q(x⃗) on **db** when
the Boolean query q_[x⃗↦c⃗] is true in every repair of **db**.  Boolean
certainty is the ``free=()`` case: its answer set is ``{()}`` when q is
certain and empty otherwise, so
:meth:`repro.cqa.engine.CertaintyEngine.certain` is a ``free=()`` call
of :func:`certain_answers`, and one dispatcher serves both.

Strategies (the ``method`` of :class:`repro.obs.ExecutionOptions`):

``brute``
    Ground every candidate tuple and enumerate repairs.
``interpreted``
    Ground every candidate tuple and run Algorithm 1 on the database.
``rewriting``
    Build ONE consistent first-order rewriting φ(x⃗) with free
    variables (placeholder grounding, then re-opening), and evaluate it
    per candidate with the guarded Python evaluator.
``compiled``
    Lower φ(x⃗) to a set-at-a-time relational plan (cached in the
    process-wide plan cache) and return every certain answer from one
    plan execution; a sentence runs in the executor's short-circuit
    probe mode instead.
``columnar``
    Execute the same plan with the vectorized batch executor
    (:mod:`repro.columnar`); sentences keep the row executor's probe
    (a delegation counted in the columnar stats).
``sql``
    Run the same plan as one SELECT inside the database's sqlite
    mirror (:mod:`repro.storage.pushdown`): a persistent store's
    ``mirror.sqlite``, or a private in-memory mirror attached to any
    other database on first use.
``parallel``
    Split the database into block-preserving shards and run the
    compiled plan on every shard in a forked worker pool
    (:mod:`repro.parallel`); falls back to ``compiled`` in-process
    whenever sharding cannot help (Boolean query, tiny database,
    ``jobs=1``, ...).
``auto``
    ``brute`` outside FO.  Otherwise compile once and hand that plan to
    ``columnar`` when :func:`repro.columnar.prefer_columnar` says so (an
    open query on a large database), else to ``compiled`` — which
    answers every sentence with its short-circuit probe.  ``auto``
    never picks ``sql``: on the measured stores the mirror lost to
    both, so it is built and maintained only for callers that ask for
    it.  ``auto`` with ``jobs`` set means ``parallel``.

Every method but ``brute`` needs Theorem 4.3's rewriting and raises a
coded :class:`~repro.cqa.rewriting.NotInFO` for a query outside FO.

The candidate space is enumerated from rows of the positive atoms
(complete, because a repair is a subset of the database): free
variables covered by a common atom are projected jointly from its rows,
and only variables with no positive occurrence fall back to the active
domain.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.atoms import Atom
from ..core.classify import Classification, Verdict, classify
from ..core.query import Query, QueryError
from ..core.terms import Constant, PlaceholderConstant, Variable, is_variable
from ..db.database import Database
from ..fo.compile import CompiledQuery, plan_cache
from ..fo.eval import Evaluator
from ..fo.formula import (
    And,
    AtomF,
    Exists,
    Formula,
    free_variables,
    make_and,
    make_exists,
    schemas_of,
    substitute_terms,
)
from ..fo.simplify import simplify_fixpoint
from ..fo.sql import SQLCompiler
from ..lint import lint_query
from ..obs.options import ExecutionOptions, close_tracer, open_tracer
from ..obs.profile import PlanProfile
from ..obs.trace import NULL_TRACER
from .brute_force import is_certain_brute_force
from .is_certain import is_certain
from .rewriting import NotInFO, Rewriter

#: The serial methods that need the FO rewriting — what both
#: cross-validation helpers run next to ``brute``.
SERIAL_FO_METHODS = ("interpreted", "rewriting", "compiled", "sql", "columnar")

#: The methods that execute the compiled plan of the rewriting.
_PLAN_METHODS = ("compiled", "columnar", "sql")

_TRUE: FrozenSet[Tuple] = frozenset({()})
_FALSE: FrozenSet[Tuple] = frozenset()


class OpenQuery:
    """A conjunctive query with designated free (answer) variables."""

    def __init__(self, query: Query, free: Sequence[Variable]):
        free = tuple(free)
        bad = [v for v in free if not isinstance(v, Variable)]
        if bad:
            raise QueryError(
                f"free variables must be Variable objects, got "
                f"{', '.join(map(repr, bad))}"
            )
        if len(set(free)) != len(free):
            raise QueryError("free variables must be distinct")
        missing = [v for v in free if v not in query.vars]
        if missing:
            raise QueryError(
                f"free variables not in the query: {[v.name for v in missing]}"
            )
        self.query = query
        self.free = free

    def grounded(self, values: Sequence) -> Query:
        """q_[x⃗ ↦ c⃗] for a candidate answer tuple."""
        mapping = {v: Constant(c) for v, c in zip(self.free, values)}
        return self.query.substitute(mapping)

    @property
    def boolean_form(self) -> Query:
        """The Boolean query obtained by freezing free variables.

        Classification must be performed on this form: treating the
        free variables as constants changes the attack graph, and it is
        this grounded query that Theorem 4.3 speaks about.
        """
        return _grounding(self.query, self.free)[0]

    @property
    def classification(self) -> Classification:
        """Theorem 4.3's verdict on :attr:`boolean_form`."""
        return _classify_open(self.query, self.free)

    @property
    def in_fo(self) -> bool:
        """Does every grounding admit a consistent FO rewriting?"""
        return self.classification.verdict is Verdict.IN_FO

    def __repr__(self) -> str:
        names = ", ".join(v.name for v in self.free)
        return f"({names}) <- {self.query!r}"


@lru_cache(maxsize=512)
def _grounding(
    query: Query, free: Tuple[Variable, ...]
) -> Tuple[Query, Tuple[PlaceholderConstant, ...]]:
    # One grounding per (query, free), shared by the classification and
    # the rewriting, so both find the same attack graph.
    placeholders = tuple(PlaceholderConstant(v) for v in free)
    return query.substitute(dict(zip(free, placeholders))), placeholders


@lru_cache(maxsize=512)
def _classify_open(
    query: Query, free: Tuple[Variable, ...]
) -> Classification:
    # Memoized like the rewritings below: every FO-only call checks the
    # verdict, and it is a function of the query alone.
    return classify(OpenQuery(query, free).boolean_form)


@lru_cache(maxsize=512)
def _open_rewriting(
    query: Query, free: Tuple[Variable, ...], simplify: bool
) -> Formula:
    grounded, placeholders = _grounding(query, free)
    formula = Rewriter(grounded).rewrite(simplify=simplify)
    opened = substitute_terms(formula, dict(zip(placeholders, free)))
    return simplify_fixpoint(opened) if simplify else opened


def open_rewriting(open_query: OpenQuery, simplify: bool = True) -> Formula:
    """A consistent FO rewriting φ(x⃗) with the answer variables free.

    Built by grounding the free variables with placeholders, rewriting
    the resulting Boolean query, and re-opening the placeholders.
    Memoized on (query, free variables): the rewriting is a function of
    the query alone, and callers re-derive it per database.
    """
    return _open_rewriting(open_query.query, open_query.free, simplify)


def _generator_vars(formula: Formula) -> FrozenSet[Variable]:
    """Free variables the plan lowering can enumerate from rows.

    Walks the conjunctive skeleton (And / Exists) and collects variables
    of positive atoms found there — exactly the conjuncts ``_lower_and``
    turns into scans.  Atoms under Or, Not, or Forall do not generate.
    """
    if isinstance(formula, AtomF):
        return frozenset(formula.atom.vars)
    if isinstance(formula, Exists):
        return _generator_vars(formula.sub) - set(formula.vars)
    if isinstance(formula, And):
        out: FrozenSet[Variable] = frozenset()
        for sub in formula.subs:
            out |= _generator_vars(sub)
        return out
    return frozenset()


@lru_cache(maxsize=512)
def _guarded_open_rewriting_cached(
    query: Query, free: Tuple[Variable, ...]
) -> Formula:
    formula = _open_rewriting(query, free, True)
    unguarded = set(free) - _generator_vars(formula)
    guards: List[Formula] = []
    while unguarded:
        best = max(
            query.positives,
            key=lambda p: len(p.vars & unguarded),
            default=None,
        )
        if best is None or not best.vars & unguarded:
            break
        other = sorted(best.vars - set(free))
        guards.append(make_exists(other, AtomF(best)))
        unguarded -= best.vars
    if not guards:
        return formula
    return make_and(guards + [formula])


def _guarded_open_rewriting(open_query: OpenQuery) -> Formula:
    """φ(x⃗) conjoined with implied positive-atom guards where needed.

    A certain answer satisfies every positive atom of q in the database
    itself (a repair is a subset of db), so ``exists ū P(x̄, ū)`` is
    implied by φ for every positive atom P touching answer variables.
    Conjoining these guards is an equivalence — and it hands the plan
    lowering generators that cover the answer variables, so the plan
    enumerates them from rows instead of the active domain.  Guards are
    added only for answer variables the rewriting does not already
    generate positively, keeping the plan free of duplicate scans.
    """
    return _guarded_open_rewriting_cached(open_query.query, open_query.free)


def _consistent_rows(atom: Atom, db: Database) -> Sequence[Tuple]:
    """Rows of the atom's relation that match its constants and agree on
    its repeated variables."""
    if atom.relation not in db.schemas:
        return ()
    bindings: Dict[int, object] = {}
    first_pos: Dict[Variable, int] = {}
    checks: List[Tuple[int, int]] = []
    for i, term in enumerate(atom.terms):
        if is_variable(term):
            if term in first_pos:
                checks.append((first_pos[term], i))
            else:
                first_pos[term] = i
        else:
            bindings[i] = term.value
    rows = db.lookup(atom.relation, bindings)
    if not checks:
        return tuple(rows)
    return tuple(
        row for row in rows if all(row[a] == row[b] for a, b in checks)
    )


def candidate_values(
    open_query: OpenQuery, db: Database
) -> List[Tuple]:
    """Candidate answer tuples, enumerated from rows of positive atoms.

    Complete because a repair is a subset of the database: any certain
    answer makes every positive atom of q match an actual row.  Atoms
    are chosen greedily to cover as many free variables as possible
    (tie-break: fewest rows); variables assigned to the same atom are
    projected *jointly* from its rows, so co-occurring variables never
    form a cross product, and only variables with no positive
    occurrence fall back to the full active domain.
    """
    free = open_query.free
    if not free:
        return [()]
    positives = tuple(open_query.query.positives)
    sizes = [
        len(db.facts(p.relation)) if p.relation in db.schemas else 0
        for p in positives
    ]
    groups: Dict[int, List[int]] = {}  # atom index -> indexes into free
    unguarded: List[int] = []
    uncovered = list(range(len(free)))
    while uncovered:
        best: Optional[int] = None
        best_score: Tuple[int, int] = (0, 0)
        for i, p in enumerate(positives):
            covers = sum(1 for j in uncovered if free[j] in p.vars)
            score = (covers, -sizes[i])
            if covers and (best is None or score > best_score):
                best, best_score = i, score
        if best is None:
            unguarded.extend(uncovered)
            break
        groups[best] = [j for j in uncovered if free[j] in positives[best].vars]
        uncovered = [j for j in uncovered if free[j] not in positives[best].vars]
    # Each factor: (free-variable indexes, their joint value tuples).
    factors: List[Tuple[List[int], List[Tuple]]] = []
    for i, members in sorted(groups.items()):
        atom = positives[i]
        positions = [
            next(k for k, t in enumerate(atom.terms) if t == free[j])
            for j in members
        ]
        projected = {
            tuple(row[k] for k in positions)
            for row in _consistent_rows(atom, db)
        }
        factors.append((members, sorted(projected, key=repr)))
    if unguarded:
        adom = sorted(db.active_domain(), key=repr)
        for j in unguarded:
            factors.append(([j], [(value,) for value in adom]))
    out: List[Tuple] = []
    for combo in itertools.product(*(values for _, values in factors)):
        tup: List = [None] * len(free)
        for (members, _), values in zip(factors, combo):
            for j, value in zip(members, values):
                tup[j] = value
        out.append(tuple(tup))
    return out


def require_fo(open_query: OpenQuery, method: str) -> None:
    """Fail fast with the coded lint diagnostics when an FO-only
    method is requested for a query outside Theorem 4.3(2)."""
    if open_query.in_fo:
        return
    errors = lint_query(open_query.boolean_form).errors
    detail = "; ".join(d.one_line() for d in errors)
    raise NotInFO(
        f"method {method!r} needs a consistent FO rewriting, which "
        f"Theorem 4.3 withholds for this query: "
        f"{detail or open_query.classification.reason}",
        diagnostics=errors,
    )


def certain_answers(
    open_query: OpenQuery,
    db: Database,
    options=None,
    *,
    tracer=None,
) -> FrozenSet[Tuple]:
    """All certain answers of q(x⃗) on db.

    ``options`` is an :class:`repro.obs.ExecutionOptions` — or a bare
    method string as shorthand, or its strict ``dict`` wire form (the
    body of a ``repro serve`` request).  See the module docstring for
    the methods and ``auto`` routing; the ``jobs`` field sets the
    worker count of the ``parallel`` method (default: the CPU count).
    With no free variables the result is ``{()}`` when the query is
    certain and empty otherwise.

    ``tracer`` (a :class:`repro.obs.Tracer`) records phase spans and,
    for the plan-executing methods, a per-operator
    :class:`repro.obs.PlanProfile` attached via ``tracer.add_profile``;
    without an explicit tracer, the options' ``trace`` / ``trace_file``
    fields create (and flush) one.  Tracing never changes the answers —
    the parity tests in ``tests/test_obs.py`` pin that down for every
    method.
    """
    opts = ExecutionOptions.coerce(options)
    tracer, own = open_tracer(opts, tracer)
    try:
        return _dispatch(open_query, db, opts, tracer)
    finally:
        close_tracer(opts, tracer, own)


def _dispatch(
    open_query: OpenQuery, db: Database, opts: ExecutionOptions, tracer
) -> FrozenSet[Tuple]:
    """Resolve the method and run it: one path per backend, traced or
    not (the :data:`NULL_TRACER` spans are no-ops), with the one
    ``auto`` routing site routing the plan it then executes."""
    t = tracer if tracer is not None else NULL_TRACER
    method = opts.resolved_method
    auto = method == "auto"
    if auto:
        method = "compiled" if open_query.in_fo else "brute"
    if method != "brute":
        require_fo(open_query, method)
    name = "certain-answers" if open_query.free else "certain"
    with t.span(name) as span:
        if method in _PLAN_METHODS:
            with t.span("rewrite-and-compile"):
                compiled = plan_cache.get_or_compile(
                    _guarded_open_rewriting(open_query), db, open_query.free
                )
            if auto:
                method = _route(compiled, db)
            span.tag(method=method)
            return _execute(method, compiled, open_query, db, t)
        span.tag(method=method)
        if method == "parallel":
            from ..parallel import parallel_certain_answers

            return parallel_certain_answers(open_query, db, jobs=opts.jobs,
                                            tracer=t)
        return _per_candidate(method, open_query, db, t, span)


def _route(compiled: CompiledQuery, db: Database) -> str:
    """The backend ``auto`` hands an FO query's compiled plan to."""
    from ..columnar import prefer_columnar

    return "columnar" if prefer_columnar(compiled, db) else "compiled"


def _execute(method: str, compiled: CompiledQuery, open_query: OpenQuery,
             db: Database, t) -> FrozenSet[Tuple]:
    """Run the compiled plan on one backend: the short-circuit probe
    for a sentence, one execution returning every row otherwise."""
    boolean = not open_query.free
    phase = "probe" if boolean else "execute"
    profile = PlanProfile() if t.enabled and method != "sql" else None
    with t.span(phase) as span:
        if method == "compiled":
            run = compiled.holds if boolean else compiled.rows
            result = run(db, profile=profile)
        elif method == "columnar":
            from ..columnar import columnar_holds, columnar_rows

            run = columnar_holds if boolean else columnar_rows
            result = run(compiled, db, profile=profile)
        else:
            from ..storage.pushdown import native_sql_answers, native_sql_holds

            run = native_sql_holds if boolean else native_sql_answers
            result = run(compiled, db)
        if boolean:
            span.count("holds", int(result))
        else:
            span.count("rows_out", len(result))
    if profile is not None:
        t.add_profile(compiled.plan, profile, method=method, phase=phase)
    if boolean:
        return _TRUE if result else _FALSE
    return result


def _per_candidate(method: str, open_query: OpenQuery, db: Database, t,
                   span) -> FrozenSet[Tuple]:
    """``brute`` / ``interpreted`` / ``rewriting``: decide every
    candidate tuple on its own."""
    if method == "rewriting":
        with t.span("rewrite"):
            formula = open_rewriting(open_query)
        evaluator = Evaluator(formula, db)

        def holds(c: Tuple) -> bool:
            return evaluator.evaluate(dict(zip(open_query.free, c)))
    else:
        decide = is_certain_brute_force if method == "brute" else is_certain

        def holds(c: Tuple) -> bool:
            return decide(open_query.grounded(c), db)
    candidates = candidate_values(open_query, db)
    span.count("candidates", len(candidates))
    return frozenset(c for c in candidates if holds(c))


def certain_answers_sql_query(open_query: OpenQuery, db: Database) -> str:
    """The single SQL SELECT returning every certain answer."""
    formula = open_rewriting(open_query)
    if free_variables(formula) - set(open_query.free):
        raise NotInFO("rewriting has unexpected free variables")
    schemas = dict(db.schemas)
    schemas.update(schemas_of(formula))
    compiler = SQLCompiler(formula, schemas)
    adom_cte = compiler.adom_cte()
    scope = {}
    from_items = []
    select_items = []
    for i, v in enumerate(open_query.free):
        alias = f"ans{i}"
        from_items.append(f"adom {alias}")
        scope[v] = f"{alias}.v"
        select_items.append(f"{alias}.v AS {v.name}")
    body = compiler.compile_expr(formula, scope)
    return (
        f"WITH adom(v) AS ({adom_cte})\n"
        f"SELECT DISTINCT {', '.join(select_items)}\n"
        f"FROM {', '.join(from_items)}\n"
        f"WHERE {body}"
    )


def cross_validate_answers(
    open_query: OpenQuery, db: Database, parallel_jobs: int = 0
) -> Dict[str, FrozenSet[Tuple]]:
    """Answers from every applicable strategy (tests assert agreement).

    ``parallel_jobs > 0`` additionally runs the sharded parallel path
    with that worker count and no size threshold, so even tiny test
    databases exercise real partitioning and merging.
    """
    out = {"brute": certain_answers(open_query, db, "brute")}
    if open_query.in_fo:
        for method in SERIAL_FO_METHODS:
            out[method] = certain_answers(open_query, db, method)
        if parallel_jobs > 0:
            from ..parallel import parallel_certain_answers

            out["parallel"] = parallel_certain_answers(
                open_query, db, jobs=parallel_jobs, min_facts=0,
                shard_factor=1,
            )
    return out

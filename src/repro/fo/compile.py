"""Lowering NNF formulas to set-at-a-time relational plans.

The consistent rewritings of Algorithm 1 have a very particular shape:
every quantifier is *relation-guarded* — ``exists z (R(..z..) and phi)``
or, in NNF, ``forall z (not R(..z..) or phi)``.  The lowering exploits
exactly that:

* a conjunction is split into **generators** (positive atoms, lowered
  subplans) that are hash-joined into a relation of assignments, and
  **filters** (negated atoms, disequalities, universals) that prune it
  via :class:`~repro.fo.plan.AntiJoin`/:class:`~repro.fo.plan.Select`;
* ``exists`` is a :class:`~repro.fo.plan.Project` of its body's plan;
* ``forall z (not G or phi)`` becomes an anti-join against the relation
  of *violating* assignments ``exists z (G and not phi)`` — relational
  division in set-difference form, with the guard ``G`` generating;
* only variables no generator ranges over fall back to the explicit
  active-domain product, mirroring the ``adom`` CTE of the SQL backend,
  which keeps the lowering total for arbitrary FO input.

The result of a compilation is a :class:`CompiledQuery` whose
:meth:`~CompiledQuery.rows` returns *all* satisfying assignments in one
execution — certain answers without per-candidate re-evaluation — and a
:class:`PlanCache` (LRU, keyed on formula + answer columns + schema
signature) lets repeated queries skip compilation entirely.
"""

from __future__ import annotations

import itertools
import os
from collections import OrderedDict
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.atoms import Atom
from ..core.terms import Variable, is_variable
from ..db.database import Database
from .eval import nnf
from .formula import (
    And,
    AtomF,
    Eq,
    Exists,
    Falsum,
    Forall,
    Formula,
    Not,
    Or,
    Verum,
    constants_of,
    free_variables,
    relations_of,
)
from .plan import (
    AdomEq,
    AdomGuard,
    AdomProduct,
    AntiJoin,
    Difference,
    Executor,
    Join,
    Literal,
    Plan,
    Project,
    Scan,
    Select,
    SemiJoin,
    Union,
    execute_plan,
    execute_plan_nonempty,
    explain,
)

Row = Tuple
Cols = Tuple[Variable, ...]


class CompileError(ValueError):
    """Raised on malformed compilation requests."""


class CompiledQuery:
    """A formula lowered to a plan, ready to run on any database.

    ``free`` fixes the order of the answer columns; a sentence has
    ``free == ()`` and is queried with :meth:`holds`.
    """

    __slots__ = ("formula", "free", "plan", "constants", "_uses_adom")

    def __init__(self, formula: Formula, free: Cols, plan: Plan, constants: Tuple):
        self.formula = formula
        self.free = free
        self.plan = plan
        self.constants = constants
        self._uses_adom: Optional[bool] = None

    @property
    def uses_adom(self) -> bool:
        """Does the plan touch the active domain (an Adom* node)?

        Walked once per compiled query: the plan cache interns these
        objects, so routing asks this per call at the cost of a slot
        read.
        """
        if self._uses_adom is None:
            from ..analysis.verifier import plan_uses_adom

            self._uses_adom = plan_uses_adom(self.plan)
        return self._uses_adom

    def rows(self, db: Database, profile=None) -> FrozenSet[Row]:
        """All satisfying assignments over ``free``, in one execution.

        ``profile`` (a :class:`repro.obs.profile.PlanProfile`) turns on
        per-operator observability for this execution.
        """
        return frozenset(execute_plan(self.plan, db, self.constants, profile))

    def holds(self, db: Database, profile=None) -> bool:
        """Truth value of a sentence (a plan over zero columns).

        Evaluated with the executor's short-circuit mode: rows stream
        lazily to the root, so an existential sentence stops at its
        first witness and a universally guarded one at its first
        violation, instead of materializing the full witness relation
        only to ask whether it is empty.

        With ``profile`` the probe path counts per-operator probe and
        index activity, and the root node records the end-to-end time;
        intermediate cardinalities stay zero because short-circuit
        evaluation never materializes them — that absence *is* the
        signal that the probe fast path ran.
        """
        if profile is None:
            return execute_plan_nonempty(self.plan, db, self.constants)
        from time import perf_counter

        executor = Executor(db, None, self.constants, profile)
        t0 = perf_counter()
        result = executor.nonempty(self.plan)
        profile.record(self.plan, perf_counter() - t0, int(result))
        return result

    def explain(self) -> str:
        """Readable plan rendering (see :func:`repro.fo.plan.explain`)."""
        return explain(self.plan)

    def __repr__(self) -> str:
        names = ", ".join(v.name for v in self.free)
        return f"CompiledQuery[({names})]"


# ----------------------------------------------------------------------
# alpha renaming
# ----------------------------------------------------------------------


def standardize_apart(f: Formula) -> Formula:
    """Rename every bound variable to a globally fresh one.

    The lowering identifies plan columns with variables, so distinct
    binders must use distinct names even where the input nests or
    shadows them (``exists x (R(x) and exists x S(x))``).
    """
    used: Set[str] = set()

    def collect(g: Formula) -> None:
        if isinstance(g, AtomF):
            used.update(v.name for v in g.atom.vars)
        elif isinstance(g, Eq):
            for t in (g.lhs, g.rhs):
                if is_variable(t):
                    used.add(t.name)
        elif isinstance(g, Not):
            collect(g.sub)
        elif isinstance(g, (And, Or)):
            for s in g.subs:
                collect(s)
        elif isinstance(g, (Exists, Forall)):
            used.update(v.name for v in g.vars)
            collect(g.sub)

    collect(f)
    counter = itertools.count()

    def fresh(v: Variable) -> Variable:
        while True:
            name = f"{v.name}@{next(counter)}"
            if name not in used:
                used.add(name)
                return Variable(name)

    def walk(g: Formula, mapping: Dict[Variable, Variable]) -> Formula:
        if isinstance(g, (Verum, Falsum)):
            return g
        if isinstance(g, AtomF):
            terms = tuple(
                mapping.get(t, t) if is_variable(t) else t for t in g.atom.terms
            )
            return AtomF(Atom(g.atom.schema, terms))
        if isinstance(g, Eq):
            lhs = mapping.get(g.lhs, g.lhs) if is_variable(g.lhs) else g.lhs
            rhs = mapping.get(g.rhs, g.rhs) if is_variable(g.rhs) else g.rhs
            return Eq(lhs, rhs)
        if isinstance(g, Not):
            return Not(walk(g.sub, mapping))
        if isinstance(g, And):
            return And(tuple(walk(s, mapping) for s in g.subs))
        if isinstance(g, Or):
            return Or(tuple(walk(s, mapping) for s in g.subs))
        if isinstance(g, (Exists, Forall)):
            renames: Dict[Variable, Variable] = {}
            new_vars: List[Variable] = []
            for v in g.vars:
                if v not in renames:
                    renames[v] = fresh(v)
                new_vars.append(renames[v])
            inner = dict(mapping)
            inner.update(renames)
            return type(g)(tuple(new_vars), walk(g.sub, inner))
        raise TypeError(f"not a formula: {g!r}")

    return walk(f, {})


# ----------------------------------------------------------------------
# lowering
# ----------------------------------------------------------------------


def _sorted_cols(variables) -> Cols:
    return tuple(sorted(variables))


def _pad(plan: Plan, cols: Cols) -> Plan:
    """Extend a plan to ``cols`` by crossing missing ones with adom."""
    missing = [v for v in cols if v not in plan.cols]
    if missing:
        plan = Join(plan, AdomProduct(_sorted_cols(missing)))
    if plan.cols != cols:
        plan = Project(plan, cols)
    return plan


def _lower_eq(f: Eq) -> Plan:
    lv, rv = is_variable(f.lhs), is_variable(f.rhs)
    if not lv and not rv:
        return Literal((), [()] if f.lhs.value == f.rhs.value else [])
    if lv and rv:
        if f.lhs == f.rhs:
            # x = x holds for every active-domain value of x.
            return AdomProduct((f.lhs,))
        return AdomEq(f.lhs, f.rhs)
    var, const = (f.lhs, f.rhs) if lv else (f.rhs, f.lhs)
    return Literal((var,), [(const.value,)])


def _lower_not(sub: Formula) -> Plan:
    """Standalone complement (NNF guarantees ``sub`` is atomic)."""
    positive = _lower(sub)
    base: Plan = (
        Literal((), [()]) if not positive.cols else AdomProduct(positive.cols)
    )
    return Difference(base, positive)


def _combine(current: Optional[Plan], g: Plan) -> Plan:
    """Conjoin a generator with the accumulated plan."""
    if current is None:
        return g
    if set(g.cols) <= set(current.cols):
        return SemiJoin(current, g)
    if set(current.cols) <= set(g.cols):
        # Join would emit exactly g's columns (current's rows are unique
        # on the shared columns), so filter g instead of pairing rows.
        return SemiJoin(g, current)
    return Join(current, g)


def _flatten_and(subs: Sequence[Formula]) -> List[Formula]:
    out: List[Formula] = []
    for s in subs:
        if isinstance(s, And):
            out.extend(_flatten_and(s.subs))
        else:
            out.append(s)
    return out


def _lower_and(subs: Sequence[Formula], seed: Optional[Plan] = None) -> Plan:
    """Lower a conjunction, *seeded* by the bindings accumulated so far.

    The ``seed`` plan (if any) is a relation of already-established
    bindings for outer variables; every subplan built here is conjoined
    with it, so disjunctions, quantifier bodies, and complements are
    evaluated only over extensions of seed rows — the set-at-a-time
    analogue of the interpreter's environment threading.  Without it,
    a ``not (z = t)`` under an unbound ``t`` would materialize nearly
    all of adom², and an unguarded answer variable would cross the
    whole plan with the active domain.
    """
    flat = _flatten_and(subs)
    free_set: Set[Variable] = set(seed.cols) if seed is not None else set()
    for s in flat:
        free_set |= free_variables(s)
    free = _sorted_cols(free_set)

    cheap: List[Plan] = []
    complex_subs: List[Formula] = []
    eq_filters: List[Eq] = []
    neq_filters: List[Eq] = []
    atom_filters: List[AtomF] = []

    for s in flat:
        if isinstance(s, (Verum, Falsum)):
            cheap.append(_lower(s))
        elif isinstance(s, AtomF):
            cheap.append(Scan(s.atom))
        elif isinstance(s, Eq):
            if is_variable(s.lhs) and is_variable(s.rhs) and s.lhs != s.rhs:
                eq_filters.append(s)
            else:
                cheap.append(_lower_eq(s))
        elif isinstance(s, Not):
            if isinstance(s.sub, AtomF):
                atom_filters.append(s.sub)
            elif isinstance(s.sub, Eq):
                neq_filters.append(s.sub)
            else:  # non-NNF input; fall back to the total complement
                cheap.append(_lower_not(s.sub))
        elif isinstance(s, (Exists, Or, Forall)):
            complex_subs.append(s)
        else:
            raise TypeError(f"not a formula: {s!r}")

    # Join the cheap generators first, most selective first: one-row
    # literals, scans with constant positions, then plain scans.
    def rank(p: Plan) -> Tuple[int, int]:
        if isinstance(p, Literal):
            return (0, 0)
        if isinstance(p, Scan):
            return (1, 0) if p.consts else (2, 0)
        return (3, len(p.cols))

    # Greedy connected join order: always fold in a generator sharing
    # columns with the bindings built so far (most shared wins, rank
    # breaks ties), so a cross product happens only when the conjunction
    # is genuinely disconnected.
    cheap.sort(key=rank)
    current = seed
    while cheap:
        if current is None:
            current = cheap.pop(0)
            continue
        bound = set(current.cols)
        idx, best_shared = 0, -1
        for i, g in enumerate(cheap):
            shared = len(bound & set(g.cols))
            if shared > best_shared:
                idx, best_shared = i, shared
        current = _combine(current, cheap.pop(idx))

    # Quantified and disjunctive conjuncts are folded *with* the
    # current bindings, so their internals stay row-driven.
    for s in complex_subs:
        current = _lower(s, current)

    # An equality with an unbound side ranges that side over the
    # diagonal; once both sides are bound it is a cheap Select.
    pending_eqs: List[Eq] = []
    for e in eq_filters:
        bound = set(current.cols) if current is not None else set()
        if e.lhs not in bound or e.rhs not in bound:
            current = _combine(current, AdomEq(e.lhs, e.rhs))
        pending_eqs.append(e)

    if current is None:
        current = Literal((), [()])
    missing = [v for v in free if v not in current.cols]
    if missing:
        current = Join(current, AdomProduct(_sorted_cols(missing)))

    conds = []
    pos = {c: i for i, c in enumerate(current.cols)}

    def operand(term):
        if is_variable(term):
            return ("col", pos[term])
        return ("const", term.value)

    for e in pending_eqs:
        conds.append((operand(e.lhs), operand(e.rhs), True))
    for e in neq_filters:
        conds.append((operand(e.lhs), operand(e.rhs), False))
    if conds:
        current = Select(current, conds)

    for atom_f in atom_filters:
        current = AntiJoin(current, _lower(atom_f))
    return current


def _lower_or(subs: Sequence[Formula], seed: Optional[Plan] = None) -> Plan:
    if not subs:
        return Literal(seed.cols if seed is not None else (), [])
    free_set: Set[Variable] = set(seed.cols) if seed is not None else set()
    for s in subs:
        free_set |= free_variables(s)
    free = _sorted_cols(free_set)
    return Union([_pad(_lower(s, seed), free) for s in subs])


def _lower_exists(f: Exists, seed: Optional[Plan] = None) -> Plan:
    body_free = free_variables(f.sub)
    out_set = body_free - set(f.vars)
    if seed is not None:
        out_set |= set(seed.cols)
    out_cols = _sorted_cols(out_set)
    plan = _lower(f.sub, seed)
    if plan.cols != out_cols:
        plan = Project(plan, out_cols)
    if any(v not in body_free for v in f.vars):
        # A vacuous quantifier still ranges over the active domain:
        # exists x TRUE is false on an empty domain.
        plan = Join(plan, AdomGuard())
    return plan


def _lower_forall(f: Forall, seed: Optional[Plan] = None) -> Plan:
    """∀ as division in difference form: base minus the assignments
    under which the body fails, both restricted to the seed rows."""
    out_set = free_variables(f.sub) - set(f.vars)
    if seed is not None:
        out_set |= set(seed.cols)
    out_cols = _sorted_cols(out_set)
    violators = _lower(Exists(f.vars, nnf(f.sub, True)), seed)
    if seed is not None:
        base: Plan = _pad(seed, out_cols)
    elif out_cols:
        base = AdomProduct(out_cols)
    else:
        base = Literal((), [()])
    return Difference(base, violators)


def _lower(f: Formula, seed: Optional[Plan] = None) -> Plan:
    if isinstance(f, And):
        return _lower_and(f.subs, seed)
    if isinstance(f, Or):
        return _lower_or(f.subs, seed)
    if isinstance(f, Exists):
        return _lower_exists(f, seed)
    if isinstance(f, Forall):
        return _lower_forall(f, seed)
    if seed is not None:
        return _lower_and((f,), seed)
    if isinstance(f, Verum):
        return Literal((), [()])
    if isinstance(f, Falsum):
        return Literal((), [])
    if isinstance(f, AtomF):
        return Scan(f.atom)
    if isinstance(f, Eq):
        return _lower_eq(f)
    if isinstance(f, Not):
        return _lower_not(f.sub)
    raise TypeError(f"not a formula: {f!r}")


def compile_formula(
    formula: Formula, free: Optional[Sequence[Variable]] = None
) -> CompiledQuery:
    """Compile a formula to a plan over the given answer columns.

    ``free`` defaults to the formula's free variables in sorted order;
    passing a superset ranges the extra columns over the active domain
    (the same convention as the SQL backend's certain-answer SELECT).
    """
    declared = free_variables(formula)
    if free is None:
        out: Cols = _sorted_cols(declared)
    else:
        out = tuple(free)
        if len(set(out)) != len(out):
            raise CompileError("answer columns must be distinct")
        extra = declared - set(out)
        if extra:
            raise CompileError(
                f"formula has free variables outside the answer columns: "
                f"{sorted(v.name for v in extra)}"
            )
    plan = _pad(_lower(standardize_apart(nnf(formula))), out)
    constants = tuple(sorted({c.value for c in constants_of(formula)}, key=repr))
    if verify_plans_enabled():
        from ..analysis.verifier import verify_plan

        verify_plan(plan, expected_cols=out)
    return CompiledQuery(formula, out, plan, constants)


def verify_plans_enabled() -> bool:
    """Should every compiled plan run the IR verifier?

    Controlled by ``REPRO_VERIFY_PLANS`` — on for any value other than
    ``""``/``0``/``false``/``no``/``off``.  Off by default in
    production (compilation stays allocation-only); tests and CI turn
    it on so every plan the suites compile is checked against the
    PV001–PV013 invariants of :mod:`repro.analysis.verifier`.
    """
    raw = os.environ.get("REPRO_VERIFY_PLANS", "").strip().lower()
    return raw not in ("", "0", "false", "no", "off")


# ----------------------------------------------------------------------
# plan cache
# ----------------------------------------------------------------------


class PlanCache:
    """An LRU cache of :class:`CompiledQuery` objects.

    Keyed on (formula, answer columns, schema signature): re-running the
    same rewriting on databases with the same relation signatures skips
    compilation; a schema change (different arity or key) misses and
    recompiles.  Counters make cache behaviour observable
    (:meth:`stats`), which the engine exposes as its stats hook.

    **Fork safety.**  The cache is plain per-process state: a worker
    forked by :mod:`repro.parallel` inherits a snapshot of the parent's
    entries (so pre-compiled plans are hits with no recompilation), but
    from that point the two caches evolve independently — worker-side
    hits/misses never appear in the parent's :meth:`stats`, and vice
    versa.  The pool ships worker-side counter deltas back with each
    result; they are accumulated under ``worker_plan_cache`` in the
    ``parallel`` section of ``engine.metrics()``.
    """

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_entries")

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict" = OrderedDict()

    @staticmethod
    def _signature(formula: Formula, db: Database) -> Tuple:
        sig: List[Tuple] = []
        for name in sorted(relations_of(formula)):
            schema = db.schemas.get(name)
            if schema is None:
                sig.append((name, None))
            else:
                sig.append((name, schema.arity, schema.key_size))
        return tuple(sig)

    def get_or_compile(
        self,
        formula: Formula,
        db: Database,
        free: Optional[Sequence[Variable]] = None,
    ) -> CompiledQuery:
        """The cached plan for (formula, free, db-schema), compiling on miss."""
        out = tuple(free) if free is not None else _sorted_cols(free_variables(formula))
        key = (formula, out, self._signature(formula, db))
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        entry = compile_formula(formula, out)
        self._entries[key] = entry
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
        return entry

    def stats(self) -> Dict[str, int]:
        """Counters hook: hits/misses/evictions and current size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._entries),
            "maxsize": self.maxsize,
        }

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._entries.clear()
        self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)


#: The process-wide default cache used by the certainty engine.
plan_cache = PlanCache()

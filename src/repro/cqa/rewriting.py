"""Construction of consistent first-order rewritings (Lemma 6.1 / Algorithm 1).

Given q ∈ sjfBCQ¬ with weakly-guarded negation and an acyclic attack
graph, this module builds a first-order sentence φ such that for every
database **db**:   db ⊨ φ  ⟺  every repair of db satisfies q.

The recursion follows the proof of Lemma 6.1:

1. *Base case.*  Every atom is all-key: any database is consistent on
   those relations, so the rewriting is the query itself as an FO
   sentence.
2. *Reification* (Corollary 6.9).  Pick an unattacked, non-all-key atom
   F (one exists: all-key atoms have no outgoing attacks, so a source of
   the sub-DAG of non-all-key atoms has no incoming edge at all).  Its
   key variables are unattacked, hence reifiable: replace them by fresh
   placeholder constants, rewrite, then re-open the placeholders under
   an existential quantifier.
3. *Elimination of an atom with variable-free primary key.*
   - F ∈ q⁻ with vars(F) = ∅: rewrite(q \\ {¬F}) ∧ ¬F (Lemma 6.2).
   - F ∈ q⁻ with variables in its value positions (Lemma 6.5): the
     rewriting of q \\ {¬F} conjoined with, for every fact R(a⃗, z⃗) in
     F's block, the rewriting of q \\ {¬F} extended with the
     disequality z⃗ ≠ s⃗ — carried natively on the query object (the
     formal translation to a fresh all-key ¬E atom of Lemma 6.6 lives
     in :mod:`repro.reductions.diseq`).
   - F ∈ q⁺: the block of F's (ground) key must be non-empty, and every
     fact in it must match F's value pattern and make the rest of the
     query certain.

Disequality constraints behave as negated all-key pseudo-atoms: they are
never picked, never attack, and are emitted at the base case.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from ..core.atoms import Atom
from ..core.attack_graph import AttackGraph, attack_graph
from ..core.classify import Verdict, classify
from ..core.query import Diseq, Query
from ..core.terms import PlaceholderConstant, Variable, is_variable
from ..fo.formula import (
    AtomF,
    Eq,
    Formula,
    implies,
    make_and,
    make_exists,
    make_forall,
    make_not,
    make_or,
    substitute_terms,
)
from ..fo.simplify import simplify_fixpoint


class NotInFO(ValueError):
    """Raised when asked to rewrite a query with no FO rewriting.

    Carries the lint diagnostics (``QL002``/``QL004``, see
    :mod:`repro.lint`) that explain *why* Theorem 4.3 withholds the
    rewriting, so callers get a coded, span-capable explanation instead
    of a deep traceback.
    """

    def __init__(self, message: str, diagnostics: Tuple = ()):
        super().__init__(message)
        self.diagnostics = tuple(diagnostics)


class RewritingError(RuntimeError):
    """Raised on internal invariant violations (should not happen)."""


def pick_eliminable_atom(query: Query, graph: Optional[AttackGraph] = None) -> Atom:
    """An unattacked, non-all-key atom of q⁺ ∪ q⁻ (Algorithm 1's pick).

    Deterministic: the first such atom in query order (positives first).
    Raises :class:`RewritingError` when none exists, which cannot happen
    for acyclic attack graphs with at least one non-all-key atom.  Reads
    the query's shared :func:`~repro.core.attack_graph.attack_graph`
    unless a *graph* is given.
    """
    graph = graph or attack_graph(query)
    for a in query.atoms:
        if not a.is_all_key and not graph.predecessors(a):
            return a
    raise RewritingError(
        "no unattacked non-all-key atom; is the attack graph cyclic?"
    )


class RewritingStep:
    """One step of Algorithm 1's recursion, for tracing/pedagogy."""

    __slots__ = ("action", "atom", "query", "depth")

    def __init__(self, action: str, atom: Optional[Atom], query: Query,
                 depth: int):
        self.action = action
        self.atom = atom
        self.query = query
        self.depth = depth

    def render(self) -> str:
        pad = "  " * self.depth
        subject = f" {self.atom!r}" if self.atom is not None else ""
        return f"{pad}{self.action}{subject}   on {self.query!r}"

    def __repr__(self) -> str:
        return f"RewritingStep({self.action!r}, {self.atom!r})"


class Rewriter:
    """Builds the consistent first-order rewriting of one query.

    With ``trace=True`` the recursion records a :class:`RewritingStep`
    for every base case, reification, and elimination, exposing how
    Algorithm 1 dismantles the query.
    """

    def __init__(self, query: Query, trace: bool = False):
        self.query = query
        self._fresh = itertools.count()
        self.trace_enabled = trace
        self.trace: List[RewritingStep] = []
        self._depth = 0
        for v in query.vars:
            if v.name.startswith("_z") or v.name.startswith("_k"):
                raise ValueError(
                    f"variable name {v.name!r} collides with rewriter-internal names"
                )

    def _record(self, action: str, atom: Optional[Atom], q: Query) -> None:
        if self.trace_enabled:
            self.trace.append(RewritingStep(action, atom, q, self._depth))

    def rewrite(self, simplify: bool = True) -> Formula:
        """The consistent first-order rewriting of the query.

        Raises :class:`NotInFO` when Theorem 4.3 says no rewriting
        exists, and when the query is outside the theorem's scope
        (negation not weakly guarded).
        """
        verdict = classify(self.query)
        if verdict.verdict is not Verdict.IN_FO:
            from ..lint import lint_query

            errors = lint_query(self.query).errors
            detail = "; ".join(d.one_line() for d in errors) or verdict.reason
            raise NotInFO(
                f"CERTAINTY(q) has no consistent first-order rewriting by "
                f"Theorem 4.3: {detail}",
                diagnostics=errors,
            )
        formula = self._rw(self.query)
        return simplify_fixpoint(formula) if simplify else formula

    # ------------------------------------------------------------------

    def _fresh_var(self, prefix: str) -> Variable:
        return Variable(f"_{prefix}{next(self._fresh)}")

    def _rw(self, q: Query) -> Formula:
        if q.all_atoms_all_key:
            self._record("base case (all atoms all-key)", None, q)
            return self._base_case(q)
        f = pick_eliminable_atom(q)
        self._depth += 1
        try:
            if f.key_vars:
                self._record("reify key of", f, q)
                return self._reify(q, f)
            if q.is_negative(f):
                self._record("eliminate negated", f, q)
                return self._eliminate_negative(q, f)
            self._record("eliminate positive", f, q)
            return self._eliminate_positive(q, f)
        finally:
            self._depth -= 1

    def _base_case(self, q: Query) -> Formula:
        parts: List[Formula] = [AtomF(a) for a in q.positives]
        parts += [make_not(AtomF(a)) for a in q.negatives]
        parts += [self._diseq_formula(d) for d in q.diseqs]
        return make_exists(sorted(q.vars), make_and(parts))

    @staticmethod
    def _diseq_formula(d: Diseq) -> Formula:
        return make_or([make_not(Eq(lhs, rhs)) for lhs, rhs in d.pairs])

    def _reify(self, q: Query, f: Atom) -> Formula:
        """Corollary 6.9: existentially quantify the unattacked key vars."""
        key_vars = sorted(f.key_vars)
        mapping = {x: PlaceholderConstant(x) for x in key_vars}
        sub = self._rw(q.substitute(mapping))
        opened = substitute_terms(sub, {p: x for x, p in mapping.items()})
        return make_exists(key_vars, opened)

    def _eliminate_negative(self, q: Query, f: Atom) -> Formula:
        """Lemmas 6.2 and 6.5: drop ¬F, quantifying over its block."""
        q1 = q.without(f)
        psi = self._rw(q1)
        if not f.vars:
            return make_and([psi, make_not(AtomF(f))])
        value_terms = f.value_terms
        zs = [self._fresh_var("z") for _ in value_terms]
        placeholders = [PlaceholderConstant(z) for z in zs]
        diseq = Diseq(tuple(zip(placeholders, value_terms)))
        phi = self._rw(q1.with_diseq(diseq))
        opened = substitute_terms(phi, dict(zip(placeholders, zs)))
        guard = AtomF(Atom(f.schema, f.key_terms + tuple(zs)))
        return make_and([psi, make_forall(zs, implies(guard, opened))])

    def _eliminate_positive(self, q: Query, f: Atom) -> Formula:
        """The q⁺ case of Lemma 6.1: the (ground-key) block of F must be
        non-empty and every fact in it must match F's value pattern and
        make the rest of the query certain."""
        q1 = q.without(f)
        value_terms = f.value_terms
        zs = [self._fresh_var("z") for _ in value_terms]

        pattern_eqs: List[Formula] = []
        var_to_z: Dict[Variable, Variable] = {}
        for z, t in zip(zs, value_terms):
            if is_variable(t):
                if t in var_to_z:
                    pattern_eqs.append(Eq(z, var_to_z[t]))
                else:
                    var_to_z[t] = z
            else:
                pattern_eqs.append(Eq(z, t))

        mapping = {y: PlaceholderConstant(y) for y in var_to_z}
        phi = self._rw(q1.substitute(mapping))
        opened = substitute_terms(
            phi, {p: var_to_z[y] for y, p in mapping.items()}
        )
        guard = AtomF(Atom(f.schema, f.key_terms + tuple(zs)))
        exists_part = make_exists(zs, guard)
        forall_part = make_forall(
            zs, implies(guard, make_and(pattern_eqs + [opened]))
        )
        return make_and([exists_part, forall_part])


def consistent_rewriting(query: Query, simplify: bool = True) -> Formula:
    """The consistent first-order rewriting of *query* (Theorem 4.3(2))."""
    return Rewriter(query).rewrite(simplify=simplify)


def has_consistent_rewriting(query: Query) -> bool:
    """Does Theorem 4.3 grant a consistent FO rewriting for *query*?"""
    return classify(query).verdict is Verdict.IN_FO

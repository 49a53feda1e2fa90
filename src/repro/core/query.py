"""Self-join-free Boolean conjunctive queries with negated atoms.

A query in sjfBCQ¬ is a set of literals

    q = {F_1, ..., F_l, ¬F_{l+1}, ..., ¬F_m}

subject to *self-join-freeness* (no two atoms share a relation name) and
*safety* (every variable of a negated atom occurs in a positive atom).

This module also implements the extension sjfBCQ¬≠ of Definition 6.3:
queries may carry disequality constraints ``v⃗ ≠ c⃗``, generalized here to
``Diseq`` constraints over arbitrary term sequences (the rewriting of
Lemma 6.1 compares universally quantified tuple positions against the
value terms of an eliminated atom, which may contain constants and
repeated variables).
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Tuple

from .atoms import Atom
from .terms import Term, Variable, _state_without_hash, is_variable, variables_of


class QueryError(ValueError):
    """Raised when a query violates a structural requirement."""


class Diseq:
    """A disequality constraint: NOT (lhs_1 = rhs_1 AND ... AND lhs_k = rhs_k).

    Definition 6.3 writes this as ``v⃗ ≠ c⃗`` with ``v⃗`` distinct
    variables and ``c⃗`` constants; the rewriting construction needs the
    slightly more general pairwise form, which we support directly.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[Tuple[Term, Term]]):
        pairs = tuple((lhs, rhs) for lhs, rhs in pairs)
        if not pairs:
            raise QueryError("a disequality needs at least one pair")
        self.pairs = pairs

    @property
    def vars(self) -> frozenset:
        """All variables occurring on either side."""
        terms = [t for pair in self.pairs for t in pair]
        return variables_of(terms)

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Diseq":
        """Apply a substitution to both sides of every pair."""
        def sub(t: Term) -> Term:
            return mapping.get(t, t) if is_variable(t) else t

        return Diseq(tuple((sub(lhs), sub(rhs)) for lhs, rhs in self.pairs))

    @property
    def is_ground(self) -> bool:
        """True when no variables remain."""
        return not self.vars

    def ground_value(self) -> bool:
        """Evaluate a ground disequality: True iff some pair differs."""
        if not self.is_ground:
            raise QueryError(f"disequality {self} is not ground")
        return any(lhs != rhs for lhs, rhs in self.pairs)

    def __repr__(self) -> str:
        lhs = ",".join(str(pair[0]) for pair in self.pairs)
        rhs = ",".join(str(pair[1]) for pair in self.pairs)
        return f"({lhs}) != ({rhs})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Diseq) and self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(("Diseq", self.pairs))


class Query:
    """A query in sjfBCQ¬ (optionally with disequalities: sjfBCQ¬≠).

    Attributes
    ----------
    positives:
        q⁺, the tuple of non-negated atoms, in a fixed order.
    negatives:
        q⁻, the tuple of atoms occurring negated.
    diseqs:
        the disequality constraints (empty for plain sjfBCQ¬).
    """

    __slots__ = ("positives", "negatives", "diseqs", "_vars", "_hash")

    def __init__(
        self,
        positives: Iterable[Atom] = (),
        negatives: Iterable[Atom] = (),
        diseqs: Iterable[Diseq] = (),
        check_safety: bool = True,
    ):
        self.positives = tuple(positives)
        self.negatives = tuple(negatives)
        self.diseqs = tuple(diseqs)
        self._vars: Optional[frozenset] = None

        names = [a.relation for a in self.atoms]
        if len(names) != len(set(names)):
            raise QueryError(f"query has a self-join: relation names {names}")
        if check_safety and not self.is_safe:
            raise QueryError(
                "query violates the safety condition: every variable of a "
                "negated atom (or disequality) must occur in a positive atom"
            )

    # ------------------------------------------------------------------
    # structural views
    # ------------------------------------------------------------------

    @property
    def atoms(self) -> Tuple[Atom, ...]:
        """q⁺ ∪ q⁻ as a tuple (positives first)."""
        return self.positives + self.negatives

    @property
    def vars(self) -> frozenset:
        """vars(q): all variables occurring in the query."""
        if self._vars is None:
            vs = frozenset()
            for a in self.atoms:
                vs |= a.vars
            for d in self.diseqs:
                vs |= d.vars
            self._vars = vs
        return self._vars

    @property
    def positive_vars(self) -> frozenset:
        """Variables occurring in some positive atom."""
        vs = frozenset()
        for a in self.positives:
            vs |= a.vars
        return vs

    @property
    def relations(self) -> Tuple[str, ...]:
        """All relation names mentioned by the query."""
        return tuple(a.relation for a in self.atoms)

    @property
    def is_safe(self) -> bool:
        """Safety: vars of negated atoms and disequalities occur positively."""
        pos = self.positive_vars
        for a in self.negatives:
            if not a.vars <= pos:
                return False
        for d in self.diseqs:
            if not d.vars <= pos:
                return False
        return True

    @property
    def is_boolean(self) -> bool:
        """All queries in this library are Boolean (no free variables)."""
        return True

    def is_positive(self, a: Atom) -> bool:
        """True when *a* occurs non-negated in the query."""
        return a in self.positives

    def is_negative(self, a: Atom) -> bool:
        """True when *a* occurs negated in the query."""
        return a in self.negatives

    def atom_for(self, relation: str) -> Atom:
        """The unique atom with the given relation name."""
        for a in self.atoms:
            if a.relation == relation:
                return a
        raise KeyError(f"no atom with relation name {relation!r}")

    # ------------------------------------------------------------------
    # guardedness (Section 3)
    # ------------------------------------------------------------------

    def _pairs_coexist_positively(self, terms_vars: frozenset) -> bool:
        vars_list = sorted(terms_vars)
        for i, x in enumerate(vars_list):
            for y in vars_list[i:]:
                if not any(
                    x in p.vars and y in p.vars for p in self.positives
                ):
                    return False
        return True

    @property
    def has_guarded_negation(self) -> bool:
        """Guarded: for every N ∈ q⁻ some P ∈ q⁺ has vars(N) ⊆ vars(P)."""
        for n in self.negatives:
            if not any(n.vars <= p.vars for p in self.positives):
                return False
        return True

    @property
    def has_weakly_guarded_negation(self) -> bool:
        """Weakly guarded: co-occurring variables of a negated atom (or
        disequality, Definition 6.3) co-occur in some positive atom."""
        for n in self.negatives:
            if not self._pairs_coexist_positively(n.vars):
                return False
        for d in self.diseqs:
            if not self._pairs_coexist_positively(d.vars):
                return False
        return True

    # ------------------------------------------------------------------
    # rewriting helpers
    # ------------------------------------------------------------------

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Query":
        """q_[x⃗ ↦ c⃗]: replace variables throughout the query.

        Safety is not re-checked: substituting constants can only remove
        variables, which preserves safety.
        """
        return Query(
            tuple(a.substitute(mapping) for a in self.positives),
            tuple(a.substitute(mapping) for a in self.negatives),
            tuple(d.substitute(mapping) for d in self.diseqs),
            check_safety=False,
        )

    def without(self, atom_obj: Atom) -> "Query":
        """The query q \\ {F, ¬F}: drop the literal for *atom_obj*."""
        return Query(
            tuple(a for a in self.positives if a != atom_obj),
            tuple(a for a in self.negatives if a != atom_obj),
            self.diseqs,
            check_safety=False,
        )

    def with_diseq(self, d: Diseq) -> "Query":
        """Add a disequality constraint."""
        return Query(
            self.positives, self.negatives, self.diseqs + (d,), check_safety=False
        )

    def without_diseq(self, d: Diseq) -> "Query":
        """Drop one disequality constraint."""
        rest = list(self.diseqs)
        rest.remove(d)
        return Query(self.positives, self.negatives, tuple(rest), check_safety=False)

    @property
    def all_atoms_all_key(self) -> bool:
        """Base case of Algorithm 1: every atom of q⁺ ∪ q⁻ is all-key."""
        return all(a.is_all_key for a in self.atoms)

    @property
    def non_all_key_count(self) -> int:
        """α(q): the number of atoms that are not all-key (Lemma 6.1)."""
        return sum(1 for a in self.atoms if not a.is_all_key)

    def __repr__(self) -> str:
        parts = [repr(a) for a in self.positives]
        parts += [f"~{a!r}" for a in self.negatives]
        parts += [repr(d) for d in self.diseqs]
        return "{" + ", ".join(parts) + "}"

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, Query)
            and self.positives == other.positives
            and self.negatives == other.negatives
            and self.diseqs == other.diseqs
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.positives, self.negatives, self.diseqs))
            return self._hash

    __getstate__ = _state_without_hash

"""The decision procedure of Theorem 4.3.

Given q ∈ sjfBCQ¬ with weakly-guarded negation:

* attack graph acyclic  → CERTAINTY(q) is in FO (a consistent
  first-order rewriting exists and can be constructed);
* attack graph cyclic   → CERTAINTY(q) is L-hard, hence not in FO.
  By Lemma 4.9 a cyclic attack graph contains a cycle of length two;
  depending on how many of the two atoms are negated, hardness follows
  from Lemma 5.5 (zero, L-hard), Lemma 5.6 (one, NL-hard), or Lemma 5.7
  (two, L-hard).

When negation is not weakly guarded the dichotomy does not apply
(Section 7): acyclicity is neither necessary nor sufficient.  The
classifier still reports NOT_IN_FO when a two-cycle involves at least one
positive atom, because Lemmas 5.5 and 5.6 do not use the weak-guardedness
hypothesis; everything else is reported as UNDECIDED.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from .attack_graph import AttackGraph, attack_graph
from .atoms import Atom
from .query import Query


class Verdict(enum.Enum):
    """Outcome of the classification."""

    IN_FO = "in FO"
    NOT_IN_FO = "not in FO"
    UNDECIDED = "undecided (negation not weakly guarded)"


class Hardness(enum.Enum):
    """Lower bound witnessed by the classifier's certificate."""

    NONE = "none"
    L_HARD = "L-hard"
    NL_HARD = "NL-hard"


@dataclass(frozen=True)
class Classification:
    """Full result of classifying a query.

    Attributes
    ----------
    query: the classified query.
    verdict: IN_FO, NOT_IN_FO, or UNDECIDED.
    hardness: the lower bound certified when not in FO.
    weakly_guarded: whether negation in the query is weakly guarded.
    guarded: whether negation in the query is guarded.
    acyclic: whether the attack graph is acyclic.
    cycle: a directed cycle of the attack graph, when one exists.
    two_cycle: a two-cycle, when one exists (Lemma 4.9 guarantees one
        for cyclic weakly-guarded queries).
    reason: human-readable justification naming the lemma applied.
    """

    query: Query
    verdict: Verdict
    hardness: Hardness
    weakly_guarded: bool
    guarded: bool
    acyclic: bool
    cycle: Optional[Tuple[Atom, ...]] = None
    two_cycle: Optional[Tuple[Atom, Atom]] = None
    reason: str = ""

    @property
    def in_fo(self) -> bool:
        """Convenience: True exactly when the verdict is IN_FO."""
        return self.verdict is Verdict.IN_FO


def _negated_count(query: Query, pair: Tuple[Atom, Atom]) -> int:
    return sum(1 for a in pair if query.is_negative(a))


def classify(query: Query, graph: Optional[AttackGraph] = None) -> Classification:
    """Decide membership of CERTAINTY(q) in FO per Theorem 4.3.

    Reads the query's shared :func:`~repro.core.attack_graph.attack_graph`
    unless a *graph* is given.
    """
    graph = graph or attack_graph(query)
    wg = query.has_weakly_guarded_negation
    guarded = query.has_guarded_negation
    cycle = graph.find_cycle()
    two_cycle = graph.find_two_cycle()

    if cycle is None:
        if wg:
            return Classification(
                query, Verdict.IN_FO, Hardness.NONE, wg, guarded, True,
                reason="attack graph acyclic and negation weakly guarded "
                       "(Theorem 4.3(2) / Lemma 6.1)",
            )
        return Classification(
            query, Verdict.UNDECIDED, Hardness.NONE, wg, guarded, True,
            reason="attack graph acyclic but negation not weakly guarded; "
                   "acyclicity is not sufficient beyond weak guardedness "
                   "(Section 7)",
        )

    if wg:
        # Lemma 4.9: a two-cycle must exist.
        assert two_cycle is not None, "Lemma 4.9 violated: cyclic but no 2-cycle"
        negated = _negated_count(query, two_cycle)
        if negated == 0:
            hardness, lemma = Hardness.L_HARD, "Lemma 5.5"
        elif negated == 1:
            hardness, lemma = Hardness.NL_HARD, "Lemma 5.6"
        else:
            hardness, lemma = Hardness.L_HARD, "Lemma 5.7"
        return Classification(
            query, Verdict.NOT_IN_FO, hardness, wg, guarded, False,
            cycle=cycle, two_cycle=two_cycle,
            reason=f"attack graph has a 2-cycle with {negated} negated "
                   f"atom(s): {hardness.value} by {lemma}",
        )

    # Not weakly guarded: Lemmas 5.5 and 5.6 still apply to two-cycles
    # containing at least one positive atom (Section 7).
    if two_cycle is not None:
        negated = _negated_count(query, two_cycle)
        if negated == 0:
            return Classification(
                query, Verdict.NOT_IN_FO, Hardness.L_HARD, wg, guarded, False,
                cycle=cycle, two_cycle=two_cycle,
                reason="2-cycle of positive atoms: L-hard by Lemma 5.5 "
                       "(no weak-guardedness needed)",
            )
        if negated == 1:
            return Classification(
                query, Verdict.NOT_IN_FO, Hardness.NL_HARD, wg, guarded, False,
                cycle=cycle, two_cycle=two_cycle,
                reason="2-cycle with one negated atom: NL-hard by Lemma 5.6 "
                       "(no weak-guardedness needed)",
            )
    return Classification(
        query, Verdict.UNDECIDED, Hardness.NONE, wg, guarded, False,
        cycle=cycle, two_cycle=two_cycle,
        reason="cyclic attack graph, negation not weakly guarded, and no "
               "applicable hardness lemma; cyclicity is not necessary for "
               "hardness beyond weak guardedness (Example 7.1)",
    )

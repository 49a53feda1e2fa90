"""One-stop structural analysis of a query.

Collects everything the paper's machinery computes about a query —
guardedness, the F⊕ closures, attacked-variable sets with witnesses,
the attack graph with its cycle or topological order, the Theorem 4.3
verdict, and (when in FO) rewriting statistics — into a single
renderable report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .attack_graph import attack_graph, attack_witness
from .classify import Classification, classify
from .fds import oplus
from .query import Query


@dataclass
class AtomAnalysis:
    """Per-atom structural facts."""

    relation: str
    negated: bool
    all_key: bool
    key_vars: Tuple[str, ...]
    oplus_vars: Tuple[str, ...]
    attacked_vars: Tuple[str, ...]
    witnesses: Dict[str, Tuple[str, ...]]


@dataclass
class QueryAnalysis:
    """The full report for one query."""

    query: Query
    safe: bool
    guarded: bool
    weakly_guarded: bool
    atoms: List[AtomAnalysis]
    edges: List[Tuple[str, str]]
    classification: Classification
    cycle: Optional[Tuple[str, ...]]
    topological_order: Optional[Tuple[str, ...]]
    rewriting_stats: Optional[dict] = None

    def render(self) -> str:
        lines = [f"query: {self.query}"]
        lines.append(
            f"safe: {self.safe}   guarded: {self.guarded}   "
            f"weakly guarded: {self.weakly_guarded}"
        )
        lines.append("atoms:")
        for a in self.atoms:
            polarity = "negated " if a.negated else "positive"
            key = ",".join(a.key_vars) or "(ground)"
            lines.append(
                f"  {a.relation:12s} {polarity}  key vars: {key:12s} "
                f"F+: {{{','.join(a.oplus_vars)}}}  "
                f"attacks: {{{','.join(a.attacked_vars)}}}"
            )
            for target, witness in sorted(a.witnesses.items()):
                lines.append(
                    f"      witness {a.relation}|{witness[0]} ~> {target}: "
                    f"({', '.join(witness)})"
                )
        edge_text = ", ".join(f"{f}->{g}" for f, g in self.edges) or "none"
        lines.append(f"attack edges: {edge_text}")
        if self.cycle is not None:
            lines.append(f"cycle: {' -> '.join(self.cycle)} -> {self.cycle[0]}")
        if self.topological_order is not None:
            lines.append(
                "elimination order: " + " , ".join(self.topological_order)
            )
        lines.append(f"verdict: {self.classification.verdict.value}")
        lines.append(f"reason: {self.classification.reason}")
        if self.rewriting_stats is not None:
            s = self.rewriting_stats
            extra = ""
            if "negations" in s:
                extra = (
                    f", {s['negations']} negation(s), "
                    f"widest OR {s['max_or_width']}"
                )
            lines.append(
                f"rewriting: {s['nodes']} nodes, {s['atoms']} atoms, "
                f"{s['quantifiers']} quantifiers, depth {s['depth']}"
                f"{extra}"
            )
        return "\n".join(lines)


def analyze(query: Query, include_rewriting: bool = True) -> QueryAnalysis:
    """Compute the full structural report for *query*."""
    graph = attack_graph(query)
    atoms: List[AtomAnalysis] = []
    for a in query.atoms:
        attacked = graph.attacked_vars(a)
        witnesses: Dict[str, Tuple[str, ...]] = {}
        for v in sorted(attacked):
            w = attack_witness(query, a, v)
            if w is not None:
                witnesses[v.name] = tuple(u.name for u in w)
        atoms.append(AtomAnalysis(
            relation=a.relation,
            negated=query.is_negative(a),
            all_key=a.is_all_key,
            key_vars=tuple(sorted(v.name for v in a.key_vars)),
            oplus_vars=tuple(sorted(v.name for v in oplus(query, a))),
            attacked_vars=tuple(sorted(v.name for v in attacked)),
            witnesses=witnesses,
        ))

    classification = classify(query, graph)
    cycle = graph.find_cycle()
    analysis = QueryAnalysis(
        query=query,
        safe=query.is_safe,
        guarded=query.has_guarded_negation,
        weakly_guarded=query.has_weakly_guarded_negation,
        atoms=atoms,
        edges=sorted((f.relation, g.relation) for f, g in graph.edges),
        classification=classification,
        cycle=tuple(a.relation for a in cycle) if cycle else None,
        topological_order=(
            tuple(a.relation for a in graph.topological_order())
            if cycle is None else None
        ),
    )
    if include_rewriting and classification.in_fo:
        from ..cqa.rewriting import consistent_rewriting
        from ..fo.stats import stats

        s = stats(consistent_rewriting(query))
        analysis.rewriting_stats = {
            "nodes": s.nodes,
            "atoms": s.atoms,
            "quantifiers": s.quantifiers,
            "depth": s.quantifier_depth,
            "negations": s.negations,
            "max_or_width": s.max_or_width,
        }
    return analysis

"""repro — Consistent Query Answering for Primary Keys and Conjunctive
Queries with Negated Atoms (Koutris & Wijsen, PODS 2018).

Quickstart
----------

>>> from repro import atom, Query, Variable, classify
>>> x, y = Variable("x"), Variable("y")
>>> q = Query([atom("R", [x], [y])], [atom("N", [x], [y])])
>>> classify(q).in_fo
True

Public surface:

* ``repro.core`` — atoms, queries, attack graphs, the Theorem 4.3
  classifier;
* ``repro.db`` — inconsistent databases, blocks, repairs, sqlite;
* ``repro.fo`` — first-order formulas, evaluation, SQL compilation;
* ``repro.cqa`` — consistent FO rewritings (Algorithm 1) and the
  certainty engine;
* ``repro.incremental`` — delta-maintained materialized certain-answer
  views over the plan IR;
* ``repro.obs`` — structured tracing, per-operator plan profiling, and
  the unified :class:`EngineMetrics` API;
* ``repro.matching`` — Hopcroft–Karp, Hall's theorem, S-COVERING;
* ``repro.reductions`` — the paper's hardness reductions, executable;
* ``repro.workloads`` — canonical queries and synthetic databases;
* ``repro.experiments`` — drivers regenerating every paper artifact.
"""

from .core import (
    Atom,
    AttackGraph,
    Classification,
    Constant,
    Diseq,
    Hardness,
    Query,
    QueryError,
    RelationSchema,
    Variable,
    Verdict,
    analyze,
    atom,
    classify,
    make_variables,
    parse_query,
    query_to_text,
)
from .cqa import (
    CertaintyEngine,
    NotInFO,
    certain,
    consistent_rewriting,
    has_consistent_rewriting,
    is_certain,
    is_certain_brute_force,
)
from .db import Database, database_from_facts, iter_repairs, satisfies
from .incremental import View, ViewManager, view_manager, view_stats
from .obs import EngineMetrics, PlanProfile, Tracer, collect_metrics

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "AttackGraph",
    "CertaintyEngine",
    "Classification",
    "Constant",
    "Database",
    "Diseq",
    "EngineMetrics",
    "Hardness",
    "NotInFO",
    "PlanProfile",
    "Query",
    "QueryError",
    "RelationSchema",
    "Tracer",
    "Variable",
    "Verdict",
    "View",
    "ViewManager",
    "analyze",
    "atom",
    "certain",
    "classify",
    "collect_metrics",
    "consistent_rewriting",
    "database_from_facts",
    "has_consistent_rewriting",
    "is_certain",
    "is_certain_brute_force",
    "iter_repairs",
    "make_variables",
    "parse_query",
    "query_to_text",
    "satisfies",
    "view_manager",
    "view_stats",
]

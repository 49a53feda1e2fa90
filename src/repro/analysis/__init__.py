"""Static analysis of compiled plans: verification, cost, QP-rules.

The :mod:`repro.lint` package checks *queries* before anything runs;
this package checks the artifacts the engine derives from them:

* :mod:`repro.analysis.verifier` — a plan-IR verifier walking every
  :mod:`repro.fo.plan` operator tree and checking the schema, arity and
  column-provenance invariants the four execution tiers rely on
  (coded :class:`PlanInvariantError`\\ s, ``PV001``–``PV013``).  Run
  automatically after every compilation under ``REPRO_VERIFY_PLANS=1``
  (on in tests and CI) and on demand via ``repro plan --check``.
* :mod:`repro.analysis.cost` — a static cost estimator over the plan
  IR: per-operator cardinality model from relation cardinalities,
  join-order ranking, and rewriting-size statistics from
  :mod:`repro.fo.stats`.
* :mod:`repro.analysis.rules` — the QP100-series performance rule
  registry, reusing the linter's Diagnostic/RuleInfo machinery:
  static warnings for guaranteed parallel serial fallbacks, Adom*
  plans only the row executor runs, cartesian products, bad join
  orders, brute-force routing of non-FO queries, and
  plan-cache-unfriendly constants.
* :mod:`repro.analysis.report` — ``analyze_text``/``analyze_query``
  building the unified :class:`AnalysisReport` behind the
  ``repro analyze`` CLI (text/JSON/GitHub-annotation renderings,
  pinned by ``docs/diagnostics.schema.json``).

See ``docs/ANALYSIS.md`` for the invariant and cost-model catalogue
and ``docs/LINTING.md`` for the QP rule catalogue.
"""

from .cost import CostModel, CostReport, NodeEstimate, TableStats, table_stats
from .report import AnalysisReport, analyze_query, analyze_text
from .rules import QP_RULES, AnalysisContext, qp_rule, run_qp_rules
from .verifier import (
    PlanInvariantError,
    VerificationReport,
    plan_uses_adom,
    verification_report,
    verify_compiled,
    verify_plan,
)

__all__ = [
    "AnalysisContext",
    "AnalysisReport",
    "CostModel",
    "CostReport",
    "NodeEstimate",
    "PlanInvariantError",
    "QP_RULES",
    "TableStats",
    "VerificationReport",
    "analyze_query",
    "analyze_text",
    "plan_uses_adom",
    "qp_rule",
    "run_qp_rules",
    "table_stats",
    "verification_report",
    "verify_compiled",
    "verify_plan",
]

"""The performance rules, QP100–QP112.

Where the QL-rules of :mod:`repro.lint.rules` check *admissibility*
(will the paper's machinery accept this query at all), the QP-rules
predict *execution behaviour*: which of the engine's four tiers a
query will actually reach, and what it will cost to get there.  Every
rule is decidable from the query text, its classification and its
compiled plan — nothing here runs the query.

========  ========  =====================================================
code      severity  meaning
========  ========  =====================================================
QP100     error     compiled plan fails the IR verifier (engine bug)
QP101     info      Boolean query: parallel execution falls back serial
QP102     warning   no answer variable at a key position: cannot shard
QP103     warning   plan touches Adom*: only the row executor runs it
QP105     warning   cartesian product in the compiled plan
QP106     warning   join order ≥ X times the estimated best order
QP107     warning   not in FO: certainty runs the brute-force path
QP108     hint      constants in the query defeat plan-cache reuse
QP111     warning   WAL grew past the checkpoint threshold uncompacted
QP112     hint      constants/DDL defeat the SQL statement cache
========  ========  =====================================================

Rules are registered with the :func:`qp_rule` decorator into
:data:`QP_RULES`, the machine-readable catalogue behind
``docs/LINTING.md``; the Diagnostic/Severity machinery is the
linter's own, so QP findings merge, dedupe and sort uniformly with
QL findings in an :class:`~repro.analysis.report.AnalysisReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from ..core.classify import Classification
from ..core.query import Query
from ..core.terms import Constant, Variable
from ..db.database import Database
from ..lint.context import LintContext
from ..lint.diagnostics import Diagnostic, RuleInfo, Severity
from .cost import CostReport
from .verifier import VerificationReport, plan_uses_adom

__all__ = [
    "QP_RULES",
    "AnalysisContext",
    "JOIN_ORDER_THRESHOLD",
    "qp_rule",
    "run_qp_rules",
]

#: QP106 fires when a join subtree costs at least this many times the
#: model's best order for the same generators.
JOIN_ORDER_THRESHOLD = 4.0

PAPER = "Koutris and Wijsen, PODS 2018"
TRICHOTOMY = (
    "Koutris and Wijsen, A Trichotomy in the Data Complexity of "
    "Certain Query Answering for Conjunctive Queries"
)


@dataclass
class AnalysisContext:
    """Everything the QP checkers may inspect about one analysis run.

    Later stages are optional: ``classification`` is None when the
    query did not build, ``compiled``/``verification``/``cost`` are
    None when the query is not in FO (nothing compiles), ``db`` is
    None for a database-free analysis (the cost model then uses
    textbook defaults).
    """

    lint_ctx: Optional[LintContext] = None
    query: Optional[Query] = None
    free: Tuple[Variable, ...] = ()
    classification: Optional[Classification] = None
    compiled: Optional[object] = None  # fo.compile.CompiledQuery
    verification: Optional[VerificationReport] = None
    cost: Optional[CostReport] = None
    db: Optional[Database] = None

    @property
    def in_fo(self) -> bool:
        return (self.classification is not None
                and self.classification.in_fo)

    @property
    def plan(self):
        return self.compiled.plan if self.compiled is not None else None


Checker = Callable[[RuleInfo, AnalysisContext], Iterable[Diagnostic]]

QP_RULES: Dict[str, RuleInfo] = {}
_CHECKERS: List[Tuple[RuleInfo, Checker]] = []


def qp_rule(
    code: str,
    name: str,
    severity: Severity,
    summary: str,
    citation: str = "",
) -> Callable[[Checker], Checker]:
    """Register a performance rule under a stable diagnostic code."""
    info = RuleInfo(code, name, severity, summary, citation)
    if code in QP_RULES:
        raise ValueError(f"duplicate rule code {code}")
    QP_RULES[code] = info

    def decorate(checker: Checker) -> Checker:
        _CHECKERS.append((info, checker))
        return checker

    return decorate


def run_qp_rules(ctx: AnalysisContext) -> List[Diagnostic]:
    """Run every registered QP checker over the context."""
    diagnostics: List[Diagnostic] = []
    for info, checker in _CHECKERS:
        diagnostics.extend(checker(info, ctx))
    return diagnostics


# ----------------------------------------------------------------------
# plan integrity
# ----------------------------------------------------------------------


@qp_rule(
    "QP100",
    "plan-verification-failed",
    Severity.ERROR,
    "the compiled plan violates a plan-IR invariant (engine bug)",
    "docs/ANALYSIS.md: plan-IR invariants PV001-PV013",
)
def check_verification(
    info: RuleInfo, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    if ctx.verification is None or ctx.verification.ok:
        return
    error = ctx.verification.error
    yield info.diagnostic(
        f"compiled plan rejected by the verifier: {error}",
        fix="this is an engine bug, not a query problem; please report "
            "the query text and the PV code",
    )


# ----------------------------------------------------------------------
# parallel serial fallbacks (statically guaranteed)
# ----------------------------------------------------------------------


@qp_rule(
    "QP101",
    "parallel-boolean-fallback",
    Severity.INFO,
    "Boolean query: parallel execution always falls back to serial",
    "docs/PERFORMANCE.md: certainty does not decompose over shards "
    "for Boolean queries",
)
def check_boolean_fallback(
    info: RuleInfo, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    if not ctx.in_fo or ctx.free:
        return
    yield info.diagnostic(
        "Boolean query: method=parallel will fall back to the serial "
        "compiled plan (fallback reason \"boolean\")",
        fix="name answer variables with --free to enable sharding, or "
            "use --method compiled directly",
    )


@qp_rule(
    "QP102",
    "no-shard-variable",
    Severity.WARNING,
    "no answer variable at a key position: the database cannot be "
    "sharded",
    "repro.parallel.partition: blocks are routed by a key position "
    "carrying an answer variable",
)
def check_no_shard_variable(
    info: RuleInfo, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    from ..cqa.certain_answers import OpenQuery
    from ..parallel.partition import shard_spec

    if not ctx.in_fo or not ctx.free or ctx.query is None:
        return
    try:
        open_query = OpenQuery(ctx.query, ctx.free)
    except Exception:
        return
    if shard_spec(open_query, ctx.db) is not None:
        return
    names = ", ".join(v.name for v in ctx.free)
    yield info.diagnostic(
        f"no answer variable ({names}) occurs at a key position of any "
        f"atom: method=parallel will fall back to serial "
        f"(fallback reason \"no-shard-variable\")",
        fix="route work by an answer variable that appears in some "
            "atom's primary key",
    )


@qp_rule(
    "QP103",
    "adom-row-executor",
    Severity.WARNING,
    "compiled plan touches the active domain: only the row executor "
    "evaluates it",
    "repro.fo.plan.Executor is the one evaluator of AdomProduct, "
    "AdomGuard and AdomEq; every other backend hands such a plan to it",
)
def check_adom_plan(
    info: RuleInfo, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    if ctx.plan is None or not plan_uses_adom(ctx.plan):
        return
    parallel = ("method=parallel falls back to serial (fallback reason "
                "\"plan-touches-adom\"), " if ctx.free else "")
    yield info.diagnostic(
        "compiled plan contains Adom* operators, which only the row "
        f"executor evaluates: {parallel}method=columnar and method=sql "
        "hand the plan to it, and an incremental view on this query "
        "re-executes it on every commit",
        fix="guard every negated atom's variables by positive atoms so "
            "the compiler never reaches for the active domain",
    )


# ----------------------------------------------------------------------
# cost-model findings
# ----------------------------------------------------------------------


@qp_rule(
    "QP105",
    "cartesian-product",
    Severity.WARNING,
    "the compiled plan contains a cartesian product",
    "System R: a join with no shared columns multiplies cardinalities",
)
def check_cartesian(
    info: RuleInfo, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    if ctx.cost is None:
        return
    for node in ctx.cost.cartesian_nodes:
        estimate = ctx.cost.for_node(node)
        left = ", ".join(v.name for v in node.left.cols) or "()"
        right = ", ".join(v.name for v in node.right.cols) or "()"
        yield info.diagnostic(
            f"join of ({left}) with ({right}) shares no columns: "
            f"estimated {estimate.rows:,.0f} output rows",
            fix="connect the subqueries through a shared variable, or "
                "accept the product if both sides are small",
        )


@qp_rule(
    "QP106",
    "join-order",
    Severity.WARNING,
    "a join subtree is far more expensive than the estimated best "
    "order of the same generators",
    "Selinger et al. 1979: join order dominates plan cost",
)
def check_join_order(
    info: RuleInfo, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    if ctx.cost is None:
        return
    ratio = ctx.cost.join_order_ratio
    if ratio < JOIN_ORDER_THRESHOLD:
        return
    yield info.diagnostic(
        f"compiled join order costs an estimated {ratio:,.1f}x the best "
        f"order of the same generators (threshold "
        f"{JOIN_ORDER_THRESHOLD:g}x)",
        fix="reorder the query's atoms: the compiler joins generators "
            "in syntactic order",
    )


# ----------------------------------------------------------------------
# routing and caching
# ----------------------------------------------------------------------


@qp_rule(
    "QP107",
    "brute-force-path",
    Severity.WARNING,
    "no FO rewriting exists: certainty enumerates repairs",
    TRICHOTOMY,
)
def check_brute_force(
    info: RuleInfo, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    if ctx.classification is None or ctx.in_fo:
        return
    from ..core.classify import Verdict

    verdict = ctx.classification.verdict
    if verdict is Verdict.NOT_IN_FO:
        head = "query has no consistent FO rewriting"
    else:
        head = "classification is undecided, no FO rewriting is known"
    hardness = ctx.classification.hardness.value
    grade = f", {hardness}" if hardness != "none" else ""
    detail = ""
    if ctx.db is not None:
        repairs = ctx.db.repair_count()
        detail = f" ({ctx.db.size()} facts, {repairs:,} repairs here)"
    yield info.diagnostic(
        f"{head} ({ctx.classification.reason}{grade}): method=auto "
        f"routes to the brute-force repair enumeration, exponential in "
        f"the number of inconsistent blocks{detail}",
        fix="break the attack-graph cycle (see repro graph), or accept "
            "brute-force cost on small databases",
    )


@qp_rule(
    "QP108",
    "plan-cache-constants",
    Severity.HINT,
    "constants in the query are inlined into the rewriting, so each "
    "distinct constant compiles a distinct cached plan",
    "repro.fo.compile.PlanCache is keyed on the rewriting formula",
)
def check_plan_cache(
    info: RuleInfo, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    if ctx.query is None or not ctx.in_fo:
        return
    constants = sorted(
        {
            repr(term.value)
            for atom in ctx.query.atoms
            for term in atom.terms
            if isinstance(term, Constant)
        }
    )
    if not constants:
        return
    yield info.diagnostic(
        f"query mentions constant(s) {', '.join(constants)}: the plan "
        f"cache is keyed on the rewriting formula, so every distinct "
        f"constant value compiles and caches a separate plan",
        fix="for parameter sweeps over many constants, prefer a free "
            "variable plus a post-filter to reuse one compiled plan",
    )


# ----------------------------------------------------------------------
# durable-store findings (only fire with a persistent --db-path)
# ----------------------------------------------------------------------


@qp_rule(
    "QP111",
    "wal-compaction-overdue",
    Severity.WARNING,
    "the store's WAL grew past the checkpoint threshold without a "
    "compacting checkpoint",
    "repro.storage.store: recovery replays the whole WAL tail, so "
    "replay time grows linearly until a checkpoint prunes it",
)
def check_wal_compaction(
    info: RuleInfo, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    from ..storage import store

    if not (isinstance(ctx.db, store.PersistentDatabase) and ctx.db.is_open):
        return
    status = ctx.db.storage_status()
    threshold = store.DEFAULT_CHECKPOINT_BYTES
    wal_bytes = int(status["wal_bytes"])
    if wal_bytes < threshold:
        return
    yield info.diagnostic(
        f"WAL holds {wal_bytes:,} bytes across "
        f"{status['wal_segments']} segment(s), past the checkpoint "
        f"threshold ({threshold:,}): every recovery replays this tail "
        f"in full",
        fix="run `repro db checkpoint <path>` to compact, or set "
            "REPRO_WAL_AUTOCHECKPOINT_BYTES to checkpoint automatically "
            "on commit",
    )


@qp_rule(
    "QP112",
    "sql-statement-cache-hostile",
    Severity.HINT,
    "the query's shape defeats the SQL pushdown's prepared-statement "
    "cache (constants baked into the plan, or an unstable schema)",
    "repro.storage.pushdown: the statement cache is keyed on the "
    "compiled plan object, which embeds the query's constants — the "
    "SQL-tier sibling of QP108's plan-cache rule",
)
def check_sql_stmt_cache(
    info: RuleInfo, ctx: AnalysisContext
) -> Iterator[Diagnostic]:
    if ctx.query is None or not ctx.in_fo:
        return
    constants = sorted(
        {
            repr(term.value)
            for atom in ctx.query.atoms
            for term in atom.terms
            if isinstance(term, Constant)
        }
    )
    if constants:
        yield info.diagnostic(
            f"query mentions constant(s) {', '.join(constants)}: they "
            f"are baked into the compiled plan, so each distinct value "
            f"compiles (and caches) a separate SQL statement — only "
            f"runtime parameters bind per call",
            fix="for parameter sweeps over many constants, prefer a "
                "free variable plus a post-filter so one cached "
                "statement serves every value",
        )
    if ctx.db is not None:
        missing = sorted(
            atom.relation for atom in ctx.query.atoms
            if atom.relation not in ctx.db.schemas
        )
        if missing:
            yield info.diagnostic(
                f"relation(s) {', '.join(missing)} are absent from the "
                f"database: their scans compile to empty relations, and "
                f"declaring them later bumps the mirror's statement-cache "
                f"epoch (every cached statement recompiles)",
                fix="declare the relation once with add_relation so "
                    "the schema is stable before querying",
            )

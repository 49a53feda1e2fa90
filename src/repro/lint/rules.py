"""The lint rules, QL001–QL010.

Each rule checks one static precondition or opportunity from the paper:

========  ========  =====================================================
code      severity  meaning
========  ========  =====================================================
QL000     error     syntax error (reported by the parser, catalogued here)
QL001     error     self-join: query leaves the sjfBCQ¬ class
QL002     error     negation not weakly guarded (Thm 4.3 precondition)
QL003     error     unsafe variable (occurs only negated / in ≠)
QL004     error     cyclic attack graph: no FO rewriting (Thm 4.3(1))
QL005     info      atom with variable-free primary key is eliminable
QL006     hint      unattacked key variables are reifiable (Cor. 6.9)
QL007     warning   variable occurs only once (wildcard join)
QL008     info      constant-only atom (single-fact membership test)
QL009     error*    duplicate literal (* duplicate disequality: warning)
QL010     error     atom with an empty primary key
========  ========  =====================================================

Rules are registered with the :func:`rule` decorator; the registry
(:data:`RULES`) doubles as the machine-readable catalogue rendered by
``docs/LINTING.md`` and the CLI.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.attack_graph import attack_graph
from ..core.classify import Verdict, classify
from ..core.terms import Variable
from .context import LintContext, LintLiteral
from .diagnostics import Diagnostic, RuleInfo, Severity

Checker = Callable[[RuleInfo, LintContext], Iterable[Diagnostic]]

RULES: Dict[str, RuleInfo] = {}
_CHECKERS: List[Tuple[RuleInfo, Checker]] = []


def rule(
    code: str,
    name: str,
    severity: Severity,
    summary: str,
    citation: str = "",
) -> Callable[[Checker], Checker]:
    """Register a rule checker under a stable diagnostic code."""
    info = RuleInfo(code, name, severity, summary, citation)
    if code in RULES:
        raise ValueError(f"duplicate rule code {code}")
    RULES[code] = info

    def decorate(checker: Checker) -> Checker:
        _CHECKERS.append((info, checker))
        return checker

    return decorate


def register_info(
    code: str, name: str, severity: Severity, summary: str, citation: str = ""
) -> RuleInfo:
    """Catalogue a code that has no checker (parser-reported codes)."""
    info = RuleInfo(code, name, severity, summary, citation)
    RULES[code] = info
    return info


def run_rules(ctx: LintContext) -> List[Diagnostic]:
    """Run every registered checker over the context."""
    diagnostics: List[Diagnostic] = []
    for info, checker in _CHECKERS:
        diagnostics.extend(checker(info, ctx))
    return diagnostics


# ----------------------------------------------------------------------
# parser-reported codes
# ----------------------------------------------------------------------

SYNTAX_ERROR = register_info(
    "QL000",
    "syntax-error",
    Severity.ERROR,
    "the query text does not parse",
    "query grammar, repro.core.parser module docstring",
)

EMPTY_KEY = register_info(
    "QL010",
    "empty-key",
    Severity.ERROR,
    "atom declares an empty primary key",
    "Section 3: a signature [n, k] requires 1 <= k <= n",
)


# ----------------------------------------------------------------------
# structural scope rules (errors)
# ----------------------------------------------------------------------


@rule(
    "QL001",
    "self-join",
    Severity.ERROR,
    "two distinct atoms share a relation name; the query leaves sjfBCQ¬",
    "Section 3: the dichotomy of Theorem 4.3 is for self-join-free queries",
)
def check_self_join(info: RuleInfo, ctx: LintContext) -> Iterator[Diagnostic]:
    first_seen: Dict[str, LintLiteral] = {}
    for lit in ctx.literals:
        name = lit.atom.relation
        previous = first_seen.get(name)
        if previous is None:
            first_seen[name] = lit
            continue
        if previous.atom == lit.atom and previous.negated == lit.negated:
            continue  # an exact duplicate: QL009 reports it
        yield info.diagnostic(
            f"self-join detected: relation {name!r} occurs more than once; "
            f"the query is outside sjfBCQ¬ and Theorem 4.3 does not apply",
            span=lit.best_span(),
            fix=f"rename one occurrence of {name!r} (e.g. {name}_2) and "
                f"duplicate its data, or split the query",
        )


@rule(
    "QL009",
    "duplicate-literal",
    Severity.ERROR,
    "the same literal occurs twice",
    "Section 3: atoms of a query form a set; repeats are self-joins",
)
def check_duplicates(info: RuleInfo, ctx: LintContext) -> Iterator[Diagnostic]:
    seen_literals = set()
    for lit in ctx.literals:
        key = (lit.negated, lit.atom)
        if key in seen_literals:
            yield info.diagnostic(
                f"duplicate literal {lit.describe()}: sjfBCQ¬ forbids "
                f"repeated relation names",
                span=lit.best_span(),
                fix="remove the redundant copy",
            )
        seen_literals.add(key)
    seen_diseqs = set()
    for d in ctx.diseqs:
        if d.diseq in seen_diseqs:
            yield info.diagnostic(
                f"duplicate disequality {d.diseq!r} is redundant",
                span=d.span,
                severity=Severity.WARNING,
                fix="remove the redundant copy",
            )
        seen_diseqs.add(d.diseq)


def _unguarded_pair(
    vars_set: frozenset, positives: List[LintLiteral]
) -> Optional[Tuple[Variable, Variable]]:
    """A pair of co-occurring variables witnessing a weak-guardedness
    violation (possibly x = x), or None when guarded."""
    ordered = sorted(vars_set)
    for i, x in enumerate(ordered):
        for y in ordered[i:]:
            if not any(
                x in lit.atom.vars and y in lit.atom.vars for lit in positives
            ):
                return (x, y)
    return None


@rule(
    "QL002",
    "unguarded-negation",
    Severity.ERROR,
    "variables of a negated atom (or ≠) do not co-occur positively",
    "Section 3 (weak guardedness); Theorem 4.3 assumes it, and Section 7 "
    "shows the dichotomy fails without it",
)
def check_weak_guardedness(
    info: RuleInfo, ctx: LintContext
) -> Iterator[Diagnostic]:
    positives = ctx.positives
    for lit in ctx.negatives:
        pair = _unguarded_pair(lit.atom.vars, positives)
        if pair is None:
            continue
        x, y = pair
        if x == y:
            detail = f"variable {x.name!r} occurs in no positive atom"
        else:
            detail = (
                f"variables {x.name!r} and {y.name!r} co-occur in the "
                f"negation but in no positive atom"
            )
        yield info.diagnostic(
            f"negation of {lit.atom} is not weakly guarded: {detail}",
            span=lit.best_span(),
            fix="add a positive atom covering the variable pair, or drop "
                "the negated atom",
        )
    for d in ctx.diseqs:
        pair = _unguarded_pair(d.diseq.vars, positives)
        if pair is None:
            continue
        x, y = pair
        yield info.diagnostic(
            f"disequality {d.diseq!r} is not weakly guarded: variables "
            f"{x.name!r}, {y.name!r} do not co-occur in a positive atom",
            span=d.span,
            fix="add a positive atom covering the variable pair",
        )


@rule(
    "QL003",
    "unsafe-variable",
    Severity.ERROR,
    "a variable occurs only in negated atoms or disequalities",
    "Section 3 (safety / range restriction): every variable of a negated "
    "atom must occur in a positive atom",
)
def check_safety(info: RuleInfo, ctx: LintContext) -> Iterator[Diagnostic]:
    positive_vars = ctx.positive_vars
    reported = set()
    for lit in ctx.negatives:
        for i, term in enumerate(lit.atom.terms):
            if not isinstance(term, Variable):
                continue
            if term in positive_vars or term in reported:
                continue
            reported.add(term)
            yield info.diagnostic(
                f"unsafe variable {term.name!r}: it occurs in "
                f"{lit.describe()} but in no positive atom",
                span=lit.term_span(i),
                fix=f"bind {term.name!r} in a positive atom or replace it "
                    f"with a constant",
            )
    for d in ctx.diseqs:
        for i, pair in enumerate(d.diseq.pairs):
            for side, term in enumerate(pair):
                if not isinstance(term, Variable):
                    continue
                if term in positive_vars or term in reported:
                    continue
                reported.add(term)
                yield info.diagnostic(
                    f"unsafe variable {term.name!r}: it occurs in the "
                    f"disequality {d.diseq!r} but in no positive atom",
                    span=d.pair_span(i, side),
                    fix=f"bind {term.name!r} in a positive atom",
                )


@rule(
    "QL004",
    "cyclic-attack-graph",
    Severity.ERROR,
    "the attack graph has a directed cycle: CERTAINTY(q) is not in FO",
    "Theorem 4.3(1); hardness by Lemmas 5.5 (L-hard), 5.6 (NL-hard), "
    "or 5.7 (L-hard) on a 2-cycle (Lemma 4.9)",
)
def check_attack_cycle(info: RuleInfo, ctx: LintContext) -> Iterator[Diagnostic]:
    query = ctx.query
    if query is None:
        return  # self-join: QL001 already explains why we stop here
    graph = attack_graph(query)
    cycle = graph.find_cycle()
    if cycle is None:
        return
    witness = " ~> ".join(a.relation for a in cycle) + f" ~> {cycle[0].relation}"
    result = classify(query, graph)
    span = ctx.span_of_atom(cycle[0])
    if result.verdict is Verdict.NOT_IN_FO:
        yield info.diagnostic(
            f"cyclic attack graph (witness cycle: {witness}): no consistent "
            f"first-order rewriting exists — {result.reason}",
            span=span,
            fix="use the brute-force or counting solver for this query; "
                "only acyclic queries admit an FO rewriting",
        )
    else:
        # Not weakly guarded and no hardness lemma applies: outside the
        # dichotomy, so report the cycle as a warning only (QL002 already
        # carries the error).
        yield info.diagnostic(
            f"attack graph is cyclic (witness cycle: {witness}) but "
            f"negation is not weakly guarded; Theorem 4.3 does not apply "
            f"(Section 7)",
            span=span,
            severity=Severity.WARNING,
        )


# ----------------------------------------------------------------------
# opportunity and hygiene rules (warnings / info / hints)
# ----------------------------------------------------------------------


@rule(
    "QL005",
    "variable-free-key",
    Severity.INFO,
    "an atom with a variable-free primary key can be eliminated first",
    "Lemma 6.2 (ground negated atom), Lemma 6.5/6.6 (negated, variables "
    "in value positions), Lemma 6.1 (positive case)",
)
def check_variable_free_key(
    info: RuleInfo, ctx: LintContext
) -> Iterator[Diagnostic]:
    for lit in ctx.literals:
        atom = lit.atom
        if atom.key_vars or atom.is_all_key:
            continue
        if lit.negated:
            lemma = "Lemma 6.2" if not atom.vars else "Lemma 6.5/6.6"
        else:
            lemma = "Lemma 6.1 (positive elimination)"
        yield info.diagnostic(
            f"{lit.describe()} has a variable-free primary key: Algorithm 1 "
            f"eliminates it by {lemma}",
            span=lit.best_span(),
        )


@rule(
    "QL006",
    "reifiable-key",
    Severity.HINT,
    "unattacked key variables can be reified as constants",
    "Corollary 6.9: unattacked variables of a weakly-guarded query are "
    "reifiable",
)
def check_reifiable_keys(info: RuleInfo, ctx: LintContext) -> Iterator[Diagnostic]:
    query = ctx.query
    if query is None or not query.has_weakly_guarded_negation:
        return
    unattacked = attack_graph(query).unattacked_variables()
    for lit in ctx.literals:
        key_vars = lit.atom.key_vars
        if not key_vars or not key_vars <= unattacked:
            continue
        names = ", ".join(sorted(v.name for v in key_vars))
        yield info.diagnostic(
            f"key variable(s) {names} of {lit.atom} are unattacked: "
            f"Algorithm 1 reifies them as constants (Corollary 6.9)",
            span=lit.best_span(),
        )


@rule(
    "QL007",
    "unused-variable",
    Severity.WARNING,
    "a variable occurs only once and joins nothing",
    "a single-occurrence variable is an anonymous existential; it cannot "
    "affect which repairs satisfy the query body beyond its own atom",
)
def check_unused_variables(
    info: RuleInfo, ctx: LintContext
) -> Iterator[Diagnostic]:
    occurrences = ctx.variable_occurrences()
    counts: Dict[Variable, int] = {}
    for variable, _ in occurrences:
        counts[variable] = counts.get(variable, 0) + 1
    for variable, span in occurrences:
        if counts[variable] == 1:
            yield info.diagnostic(
                f"variable {variable.name!r} occurs only once; it acts as "
                f"a wildcard",
                span=span,
                fix="reuse it in another literal if a join was intended",
            )


@rule(
    "QL008",
    "constant-only-atom",
    Severity.INFO,
    "an atom without variables tests membership of a single fact",
    "Section 3: a ground atom's block is determined by its key value",
)
def check_constant_only(info: RuleInfo, ctx: LintContext) -> Iterator[Diagnostic]:
    for lit in ctx.literals:
        if not lit.atom.is_fact:
            continue
        polarity = "absent from" if lit.negated else "present in"
        yield info.diagnostic(
            f"constant-only {lit.describe()}: it only tests that one fact "
            f"is {polarity} every repair",
            span=lit.best_span(),
        )

"""The plan-IR verifier: machine-checked invariants for compiled plans.

Every execution tier — the serial compiled executor, the probe-mode
boolean evaluator, the sharded parallel path, and the incremental
delta engine — consumes the same untyped operator trees from
:mod:`repro.fo.plan`.  The verifier walks such a tree once and checks
the structural contract those consumers silently rely on:

``PV001``   node columns are distinct variables
``PV002``   non-Project columns are sorted by variable name
``PV003``   Scan internals (projection/constants/equality checks)
            index into the atom, and projected columns carry the
            variable they claim to carry (column provenance)
``PV004``   Literal rows have the node's width
``PV005``   Select conditions reference live columns of the child
``PV006``   Project targets exist in the child and positions agree
``PV007``   Join output is the sorted column union and every emitted
            column resolves on the side it is taken from
``PV008``   Semi/anti-join output equals the left input's columns
``PV009``   Union inputs agree on columns
``PV010``   Difference inputs are union-compatible (also what makes
            the probe path's per-row binding of the right side safe)
``PV011``   Adom* shapes (AdomGuard nullary, AdomEq binary distinct)
``PV012``   every operator type is known to the executor (both the
            materializing and the lazy/probe dispatch tables)
``PV013``   the root produces exactly the declared answer columns

Violations raise a coded :class:`PlanInvariantError`.  Compilation
verifies automatically when ``REPRO_VERIFY_PLANS=1`` (see
:func:`repro.fo.compile.verify_plans_enabled`; tests and CI switch it
on), and ``repro plan --check`` / ``repro analyze`` run it on demand.
:func:`verification_report` is the non-raising form used in reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

from ..core.terms import Variable, is_variable
from ..fo.plan import (
    AdomEq,
    AdomGuard,
    AdomProduct,
    AntiJoin,
    Difference,
    Executor,
    Join,
    Literal,
    Plan,
    PlanError,
    Project,
    Scan,
    Select,
    SemiJoin,
    Union,
)

__all__ = [
    "PlanInvariantError",
    "VerificationReport",
    "plan_uses_adom",
    "verification_report",
    "verify_compiled",
    "verify_plan",
]

#: Node types whose execution touches the active domain.  Only the row
#: executor evaluates them: every other backend hands a plan holding
#: one to it, so the verifier marks such plans in its report.
ADOM_NODES: Tuple[type, ...] = (AdomProduct, AdomGuard, AdomEq)


class PlanInvariantError(PlanError):
    """A compiled plan violates a structural invariant.

    ``code`` is the stable ``PVxxx`` identifier of the violated
    invariant and ``node`` the offending operator; ``str()`` renders
    ``PVxxx: message (at <operator>)``.
    """

    def __init__(self, code: str, message: str, node: Optional[Plan] = None):
        self.code = code
        self.node = node
        where = ""
        if node is not None:
            # label() itself can blow up on a corrupt node (e.g. a
            # Select whose condition indexes out of range) — fall back
            # to the bare type name rather than masking the finding.
            try:
                where = f" (at {node.label()})"
            except Exception:
                where = f" (at {type(node).__name__})"
        super().__init__(f"{code}: {message}{where}")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verifier run (the non-raising API).

    ``ok`` is False exactly when ``error`` carries the first
    :class:`PlanInvariantError`; ``nodes`` counts operators walked,
    ``uses_adom`` marks plans touching the active domain, and
    ``probe_safe`` says whether the boolean short-circuit evaluator
    may run the plan (always true for plans that verify — the checks
    that make probing safe are part of the invariant set).
    """

    ok: bool
    nodes: int
    uses_adom: bool
    probe_safe: bool
    error: Optional[PlanInvariantError] = None

    @property
    def code(self) -> Optional[str]:
        """The violated invariant's code, or None when ok."""
        return None if self.error is None else self.error.code

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (see docs/diagnostics.schema.json)."""
        out: Dict[str, Any] = {
            "ok": self.ok,
            "nodes": self.nodes,
            "uses_adom": self.uses_adom,
            "probe_safe": self.probe_safe,
        }
        if self.error is not None:
            out["error"] = {"code": self.error.code, "message": str(self.error)}
        return out


def plan_uses_adom(plan: Plan) -> bool:
    """Does any operator of the tree touch the active domain?

    Generic over ``children()``, so new operator types are covered
    automatically (unlike a hand-maintained isinstance cascade).
    """
    if isinstance(plan, ADOM_NODES):
        return True
    return any(plan_uses_adom(child) for child in plan.children())


def _fail(code: str, message: str, node: Plan) -> Iterator[PlanInvariantError]:
    yield PlanInvariantError(code, message, node)


def _check_cols(node: Plan) -> Iterator[PlanInvariantError]:
    cols = node.cols
    if not all(is_variable(c) for c in cols):
        yield PlanInvariantError(
            "PV001", f"columns must be variables, got {cols!r}", node
        )
        return
    if len(set(cols)) != len(cols):
        yield PlanInvariantError(
            "PV001", f"duplicate output columns {tuple(c.name for c in cols)}",
            node,
        )
    if not isinstance(node, Project) and tuple(sorted(cols)) != cols:
        # Only Project may reorder (the root projects onto the caller's
        # answer-column order); every other operator emits sorted
        # columns, and the lowering's seed threading depends on it.
        yield PlanInvariantError(
            "PV002",
            f"columns {tuple(c.name for c in cols)} are not sorted by name",
            node,
        )


def _check_scan(node: Scan) -> Iterator[PlanInvariantError]:
    arity = node.atom.schema.arity
    if len(node.atom.terms) != arity:
        yield PlanInvariantError(
            "PV003", f"atom has {len(node.atom.terms)} terms for arity {arity}",
            node,
        )
        return
    if node.cols != tuple(sorted(node.atom.vars)):
        yield PlanInvariantError(
            "PV003", "columns are not the atom's sorted distinct variables",
            node,
        )
    if len(node.proj) != len(node.cols):
        yield PlanInvariantError(
            "PV003",
            f"projection width {len(node.proj)} != column count {len(node.cols)}",
            node,
        )
        return
    for col, pos in zip(node.cols, node.proj):
        if not 0 <= pos < arity:
            yield PlanInvariantError(
                "PV003", f"projection position {pos} outside arity {arity}", node
            )
        elif node.atom.terms[pos] != col:
            # Column provenance: the projected position must hold the
            # variable the output column is named after.
            yield PlanInvariantError(
                "PV003",
                f"column {col.name!r} projected from position {pos}, which "
                f"holds {node.atom.terms[pos]!r}",
                node,
            )
    for pos, value in node.consts.items():
        if not 0 <= pos < arity:
            yield PlanInvariantError(
                "PV003", f"constant position {pos} outside arity {arity}", node
            )
        elif is_variable(node.atom.terms[pos]):
            yield PlanInvariantError(
                "PV003",
                f"constant {value!r} pinned at variable position {pos}", node,
            )
    for i, j in node.eq_checks:
        if not (0 <= i < arity and 0 <= j < arity):
            yield PlanInvariantError(
                "PV003", f"equality check ({i}, {j}) outside arity {arity}", node
            )


def _check_literal(node: Literal) -> Iterator[PlanInvariantError]:
    width = len(node.cols)
    for row in node.rows:
        if len(row) != width:
            yield PlanInvariantError(
                "PV004", f"row {row!r} has width {len(row)}, expected {width}",
                node,
            )


def _check_select(node: Select) -> Iterator[PlanInvariantError]:
    if node.cols != node.child.cols:
        yield PlanInvariantError(
            "PV005", "Select must preserve its child's columns", node
        )
    width = len(node.child.cols)
    for cond in node.conds:
        if len(cond) != 3:
            yield PlanInvariantError(
                "PV005", f"malformed condition {cond!r}", node
            )
            continue
        lhs, rhs, _equal = cond
        for operand in (lhs, rhs):
            kind, payload = operand
            if kind == "col":
                if not (isinstance(payload, int) and 0 <= payload < width):
                    yield PlanInvariantError(
                        "PV005",
                        f"condition references column index {payload!r} of a "
                        f"{width}-column child",
                        node,
                    )
            elif kind != "const":
                yield PlanInvariantError(
                    "PV005", f"unknown operand kind {kind!r}", node
                )


def _check_project(node: Project) -> Iterator[PlanInvariantError]:
    child_cols = node.child.cols
    missing = [c for c in node.cols if c not in child_cols]
    if missing:
        yield PlanInvariantError(
            "PV006",
            f"projects onto columns absent from the child: "
            f"{[c.name for c in missing]}",
            node,
        )
        return
    if len(node.positions) != len(node.cols):
        yield PlanInvariantError(
            "PV006",
            f"positions width {len(node.positions)} != column count "
            f"{len(node.cols)}",
            node,
        )
        return
    for col, pos in zip(node.cols, node.positions):
        if not 0 <= pos < len(child_cols) or child_cols[pos] != col:
            yield PlanInvariantError(
                "PV006",
                f"column {col.name!r} taken from child position {pos}, which "
                f"holds "
                f"{child_cols[pos].name if 0 <= pos < len(child_cols) else '<out of range>'!r}",
                node,
            )


def _check_join(node: Join) -> Iterator[PlanInvariantError]:
    expected = tuple(sorted(set(node.left.cols) | set(node.right.cols)))
    if node.cols != expected:
        yield PlanInvariantError(
            "PV007", "output columns are not the sorted input-column union",
            node,
        )
    if len(node.emit) != len(node.cols):
        yield PlanInvariantError(
            "PV007",
            f"emit width {len(node.emit)} != column count {len(node.cols)}",
            node,
        )
        return
    sides = (node.left.cols, node.right.cols)
    for col, (side, pos) in zip(node.cols, node.emit):
        if side not in (0, 1):
            yield PlanInvariantError(
                "PV007", f"emit side {side!r} is neither left nor right", node
            )
            continue
        source = sides[side]
        if not 0 <= pos < len(source) or source[pos] != col:
            yield PlanInvariantError(
                "PV007",
                f"column {col.name!r} emitted from side {side} position "
                f"{pos}, which does not hold it",
                node,
            )


def _check_semi(node: Plan) -> Iterator[PlanInvariantError]:
    left = node.children()[0]
    if node.cols != left.cols:
        yield PlanInvariantError(
            "PV008",
            f"{type(node).__name__} must emit exactly its left input's "
            f"columns",
            node,
        )


def _check_union(node: Union) -> Iterator[PlanInvariantError]:
    if not node.parts:
        yield PlanInvariantError("PV009", "Union has no inputs", node)
        return
    for part in node.parts:
        if part.cols != node.cols:
            yield PlanInvariantError(
                "PV009",
                f"input columns {tuple(c.name for c in part.cols)} disagree "
                f"with output {tuple(c.name for c in node.cols)}",
                node,
            )


def _check_difference(node: Difference) -> Iterator[PlanInvariantError]:
    if node.left.cols != node.right.cols or node.cols != node.left.cols:
        # Union compatibility is also what makes probe mode safe here:
        # the probe path binds a full left row onto the right side by
        # column name, so the right schema must be identical.
        yield PlanInvariantError(
            "PV010", "Difference inputs must be union-compatible", node
        )


def _check_adom(node: Plan) -> Iterator[PlanInvariantError]:
    if isinstance(node, AdomGuard) and node.cols != ():
        yield PlanInvariantError("PV011", "AdomGuard must be nullary", node)
    if isinstance(node, AdomEq) and len(node.cols) != 2:
        yield PlanInvariantError(
            "PV011", "AdomEq must range over exactly two distinct variables",
            node,
        )


def _check_node(node: Plan) -> Iterator[PlanInvariantError]:
    yield from _check_cols(node)
    if type(node) not in Executor._HANDLERS:
        yield PlanInvariantError(
            "PV012",
            f"operator type {type(node).__name__} is unknown to the executor",
            node,
        )
    elif type(node) not in Executor._LAZY_HANDLERS:
        yield PlanInvariantError(
            "PV012",
            f"operator type {type(node).__name__} has no probe-mode handler",
            node,
        )
    if isinstance(node, Scan):
        yield from _check_scan(node)
    elif isinstance(node, Literal):
        yield from _check_literal(node)
    elif isinstance(node, Select):
        yield from _check_select(node)
    elif isinstance(node, Project):
        yield from _check_project(node)
    elif isinstance(node, Join):
        yield from _check_join(node)
    elif isinstance(node, (SemiJoin, AntiJoin)):
        yield from _check_semi(node)
    elif isinstance(node, Union):
        yield from _check_union(node)
    elif isinstance(node, Difference):
        yield from _check_difference(node)
    elif isinstance(node, ADOM_NODES):
        yield from _check_adom(node)


def _walk(plan: Plan, seen: Dict[int, bool]) -> Iterator[Plan]:
    """Every distinct node of a plan DAG, pre-order, each once."""
    if id(plan) in seen:
        return
    seen[id(plan)] = True
    yield plan
    for child in plan.children():
        yield from _walk(child, seen)


def verify_plan(
    plan: Plan,
    expected_cols: Optional[Sequence[Variable]] = None,
) -> int:
    """Check every invariant on every node; raise on the first failure.

    ``expected_cols`` pins the root's output schema (the compiled
    query's answer columns, in order); omit it to verify a bare
    subtree.  Returns the number of operators checked.
    """
    if expected_cols is not None and plan.cols != tuple(expected_cols):
        raise PlanInvariantError(
            "PV013",
            f"root emits {tuple(c.name for c in plan.cols)}, expected "
            f"{tuple(c.name for c in expected_cols)}",
            plan,
        )
    count = 0
    for node in _walk(plan, {}):
        count += 1
        for error in _check_node(node):
            raise error
    return count


def verify_compiled(compiled: Any) -> int:
    """Verify a :class:`repro.fo.compile.CompiledQuery` end to end."""
    return verify_plan(compiled.plan, expected_cols=compiled.free)


def verification_report(
    plan: Plan,
    expected_cols: Optional[Sequence[Variable]] = None,
) -> VerificationReport:
    """Run the verifier and fold the outcome into a report.

    ``probe_safe`` means the boolean short-circuit evaluator may run
    the plan: the plan verifies and its root is nullary.
    """
    nodes = sum(1 for _ in _walk(plan, {}))
    uses_adom = plan_uses_adom(plan)
    try:
        verify_plan(plan, expected_cols)
    except PlanInvariantError as exc:
        return VerificationReport(False, nodes, uses_adom, False, exc)
    return VerificationReport(True, nodes, uses_adom, plan.cols == ())

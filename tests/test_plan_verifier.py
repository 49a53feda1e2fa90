"""The plan-IR verifier: invariants PV001–PV013.

Every test corrupts one structural invariant of an otherwise-valid
plan and checks that the verifier rejects it with the right code;
valid plans (hand-built and compiler-produced) must pass.  The
``REPRO_VERIFY_PLANS`` gate that wires the verifier into
``compile_formula`` is covered at the end.
"""

from __future__ import annotations

import pytest

from repro.analysis.verifier import (
    PlanInvariantError,
    plan_uses_adom,
    verification_report,
    verify_compiled,
    verify_plan,
)
from repro.core.atoms import atom
from repro.core.parser import parse_query
from repro.core.terms import Constant, Variable
from repro.cqa.certain_answers import OpenQuery, open_rewriting
from repro.cqa.rewriting import Rewriter
from repro.fo.compile import compile_formula, verify_plans_enabled
from repro.fo.plan import (
    AdomGuard,
    AdomProduct,
    AntiJoin,
    Difference,
    Join,
    Literal,
    Plan,
    Project,
    Scan,
    Select,
    SemiJoin,
    Union,
)

x, y, z = Variable("x"), Variable("y"), Variable("z")


def scan_r():
    return Scan(atom("R", [x], [y]))


def scan_s():
    return Scan(atom("S", [y], [z]))


def code_of(plan, expected_cols=None) -> str:
    with pytest.raises(PlanInvariantError) as err:
        verify_plan(plan, expected_cols=expected_cols)
    return err.value.code


class TestValidPlans:
    def test_hand_built_plan_passes(self):
        plan = Project(Join(scan_r(), scan_s()), (x, z))
        assert verify_plan(plan) == 4
        assert verify_plan(plan, expected_cols=(x, z)) == 4

    def test_compiled_boolean_plan(self):
        query = parse_query("P(x | y), not N('c' | y)")
        compiled = compile_formula(Rewriter(query).rewrite())
        assert verify_compiled(compiled) > 0

    def test_compiled_open_plan(self):
        query = parse_query("P(x | y), not N('c' | y)")
        formula = open_rewriting(OpenQuery(query, [x]))
        compiled = compile_formula(formula, [x])
        assert verify_compiled(compiled) > 0

    def test_dag_nodes_counted_once(self):
        shared = scan_r()
        plan = Union((Project(shared, ()), Project(shared, ())))
        # Union + two Projects + ONE shared Scan.
        assert verify_plan(plan) == 4


class TestCorruptedPlans:
    def test_pv001_duplicate_columns(self):
        node = scan_r()
        node.cols = (x, x)
        assert code_of(node) == "PV001"

    def test_pv001_non_variable_columns(self):
        node = scan_r()
        node.cols = (x, "y")
        assert code_of(node) == "PV001"

    def test_pv002_unsorted_columns(self):
        node = Join(scan_r(), scan_s())
        node.cols = tuple(reversed(node.cols))
        assert code_of(node) == "PV002"

    def test_pv002_project_may_reorder(self):
        node = Project(Join(scan_r(), scan_s()), (z, x))
        assert verify_plan(node) == 4

    def test_pv003_projection_provenance(self):
        node = scan_r()
        node.proj = tuple(reversed(node.proj))
        assert code_of(node) == "PV003"

    def test_pv003_projection_out_of_range(self):
        node = scan_r()
        node.proj = (0, 7)
        assert code_of(node) == "PV003"

    def test_pv003_constant_at_variable_position(self):
        node = Scan(atom("N", [Constant("c")], [y]))
        node.consts = {1: "c"}
        assert code_of(node) == "PV003"

    def test_pv003_wrong_column_set(self):
        node = scan_r()
        node.cols = (x, z)
        assert code_of(node) == "PV003"

    def test_pv004_literal_row_width(self):
        node = Literal((x,), [("a",)])
        node.rows = frozenset({("a", "b")})
        assert code_of(node) == "PV004"

    def test_pv005_select_must_preserve_columns(self):
        node = Select(scan_r(), [(("col", 0), ("col", 1), False)])
        node.cols = (x,)
        assert code_of(node) == "PV005"

    def test_pv005_condition_out_of_range(self):
        node = Select(scan_r(), [(("col", 0), ("col", 9), False)])
        assert code_of(node) == "PV005"

    def test_pv005_unknown_operand_kind(self):
        node = Select(scan_r(), [(("wat", 0), ("const", 1), True)])
        assert code_of(node) == "PV005"

    def test_pv006_project_position_provenance(self):
        node = Project(Join(scan_r(), scan_s()), (x, z))
        node.positions = tuple(reversed(node.positions))
        assert code_of(node) == "PV006"

    def test_pv006_project_absent_column(self):
        node = Project(scan_r(), (x,))
        node.cols = (Variable("w"),)
        node.positions = (0,)
        assert code_of(node) == "PV006"

    def test_pv007_join_emit_provenance(self):
        node = Join(scan_r(), scan_s())
        node.emit = tuple((side, pos + 1) for side, pos in node.emit)
        assert code_of(node) == "PV007"

    def test_pv007_join_output_not_union(self):
        node = Join(scan_r(), scan_s())
        node.cols = (x, y)
        node.emit = node.emit[:2]
        assert code_of(node) == "PV007"

    def test_pv008_semijoin_columns(self):
        node = SemiJoin(scan_r(), scan_s())
        node.cols = (x,)
        assert code_of(node) == "PV008"

    def test_pv008_antijoin_columns(self):
        node = AntiJoin(scan_r(), scan_s())
        node.cols = (x,)
        assert code_of(node) == "PV008"

    def test_pv009_union_disagreement(self):
        node = Union((scan_r(), scan_r()))
        node.cols = (x,)
        assert code_of(node) == "PV009"

    def test_pv010_difference_union_compat(self):
        node = Difference(scan_r(), scan_r())
        node.right = scan_s()
        assert code_of(node) == "PV010"

    def test_pv011_adom_guard_nullary(self):
        node = AdomGuard()
        node.cols = (x,)
        assert code_of(node) == "PV011"

    def test_pv012_unknown_operator(self):
        class Mystery(Plan):
            __slots__ = ()

        assert code_of(Mystery(())) == "PV012"

    def test_pv013_root_columns(self):
        plan = Project(Join(scan_r(), scan_s()), (x, z))
        assert code_of(plan, expected_cols=(x, y)) == "PV013"


class TestReportAndHelpers:
    def test_report_ok(self):
        plan = Project(scan_r(), ())
        report = verification_report(plan)
        assert report.ok and report.probe_safe and not report.uses_adom
        assert report.nodes == 2 and report.code is None
        assert report.to_dict() == {
            "ok": True, "nodes": 2, "uses_adom": False, "probe_safe": True,
        }

    def test_report_failure_carries_code(self):
        node = scan_r()
        node.cols = (x, x)
        report = verification_report(node)
        assert not report.ok and not report.probe_safe
        assert report.code == "PV001"
        assert report.to_dict()["error"]["code"] == "PV001"

    def test_open_plan_not_probe_safe(self):
        report = verification_report(scan_r())
        assert report.ok and not report.probe_safe

    def test_plan_uses_adom(self):
        assert not plan_uses_adom(scan_r())
        assert plan_uses_adom(AdomProduct((x,)))
        assert plan_uses_adom(Project(Join(scan_r(), AdomProduct((z,))), ()))


class TestCompileGate:
    def test_enabled_in_test_suite(self):
        assert verify_plans_enabled()

    @pytest.mark.parametrize("value,expected", [
        ("", False), ("0", False), ("false", False), ("no", False),
        ("off", False), ("OFF", False),
        ("1", True), ("true", True), ("yes", True), ("on", True),
    ])
    def test_env_values(self, monkeypatch, value, expected):
        monkeypatch.setenv("REPRO_VERIFY_PLANS", value)
        assert verify_plans_enabled() is expected

    def test_compile_runs_verifier_when_enabled(self, monkeypatch):
        calls = []
        import repro.analysis.verifier as verifier

        original = verifier.verify_plan
        monkeypatch.setattr(
            verifier, "verify_plan",
            lambda plan, expected_cols=None: calls.append(plan)
            or original(plan, expected_cols),
        )
        query = parse_query("P(x | y), not N('c' | y)")
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "0")
        compile_formula(Rewriter(query).rewrite())
        assert calls == []
        monkeypatch.setenv("REPRO_VERIFY_PLANS", "1")
        compile_formula(Rewriter(query).rewrite())
        assert len(calls) == 1

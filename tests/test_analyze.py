"""The static analyzer: cost model, QP rules, reports, `repro analyze`.

Covers the cost estimator (tables stats, per-operator cardinalities,
join-order ranking), the QP100-series rules, the unified
:class:`AnalysisReport` in all three formats (pinned by
``docs/diagnostics.schema.json``), the golden workload/example corpus,
a hypothesis property (every compiled plan verifies), and the QP101
static-flag → runtime-fallback end-to-end demonstration.
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import db_from
from repro.analysis import (
    AnalysisContext,
    CostModel,
    QP_RULES,
    analyze_query,
    analyze_text,
    run_qp_rules,
    table_stats,
    verification_report,
    verify_compiled,
)
from repro.analysis.cost import DEFAULT_ROWS, join_order_ratio
from repro.analysis.rules import JOIN_ORDER_THRESHOLD
from repro.cli import main
from repro.core.atoms import atom
from repro.core.classify import classify
from repro.core.parser import parse_query
from repro.core.terms import Constant, Variable
from repro.cqa.rewriting import consistent_rewriting
from repro.fo.compile import compile_formula
from repro.fo.plan import AdomProduct, Join, Project, Scan
from repro.fo.stats import stats
from repro.obs.schema import validate
from repro.obs.trace import Tracer
from repro.workloads.crm import (
    crm_blocked,
    crm_deliverable,
    crm_pilot_mismatch,
)
from repro.workloads.generators import QueryParams, random_query
from repro.workloads.queries import all_named_queries, poll_qa

x, y, z = Variable("x"), Variable("y"), Variable("z")

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent
     / "docs" / "diagnostics.schema.json").read_text()
)


def assert_schema_valid(document: dict) -> None:
    errors = validate(document, SCHEMA)
    assert not errors, "\n".join(errors)


# ----------------------------------------------------------------------
# cost model
# ----------------------------------------------------------------------


class TestTableStats:
    def test_from_database(self):
        db = db_from({"R/2/1": [(1, 2), (1, 3), (2, 2)], "S/1/1": [(9,)]})
        ts = table_stats(db)
        assert ts.relation_rows("R") == 3
        assert ts.position_distinct("R", 0) == 2
        assert ts.position_distinct("R", 1) == 2
        assert ts.adom_size == 4  # {1, 2, 3, 9}

    def test_defaults_without_database(self):
        ts = table_stats(None)
        assert ts.relation_rows("Whatever") == DEFAULT_ROWS
        assert ts.position_distinct("Whatever", 0) >= 1


class TestCostModel:
    def test_scan_constants_reduce_rows(self):
        db = db_from({"R/2/1": [(i, i % 3) for i in range(10)]})
        model = CostModel(table_stats(db))
        plain = model.estimate(Scan(atom("R", [x], [y]))).estimated_rows
        pinned = model.estimate(
            Scan(atom("R", [Constant(1)], [y]))
        ).estimated_rows
        assert pinned < plain == 10

    def test_join_shared_vs_cartesian(self):
        model = CostModel()
        shared = model.estimate(
            Join(Scan(atom("R", [x], [y])), Scan(atom("S", [y], [z])))
        )
        cartesian = model.estimate(
            Join(Scan(atom("R", [x], [y])), Scan(atom("S", [z], [z])))
        )
        assert cartesian.estimated_rows > shared.estimated_rows
        assert len(cartesian.cartesian_nodes) == 1
        assert not shared.cartesian_nodes

    def test_adom_product_is_expensive(self):
        model = CostModel()
        one = model.estimate(AdomProduct((x,))).estimated_rows
        two = model.estimate(AdomProduct((x, y))).estimated_rows
        assert two == one * one

    def test_report_renders_and_serializes(self):
        report = CostModel().estimate(
            Project(Join(Scan(atom("R", [x], [y])),
                         Scan(atom("S", [y], [z]))), (x, z))
        )
        text = report.render()
        assert "estimated cost" in text and "Join" in text
        doc = report.to_dict()
        assert doc["tree"]["op"].startswith("Project")
        assert doc["join_order_ratio"] >= 1.0

    def test_join_order_ratio_flags_bad_order(self):
        # A and B share nothing; C connects them.  The compiled order
        # (A x B) then C pays the full cartesian product, the best
        # order joins through C and never multiplies.
        a = Scan(atom("A", [x], []))
        b = Scan(atom("B", [y], []))
        c = Scan(atom("C", [x], [y]))
        model = CostModel()
        bad = Join(Join(a, b), c)
        good = Join(Join(a, c), b)
        assert join_order_ratio(bad, model) > JOIN_ORDER_THRESHOLD
        assert join_order_ratio(good, model) == pytest.approx(1.0)


class TestFormulaStats:
    def test_negations_and_or_width(self):
        query = parse_query("P(x | y), not N('c' | y)")
        s = stats(consistent_rewriting(query))
        assert s.negations >= 1
        assert s.max_or_width >= 0
        assert s.size == s.nodes


# ----------------------------------------------------------------------
# QP rules
# ----------------------------------------------------------------------


def fake_compiled(plan, free=()):
    return SimpleNamespace(plan=plan, free=tuple(free))


class TestQPRules:
    def test_catalogue_is_complete(self):
        # Retired codes: QP110 (untranslatable SQL plan), and QP104 and
        # QP109 (views recompute, columnar decodes Adom*), both folded
        # into QP103 when only the row executor kept evaluating Adom*.
        assert sorted(QP_RULES) == [f"QP1{i:02d}" for i in range(13)
                                    if i not in (4, 9, 10)]
        for info in QP_RULES.values():
            assert info.summary and info.code.startswith("QP1")

    def test_qp100_on_corrupt_plan(self):
        node = Scan(atom("R", [x], [y]))
        node.cols = (x, x)
        ctx = AnalysisContext(
            verification=verification_report(node),
        )
        codes = [d.code for d in run_qp_rules(ctx)]
        assert "QP100" in codes

    def test_qp103_on_adom_plan(self):
        plan = Project(AdomProduct((x,)), (x,))
        ctx = AnalysisContext(compiled=fake_compiled(plan, (x,)), free=(x,))
        found = [d for d in run_qp_rules(ctx) if d.code == "QP103"]
        assert len(found) == 1
        message = found[0].message
        for backend in ("method=parallel", "method=columnar", "method=sql",
                        "incremental view"):
            assert backend in message

    def test_qp103_on_boolean_adom_plan(self):
        # A view on a sentence still re-executes on every commit; the
        # parallel fallback is QP101's, so the message leaves it out.
        plan = Project(AdomProduct((x,)), ())
        ctx = AnalysisContext(compiled=fake_compiled(plan, ()))
        found = [d for d in run_qp_rules(ctx) if d.code == "QP103"]
        assert len(found) == 1
        assert "incremental view" in found[0].message
        assert "method=parallel" not in found[0].message

    def test_qp106_on_bad_join_order(self):
        a = Scan(atom("A", [x], []))
        b = Scan(atom("B", [y], []))
        c = Scan(atom("C", [x], [y]))
        plan = Join(Join(a, b), c)
        ctx = AnalysisContext(cost=CostModel().estimate(plan))
        codes = {d.code for d in run_qp_rules(ctx)}
        assert {"QP105", "QP106"} <= codes

    def test_qp112_constants_fire_with_qp108(self):
        report = analyze_text("P(x | y), not N('c' | y)")
        codes = [d.code for d in report.diagnostics]
        assert "QP108" in codes and "QP112" in codes

    def test_qp112_missing_relation_flags_ddl(self):
        from repro.workloads.queries import poll_qa

        db = db_from({})  # no schemas at all
        ctx = AnalysisContext(query=poll_qa(),
                              classification=classify(poll_qa()), db=db)
        messages = [d.message for d in run_qp_rules(ctx)
                    if d.code == "QP112"]
        assert any("absent from the database" in m for m in messages)

    def test_qp112_silent_without_constants_or_ddl(self):
        from repro.workloads.queries import poll_qa

        report = analyze_query(poll_qa(), free=(Variable("p"),))
        assert "QP112" not in {d.code for d in report.diagnostics}

    def test_qp111_wal_past_threshold(self, tmp_path, monkeypatch):
        from repro.core.atoms import RelationSchema
        from repro.storage import PersistentDatabase, store

        db = PersistentDatabase(tmp_path / "store")
        db.add_relation(RelationSchema("R", 2, 1))
        db.add("R", ("a", "1"))
        monkeypatch.setattr(store, "DEFAULT_CHECKPOINT_BYTES", 1)
        codes = {d.code for d in run_qp_rules(AnalysisContext(db=db))}
        assert "QP111" in codes
        # A checkpoint prunes the WAL; the diagnostic clears.
        db.checkpoint()
        codes = {d.code for d in run_qp_rules(AnalysisContext(db=db))}
        assert "QP111" not in codes
        db.close()

    def test_qp111_end_to_end_via_cli(self, tmp_path, monkeypatch, capsys):
        from repro.core.atoms import RelationSchema
        from repro.storage import PersistentDatabase, store

        db = PersistentDatabase(tmp_path / "store")
        db.add_relation(RelationSchema("P", 2, 1))
        db.add_relation(RelationSchema("N", 2, 1))
        db.add("P", ("a", "1"))
        db.close()
        monkeypatch.setattr(store, "DEFAULT_CHECKPOINT_BYTES", 1)
        assert main(["analyze", "P(x | y), not N('c' | y)",
                     "--db-path", str(tmp_path / "store")]) == 0
        assert "QP111" in capsys.readouterr().out


# ----------------------------------------------------------------------
# the unified report
# ----------------------------------------------------------------------


class TestAnalysisReport:
    def test_in_fo_report(self):
        report = analyze_text("P(x | y), not N('c' | y)")
        assert report.ok and report.verdict == "in FO"
        assert report.verification is not None and report.verification.ok
        assert report.cost is not None and report.cost.total_cost > 0
        text = report.render_text()
        assert "verdict: in FO" in text
        assert "plan verifier: ok" in text
        assert "estimated cost" in text

    def test_not_in_fo_report(self):
        report = analyze_text("R(x | y), not S(y | x)")
        assert not report.ok
        codes = [d.code for d in report.diagnostics]
        assert "QL004" in codes and "QP107" in codes
        assert report.verification is None and report.cost is None

    def test_boolean_query_flags_qp101(self):
        report = analyze_text("P(x | y), not N('c' | y)")
        assert "QP101" in [d.code for d in report.diagnostics]

    def test_open_query_with_shard_variable_is_clean(self):
        report = analyze_query(poll_qa(), free=(Variable("p"),))
        codes = {d.code for d in report.diagnostics}
        assert not codes & {"QP101", "QP102", "QP103"}

    def test_no_shard_variable_flags_qp102(self):
        report = analyze_text("Mayor(t | p)", free=(Variable("p"),))
        assert "QP102" in [d.code for d in report.diagnostics]

    def test_unknown_free_variable_raises(self):
        from repro.core.query import QueryError

        with pytest.raises(QueryError):
            analyze_text("P(x | y)", free=(Variable("nope"),))

    def test_syntax_error_reports_ql000(self):
        report = analyze_text("P(x |")
        assert not report.ok
        assert [d.code for d in report.diagnostics] == ["QL000"]
        assert report.verdict is None

    def test_json_is_schema_valid(self):
        for text in ("P(x | y), not N('c' | y)", "R(x | y), not S(y | x)",
                     "P(x |"):
            assert_schema_valid(analyze_text(text).to_dict())

    def test_lint_json_matches_same_schema(self):
        from repro.lint import lint_text

        assert_schema_valid(lint_text("P(x | y), not N(z | y)").to_dict())

    def test_github_rendering(self):
        out = analyze_text("R(x | y), not S(y | x)").render_github()
        lines = out.splitlines()
        assert any(l.startswith("::error title=QL004,line=1,col=") for l in lines)
        assert any(l.startswith("::warning title=QP107::") for l in lines)

    def test_diagnostics_sorted_and_unique(self):
        report = analyze_text("P(x | y), not N('c' | y)")
        keys = [(d.code, d.span, d.message) for d in report.diagnostics]
        assert len(keys) == len(set(keys))
        spanless = [d.code for d in report.diagnostics if d.span is None]
        assert spanless == sorted(
            spanless,
            key=lambda c: [d.code for d in report.diagnostics].index(c),
        )

    def test_pipeline_emits_spans(self):
        tracer = Tracer()
        analyze_text("P(x | y), not N('c' | y)", tracer=tracer)
        names = {span.name for span, _, _ in tracer.iter_spans()}
        assert {"analyze.lint", "analyze.classify", "analyze.compile",
                "analyze.verify", "analyze.cost",
                "analyze.rules"} <= names


class TestAnalyzeCli:
    def test_json_output_schema_valid(self, capsys):
        assert main(["analyze", "P(x | y), not N('c' | y)",
                     "--format", "json"]) == 0
        assert_schema_valid(json.loads(capsys.readouterr().out))

    def test_text_output_keeps_structural_report(self, capsys):
        assert main(["analyze", "P(x | y), not N('c' | y)"]) == 0
        out = capsys.readouterr().out
        assert "verdict: in FO" in out and "witness" in out
        assert "plan verifier: ok" in out

    def test_github_format(self, capsys):
        assert main(["analyze", "R(x | y), not S(y | x)",
                     "--format", "github"]) == 1
        assert "::error title=QL004" in capsys.readouterr().out

    def test_not_in_fo_exits_nonzero(self, capsys):
        assert main(["analyze", "R(x | y), not S(y | x)"]) == 1

    def test_db_feeds_cost_model(self, capsys, tmp_path):
        from repro.db.io import save_database

        db = db_from({"P/2/1": [(1, 2)], "N/2/1": [(9, 2)]})
        path = tmp_path / "db.json"
        save_database(db, path)
        assert main(["analyze", "P(x | y), not N(9 | y)",
                     "--db", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cost"]["total_cost"] < DEFAULT_ROWS

    def test_plan_check_flag(self, capsys):
        assert main(["plan", "P(x | y), not N('c' | y)", "--check"]) == 0
        assert "plan verifier: ok" in capsys.readouterr().out

    def test_plan_not_in_fo_coded_diagnostic(self, capsys):
        assert main(["plan", "R(x | y), not S(y | x)"]) == 2
        err = capsys.readouterr().err
        assert "error[QL004]" in err
        assert "no consistent first-order rewriting" in err


# ----------------------------------------------------------------------
# golden corpus: every workload + example query
# ----------------------------------------------------------------------

# (verdict, verifier passed, QP codes) per corpus query.  The examples
# under examples/ draw their queries from the workloads packages, so
# the corpus below covers them: the poll scripts use poll_*, the CRM
# cleanup example uses crm_*, quickstart/hall/matching use q3/q_hall/q1.
GOLDEN = {
    "q0": ("not in FO", None, ("QP107",)),
    "q1": ("not in FO", None, ("QP107",)),
    "q2": ("not in FO", None, ("QP107",)),
    "q2_ex41": ("not in FO", None, ("QP107",)),
    "q3": ("in FO", True, ("QP101", "QP105", "QP108", "QP112")),
    "q4": ("undecided (negation not weakly guarded)", None, ("QP107",)),
    "q_hall_2": ("in FO", True, ("QP101", "QP105", "QP108", "QP112")),
    "q_hall_3": ("in FO", True, ("QP101", "QP105", "QP108", "QP112")),
    "q_ex32_wg": ("not in FO", None, ("QP107",)),
    "q_gnfo": ("not in FO", None, ("QP107",)),
    "q_ex611": ("in FO", True, ("QP101", "QP105", "QP108", "QP112")),
    "poll_q1": ("not in FO", None, ("QP107",)),
    "poll_q2": ("not in FO", None, ("QP107",)),
    "poll_qa": ("in FO", True, ("QP101",)),
    "poll_qb": ("in FO", True, ("QP101",)),
    "crm_deliverable": ("in FO", True, ("QP101",)),
    "crm_blocked": ("in FO", True, ("QP101",)),
    "crm_pilot_mismatch": ("not in FO", None, ("QP107",)),
}


def corpus():
    queries = list(all_named_queries())
    queries += [
        ("crm_deliverable", crm_deliverable()),
        ("crm_blocked", crm_blocked()),
        ("crm_pilot_mismatch", crm_pilot_mismatch()),
    ]
    return queries


class TestGoldenCorpus:
    def test_corpus_matches_golden(self):
        names = [name for name, _ in corpus()]
        assert sorted(names) == sorted(GOLDEN)

    @pytest.mark.parametrize("name,query", corpus())
    def test_snapshot(self, name, query):
        verdict, verifier_ok, qp_codes = GOLDEN[name]
        report = analyze_query(query)
        assert report.verdict == verdict
        if verifier_ok is None:
            assert report.verification is None
        else:
            assert report.verification is not None
            assert report.verification.ok is verifier_ok
        got = tuple(sorted({d.code for d in report.diagnostics
                            if d.code.startswith("QP")}))
        assert got == qp_codes
        assert_schema_valid(report.to_dict())

    @pytest.mark.parametrize(
        "name,query", [(n, q) for n, q in corpus() if GOLDEN[n][0] == "in FO"]
    )
    def test_in_fo_corpus_plans_verify(self, name, query):
        compiled = compile_formula(consistent_rewriting(query))
        assert verify_compiled(compiled) > 0


# ----------------------------------------------------------------------
# property: every compiled plan passes verification
# ----------------------------------------------------------------------


class TestVerifierProperty:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_in_fo_queries_compile_to_valid_plans(self, seed):
        import random

        query = random_query(
            QueryParams(n_positive=2, n_negative=2, max_arity=3,
                        n_variables=4),
            random.Random(seed),
        )
        if not classify(query).in_fo:
            return
        compiled = compile_formula(consistent_rewriting(query))
        assert verify_compiled(compiled) > 0
        report = verification_report(compiled.plan,
                                     expected_cols=compiled.free)
        assert report.ok and report.probe_safe


# ----------------------------------------------------------------------
# QP101 end to end: the static flag predicts the runtime fallback
# ----------------------------------------------------------------------


class TestQP101EndToEnd:
    def test_static_flag_matches_runtime_fallback(self, rng):
        from repro.cqa.certain_answers import OpenQuery
        from repro.cqa.engine import CertaintyEngine
        from repro.obs import reset_metrics
        from repro.parallel import parallel_certain_answers
        from repro.workloads.poll import random_poll_database

        query = poll_qa()
        flagged = [d.code for d in analyze_query(query).diagnostics]
        assert "QP101" in flagged  # statically: parallel will fall back

        db = random_poll_database(8, 3, rng=rng)
        reset_metrics()
        parallel_certain_answers(OpenQuery(query, []), db,
                                 jobs=2, min_facts=0)
        stats = CertaintyEngine(query).metrics().parallel
        assert stats["serial_fallbacks"] == 1
        assert stats["fallback_reasons"] == {"boolean": 1}

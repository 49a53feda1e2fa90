"""The columnar backend: dictionary encoding, the vector executor,
store invalidation under update streams, routing,
and the `repro plan --columnar` surface.

The tuple :class:`repro.fo.plan.Executor` is the oracle throughout:
every batch operator is checked against the row-at-a-time result on
the same plan, and the hypothesis suite cross-validates whole compiled
queries on random databases.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import db_from
from repro.cli import main
from repro.columnar import executor as columnar_executor
from repro.columnar import (
    ColumnarRelation,
    ValueDictionary,
    VectorExecutor,
    columnar_holds,
    columnar_rows,
    columnar_stats,
    columnar_store,
    fuse,
    prefer_columnar,
)
from repro.core.atoms import atom
from repro.core.terms import Constant, Variable
from repro.cqa.certain_answers import (
    OpenQuery,
    _guarded_open_rewriting,
    certain_answers,
)
from repro.db.io import save_database
from repro.fo.compile import CompiledQuery, plan_cache
from repro.fo.plan import (
    AdomGuard,
    AdomProduct,
    AntiJoin,
    Difference,
    Executor,
    Join,
    Literal,
    Project,
    Scan,
    Select,
    SemiJoin,
    Union,
    plan_nodes,
)
from repro.obs.profile import PlanProfile
from repro.obs.schema import validate
from repro.workloads.poll import random_poll_database
from repro.workloads.queries import poll_q1, poll_qa, poll_qb

x, y, z = Variable("x"), Variable("y"), Variable("z")
p, t = Variable("p"), Variable("t")

TRACE_SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent
     / "docs" / "trace.schema.json").read_text()
)


def vrun(plan, db, profile=None):
    """Execute a plan on the vectorized backend, decoded to rows."""
    executor = VectorExecutor(db, profile=profile)
    return executor.run(plan).to_rows(executor.store.dictionary)


def rrun(plan, db, constants=()):
    """The tuple-executor oracle for the same plan."""
    return Executor(db, None, constants).run(plan)


def both(plan, db):
    got, want = vrun(plan, db), rrun(plan, db)
    assert got == want, f"columnar {sorted(got, key=repr)} != " \
                        f"row {sorted(want, key=repr)}"
    return got


# ----------------------------------------------------------------------
# dictionary and relation representation
# ----------------------------------------------------------------------


class TestValueDictionary:
    def test_dense_first_seen_codes(self):
        d = ValueDictionary()
        assert d.encode("a") == 0
        assert d.encode("b") == 1
        assert d.encode("a") == 0
        assert len(d) == 2
        assert d.decode(1) == "b"
        assert d.values == ["a", "b"]

    def test_code_of_without_assignment(self):
        d = ValueDictionary()
        d.encode("a")
        assert d.code_of("a") == 0
        assert d.code_of("never-seen") is None
        assert len(d) == 1


class TestColumnarRelation:
    def test_round_trip(self):
        d = ValueDictionary()
        rows = {(1, "a"), (2, "b"), (1, "c")}
        rel = ColumnarRelation.from_rows((x, y), rows, d)
        assert len(rel) == 3 and rel.width == 2
        assert rel.to_rows(d) == rows

    def test_zero_width(self):
        d = ValueDictionary()
        assert ColumnarRelation.from_rows((), {()}, d).to_rows(d) == {()}
        assert ColumnarRelation.empty(()).to_rows(d) == set()

    def test_fuse_injective_below_base(self):
        d = ValueDictionary()
        rows = {(a, b) for a in range(17) for b in range(13)}
        rel = ColumnarRelation.from_rows((x, y), rows, d)
        keys = fuse(rel.columns, (0, 1), rel.length, len(d))
        assert len(set(keys)) == len(rows)

    def test_fuse_nullary(self):
        assert fuse((), (), 4, 10) == [0, 0, 0, 0]


# ----------------------------------------------------------------------
# store invalidation (the satellite-1 regression: update streams and
# discard_all must never serve stale encoded columns)
# ----------------------------------------------------------------------


class TestStoreInvalidation:
    def test_update_stream_refreshes_encoded_columns(self):
        db = db_from({"R/2/1": [(1, "a"), (2, "b")]})
        store = columnar_store(db)
        assert store.relation_batch(db, "R").length == 2
        code_a = store.dictionary.code_of("a")
        # An incremental update stream: inserts and deletes, some in
        # explicit batches, each bumping the relation version.
        db.add("R", (3, "c"))
        assert store.relation_batch(db, "R").length == 3
        db.discard("R", (1, "a"))
        db.begin_batch()
        db.add("R", (4, "d"))
        db.add("R", (5, "e"))
        db.commit()
        batch = store.relation_batch(db, "R")
        assert batch.length == 4
        decoded = {
            tuple(store.dictionary.decode(col[i]) for col in batch.columns)
            for i in range(batch.length)
        }
        assert decoded == {(2, "b"), (3, "c"), (4, "d"), (5, "e")}
        # Append-only dictionary: the deleted value keeps its code.
        assert store.dictionary.code_of("a") == code_a

    def test_discard_all_invalidates(self):
        db = db_from({"R/2/1": [(1, "a"), (2, "b"), (3, "c")]})
        store = columnar_store(db)
        assert store.relation_batch(db, "R").length == 3
        db.discard_all("R", [(1, "a"), (3, "c")])
        assert store.relation_batch(db, "R").length == 1

    def test_scan_cache_follows_relation_version(self):
        db = db_from({"R/2/1": [(1, "a"), (1, "b"), (2, "a")]})
        plan = Scan(atom("R", [Constant(1)], [y]))
        before = vrun(plan, db)
        assert before == {("a",), ("b",)}
        db.add("R", (1, "c"))
        assert vrun(plan, db) == {("a",), ("b",), ("c",)}
        db.discard_all("R", [(1, "a"), (1, "b"), (1, "c")])
        assert vrun(plan, db) == set()

    def test_whole_query_tracks_update_stream(self):
        # End-to-end regression: method=columnar across a mutation
        # stream always matches method=compiled on the same database.
        db = random_poll_database(8, 3, conflict_rate=0.5,
                                  rng=random.Random(11))
        oq = OpenQuery(poll_qa(), [p])
        rng = random.Random(7)
        for step in range(6):
            facts = sorted(
                ((r, row) for r in db.relations() for row in db.facts(r)),
                key=repr,
            )
            rel, row = facts[rng.randrange(len(facts))]
            if step % 2:
                db.discard(rel, row)
            else:
                db.add(rel, row[:1] + ("t-new-%d" % step,))
            assert certain_answers(oq, db, "columnar") == \
                certain_answers(oq, db, "compiled")

    def test_copy_gets_fresh_store(self):
        db = db_from({"R/1/1": [(1,)]})
        store = columnar_store(db)
        clone = db.copy()
        assert columnar_store(clone) is not store


# ----------------------------------------------------------------------
# batch operators against the row-executor oracle
# ----------------------------------------------------------------------


class TestVectorOperators:
    def test_scan_variants(self):
        db = db_from({"R/2/1": [(1, 2), (3, 4), (1, 5), (3, 3)]})
        both(Scan(atom("R", [x], [y])), db)
        both(Scan(atom("R", [Constant(1)], [y])), db)
        both(Scan(atom("R", [x], [x])), db)
        both(Scan(atom("S", [x], [y])), db)  # unknown relation

    def test_scan_projection_dedup(self):
        db = db_from({"R/2/1": [(1, 2), (1, 3), (4, 2)]})
        plan = Project(Scan(atom("R", [x], [y])), (y,))
        assert both(plan, db) == {(2,), (3,)}

    @pytest.mark.parametrize("columns", [
        [[5, 3, 5, 1, 3]],
        [[5, 3, 5, 1, 3], [0, 1, 0, 1, 2]],
        [[1, 2, 3]],
        [[1, 1, 2], [0, 1, 0]],
    ])
    def test_dedup_keeps_first_occurrences_in_order(self, columns):
        n = len(columns[0])
        rows = list(zip(*columns))
        expected = list(dict.fromkeys(rows))
        deduped, m, keys = columnar_executor._dedup(columns, n, 8)
        assert m == len(expected)
        assert list(zip(*deduped)) == expected
        assert list(keys) == list(fuse(deduped, range(len(deduped)), m, 8))
        if m == n:
            assert deduped is columns  # already distinct: no copy

    def test_literal(self):
        db = db_from({})
        both(Literal((), [()]), db)
        both(Literal((), []), db)
        both(Literal((x,), [(7,), (9,)]), db)

    def test_select_conditions(self):
        db = db_from({"R/2/1": [(1, 1), (1, 2), (2, 2), (3, 1)]})
        scan = Scan(atom("R", [x], [y]))
        both(Select(scan, ((("col", 0), ("col", 1), True),)), db)
        both(Select(scan, ((("col", 0), ("col", 1), False),)), db)
        both(Select(scan, ((("col", 0), ("const", 1), True),)), db)
        both(Select(scan, ((("col", 1), ("const", 1), False),)), db)
        both(Select(scan, ((("const", 1), ("const", 2), True),)), db)
        both(Select(scan, ((("const", 1), ("const", 1), True),)), db)

    def test_join(self):
        db = db_from({
            "R/2/1": [(1, 2), (3, 4), (5, 2)],
            "S/2/1": [(2, "a"), (4, "b"), (2, "c")],
        })
        r = Scan(atom("R", [x], [y]))
        s = Scan(atom("S", [y], [z]))
        assert both(Join(r, s), db) == rrun(Join(r, s), db)

    def test_join_no_shared_is_cross_product(self):
        db = db_from({"R/1/1": [(1,), (2,)], "S/1/1": [("a",), ("b",)]})
        plan = Join(Scan(atom("R", [x], [])), Scan(atom("S", [y], [])))
        assert len(both(plan, db)) == 4

    def test_semi_and_anti_join(self):
        db = db_from({
            "R/2/1": [(1, 2), (3, 4), (5, 6)],
            "S/1/1": [(2,), (6,)],
        })
        r = Scan(atom("R", [x], [y]))
        s = Scan(atom("S", [y], []))
        assert both(SemiJoin(r, s), db) == {(1, 2), (5, 6)}
        assert both(AntiJoin(r, s), db) == {(3, 4)}

    def test_union_dedups_across_parts(self):
        db = db_from({"R/1/1": [(1,), (2,)], "S/1/1": [(2,), (3,)]})
        plan = Union((Scan(atom("R", [x], [])), Scan(atom("S", [x], []))))
        assert both(plan, db) == {(1,), (2,), (3,)}

    def test_difference(self):
        db = db_from({"R/1/1": [(1,), (2,), (3,)], "S/1/1": [(2,)]})
        plan = Difference(Scan(atom("R", [x], [])), Scan(atom("S", [x], [])))
        assert both(plan, db) == {(1,), (3,)}

    def test_zero_width_difference(self):
        db = db_from({"R/1/1": [(1,)], "S/1/1": [(2,)]})
        left = Project(Scan(atom("R", [x], [])), ())
        right = Project(Scan(atom("S", [x], [])), ())
        assert both(Difference(left, right), db) == set()

    def test_adom_fallback_counts_and_agrees(self):
        """An Adom* plan has no batch form: ``columnar_rows`` hands the
        whole plan to ``CompiledQuery.rows``, counting one
        ``decode_fallbacks`` globally and on the root node."""
        db = db_from({"R/1/1": [(1,), (2,)]})
        plan = Join(Scan(atom("R", [x], [])), AdomProduct((y,)))
        compiled = CompiledQuery(None, plan.cols, plan, ())
        before = columnar_stats()["decode_fallbacks"]
        profile = PlanProfile()
        got = columnar_rows(compiled, db, profile=profile)
        assert got == compiled.rows(db) == rrun(plan, db)
        assert columnar_stats()["decode_fallbacks"] == before + 1
        root = profile.stats_for(plan)
        assert root.decode_fallbacks == 1 and root.batches == 0
        assert root.calls == 1  # the row executor profiled the plan

    def test_adom_guard_fallback(self):
        db = db_from({"R/1/1": [(1,)]})
        plan = Join(Scan(atom("R", [x], [])), AdomGuard())
        with pytest.raises(TypeError, match="no columnar executor"):
            vrun(plan, db)
        with pytest.raises(TypeError, match="no columnar executor"):
            vrun(AdomProduct((x,)), db)
        compiled = CompiledQuery(None, plan.cols, plan, ())
        assert columnar_rows(compiled, db) == {(1,)}

    def test_one_source_projection(self, monkeypatch):
        """pi[z, p](sigma z != t (X(z, p) join G(p, t))), the shape of
        every ``forall`` lowering's violators: the kept columns are all
        of X's, through one index vector, so the projection is X
        selected at the matched rows.  Nothing is deduplicated, and the
        join's ``p`` column, which no operator reads, is never
        gathered."""
        db = db_from({
            "X/2/1": [(1, "a"), (1, "b"), (2, "a"), (3, "c"), (3, "a")],
            "G/2/1": [("a", 1), ("a", 2), ("b", 1), ("c", 3), ("c", 5),
                      ("c", 7)],
        })
        join = Join(Scan(atom("X", [z], [p])), Scan(atom("G", [p], [t])))
        select = Select(join, ((("col", join.cols.index(z)),
                                ("col", join.cols.index(t)), False),))
        plan = Project(select, (z, p))
        dedups = []
        dedup = columnar_executor._dedup
        monkeypatch.setattr(columnar_executor, "_dedup",
                            lambda *a: dedups.append(1) or dedup(*a))
        executor = VectorExecutor(db)
        got = executor.run(plan).to_rows(executor.store.dictionary)
        assert got == rrun(plan, db)
        assert got == {(1, "a"), (2, "a"), (3, "c"), (3, "a")}
        assert dedups == []
        assert executor.run(join)._columns[join.cols.index(p)] is None

    def test_memoization_counts(self):
        db = db_from({"R/2/1": [(1, 2), (3, 4)]})
        scan = Scan(atom("R", [x], [y]))
        executor = VectorExecutor(db, profile=PlanProfile())
        first = executor.run(scan)
        assert executor.run(scan) is first
        # Structural scan memo: an equal but distinct Scan node hits too.
        assert executor.run(Scan(atom("R", [x], [y]))) is first


# ----------------------------------------------------------------------
# whole-query parity (hypothesis) and the boolean probe path
# ----------------------------------------------------------------------


QUERIES = {
    "qa(p)": (poll_qa, (p,)),
    "qb(p)": (poll_qb, (p,)),
    "q1(t)": (poll_q1, (t,)),
    "qa(p,t)": (poll_qa, (p, t)),
}


class TestCompiledParity:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_matches_tuple_executor(self, name, seed):
        make_query, free = QUERIES[name]
        db = random_poll_database(
            n_people=7, n_towns=3, conflict_rate=0.5,
            rng=random.Random(seed),
        )
        oq = OpenQuery(make_query(), list(free))
        compiled = plan_cache.get_or_compile(
            _guarded_open_rewriting(oq), db, oq.free
        )
        expected = compiled.rows(db)
        assert columnar_rows(compiled, db) == expected
        profile = PlanProfile()
        assert columnar_rows(compiled, db, profile=profile) == expected
        assert profile.stats_for(compiled.plan).batches >= 1

    def test_fuse_base_read_after_right_side_encodes(self):
        """Regression: the union-filter fold fused with a stale base.

        The fold captured ``base = len(dictionary)`` *before*
        running a guard's right side; that run encoded fresh values, so
        distinct key tuples collided under the too-small base and the
        guard kept a row it should not have (here: every method but
        columnar answered ``{(1,)}``, columnar answered ``{}``).  The
        shape needs evaluation order to matter, so the plan is run
        top-down, left side first, exactly as ``certain_answers`` does.
        """
        db = db_from({
            "Lives/2/1": [(1, 2)],
            "Likes/2/1": [(0, 1)],
            "Born/2/1": [],
        })
        oq = OpenQuery(poll_qa(), [p])
        compiled = plan_cache.get_or_compile(
            _guarded_open_rewriting(oq), db, oq.free
        )
        assert compiled.rows(db) == frozenset({(1,)})
        assert columnar_rows(compiled, db) == frozenset({(1,)})

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=15, deadline=None)
    def test_boolean_probe_delegation(self, seed):
        db = random_poll_database(
            n_people=5, n_towns=3, conflict_rate=0.6,
            rng=random.Random(seed),
        )
        from repro.cqa.rewriting import consistent_rewriting

        compiled = plan_cache.get_or_compile(
            consistent_rewriting(poll_qa()), db
        )
        before = columnar_stats()["boolean_probe_delegations"]
        assert columnar_holds(compiled, db) == compiled.holds(db)
        assert columnar_stats()["boolean_probe_delegations"] == before + 1


class TestProfileAttribution:
    """Per-operator self time (inclusive minus the direct children's
    inclusive, clamped at zero) must never count one stretch of work
    twice.  ``perf_counter`` becomes a tick counter, so the times are
    exact integers and the bound holds with no slack."""

    @pytest.mark.parametrize("name", ["qa(p)", "qb(p)"])
    def test_self_times_stay_within_the_root(self, name, monkeypatch):
        ticks = iter(range(10**9))
        monkeypatch.setattr(columnar_executor, "perf_counter",
                            lambda: float(next(ticks)))
        make_query, free = QUERIES[name]
        db = random_poll_database(n_people=60, n_towns=6,
                                  conflict_rate=0.5,
                                  rng=random.Random(3))
        oq = OpenQuery(make_query(), list(free))
        compiled = plan_cache.get_or_compile(
            _guarded_open_rewriting(oq), db, oq.free)
        profile = PlanProfile()
        assert columnar_rows(compiled, db, profile=profile) \
            == compiled.rows(db)
        nodes = list({id(node): node
                      for node in plan_nodes(compiled.plan)}.values())
        stats = profile.stats_for
        self_sum = sum(
            max(0.0, stats(node).seconds
                - sum(stats(c).seconds for c in node.children()))
            for node in nodes)
        assert 0 < self_sum <= profile.total_seconds(compiled.plan)
        unions = [node for node in nodes if type(node) is Union]
        assert unions
        assert all(stats(union).calls == 1 for union in unions)


# ----------------------------------------------------------------------
# cost-model routing for method="auto"
# ----------------------------------------------------------------------


class TestRouting:
    def _compiled(self, db, free=(p,)):
        oq = OpenQuery(poll_qa(), list(free))
        return plan_cache.get_or_compile(
            _guarded_open_rewriting(oq), db, oq.free
        )

    def test_small_database_stays_on_tuples(self, monkeypatch):
        db = random_poll_database(6, 3, conflict_rate=0.5,
                                  rng=random.Random(1))
        compiled = self._compiled(db)
        assert not prefer_columnar(compiled, db)

    def test_boolean_never_routes(self, monkeypatch):
        monkeypatch.setattr(columnar_executor, "COLUMNAR_MIN_FACTS", 0)
        db = random_poll_database(6, 3, conflict_rate=0.5,
                                  rng=random.Random(2))
        from repro.cqa.rewriting import consistent_rewriting

        compiled = plan_cache.get_or_compile(
            consistent_rewriting(poll_qa()), db
        )
        assert not prefer_columnar(compiled, db)

    def test_auto_upgrades_above_thresholds(self, monkeypatch):
        monkeypatch.setattr(columnar_executor, "COLUMNAR_MIN_FACTS", 0)
        db = random_poll_database(6, 3, conflict_rate=0.5,
                                  rng=random.Random(3))
        oq = OpenQuery(poll_qa(), [p])
        before = columnar_stats()["runs"]
        answers = certain_answers(oq, db, "auto")
        assert columnar_stats()["runs"] == before + 1
        assert answers == certain_answers(oq, db, "compiled")

    def test_adom_plan_keeps_tuples(self, monkeypatch):
        # An Adom* plan has no batch form (columnar would hand it to the
        # row executor), so auto leaves it there at any size.
        monkeypatch.setattr(columnar_executor, "COLUMNAR_MIN_FACTS", 0)
        db = random_poll_database(6, 3, conflict_rate=0.5,
                                  rng=random.Random(4))
        compiled = CompiledQuery(None, (p,), Project(AdomProduct((p,)), (p,)),
                                 ())
        assert compiled.uses_adom
        assert not prefer_columnar(compiled, db)
        assert prefer_columnar(self._compiled(db), db)

    def test_routing_reads_no_table_stats(self, monkeypatch):
        # Routing is three cheap gates: no cost estimate, so no scan of
        # the database, before or after a write.
        import repro.analysis.cost as cost

        def scan(db):
            raise AssertionError("prefer_columnar scanned the database")

        monkeypatch.setattr(cost, "table_stats", scan)
        monkeypatch.setattr(columnar_executor, "COLUMNAR_MIN_FACTS", 0)
        db = random_poll_database(6, 3, conflict_rate=0.5,
                                  rng=random.Random(5))
        compiled = self._compiled(db)
        assert prefer_columnar(compiled, db)
        db.add("Lives", ("p-new", "t0"))
        assert prefer_columnar(compiled, db)


# ----------------------------------------------------------------------
# QP103 and the plan --columnar CLI surface
# ----------------------------------------------------------------------


class TestQP103:
    def test_fires_on_adom_plan(self):
        from types import SimpleNamespace

        from repro.analysis import AnalysisContext, run_qp_rules

        plan = Project(AdomProduct((x,)), (x,))
        ctx = AnalysisContext(
            compiled=SimpleNamespace(plan=plan, free=(x,)), free=(x,)
        )
        found = [d for d in run_qp_rules(ctx) if d.code == "QP103"]
        assert len(found) == 1
        assert "method=columnar" in found[0].message

    def test_silent_without_adom(self):
        from repro.analysis import analyze_query

        report = analyze_query(poll_qa(), free=(p,))
        assert "QP103" not in {d.code for d in report.diagnostics}


QA_TEXT = "Lives(p | t), not Born(p | t), not Likes(p, t)"


class TestPlanColumnarCLI:
    @pytest.fixture
    def poll_file(self, tmp_path):
        db = random_poll_database(10, 4, conflict_rate=0.5,
                                  rng=random.Random(5))
        path = tmp_path / "poll.json"
        save_database(db, path)
        return str(path)

    def test_static_view_marks_batch_operators(self, capsys):
        assert main(["plan", QA_TEXT, "--free", "p", "--columnar"]) == 0
        out = capsys.readouterr().out
        assert "columnar: batch plan" in out and "handed" not in out
        assert main(["plan", QA_TEXT, "--columnar"]) == 0
        assert "short-circuit probe" in capsys.readouterr().out

    def test_analyze_prints_both_profiles(self, capsys, poll_file):
        assert main(["plan", QA_TEXT, "--free", "p", "--columnar",
                     "--analyze", "--db", poll_file]) == 0
        out = capsys.readouterr().out
        assert "row executor:" in out and "columnar executor:" in out
        assert "batches=" in out

    def test_analyze_json_is_schema_pinned(self, capsys, poll_file):
        assert main(["plan", QA_TEXT, "--free", "p", "--columnar",
                     "--analyze", "--db", poll_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"row", "columnar"}
        operator_def = TRACE_SCHEMA["$defs"]["operator"]
        for tree in payload.values():
            assert validate(tree, operator_def, root=TRACE_SCHEMA) == []
        assert payload["columnar"]["batches"] >= 1
        assert payload["row"]["batches"] == 0

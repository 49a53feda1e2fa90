"""Unit tests for the relational plan IR, its executor, the formula
lowering, and the plan cache."""

from __future__ import annotations

import pytest

from repro.core.atoms import atom
from repro.core.terms import Constant, Variable
from repro.cqa.engine import CertaintyEngine
from repro.db.database import Database
from repro.fo.compile import (
    CompileError,
    PlanCache,
    _combine,
    compile_formula,
    standardize_apart,
)
from repro.fo.eval import Evaluator
from repro.fo.formula import (
    And,
    AtomF,
    Eq,
    Exists,
    FALSE,
    Forall,
    Not,
    Or,
    TRUE,
)
from repro.fo.plan import (
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
    execute_plan,
    explain,
    plan_nodes,
)
from repro.workloads.queries import q3

from conftest import db_from

x, y, z = Variable("x"), Variable("y"), Variable("z")


def run(plan: Plan, db: Database, adom=None):
    if adom is None:
        adom = sorted(db.active_domain(), key=repr)
    return Executor(db, adom).run(plan)


class TestOperators:
    def test_scan_plain(self):
        db = db_from({"R/2/1": [(1, 2), (3, 4)]})
        plan = Scan(atom("R", [x], [y]))
        assert plan.cols == (x, y)
        assert run(plan, db) == {(1, 2), (3, 4)}

    def test_scan_constant_pushdown(self):
        db = db_from({"R/2/1": [(1, 2), (3, 4), (1, 5)]})
        plan = Scan(atom("R", [Constant(1)], [y]))
        assert plan.cols == (y,)
        assert run(plan, db) == {(2,), (5,)}

    def test_scan_repeated_variable(self):
        db = db_from({"R/2/1": [(1, 1), (1, 2), (3, 3)]})
        plan = Scan(atom("R", [x], [x]))
        assert plan.cols == (x,)
        assert run(plan, db) == {(1,), (3,)}

    def test_scan_unknown_relation_is_empty(self):
        db = db_from({"R/2/1": [(1, 2)]})
        assert run(Scan(atom("S", [x], [y])), db) == set()

    def test_literal(self):
        db = db_from({})
        assert run(Literal((), [()]), db) == {()}
        assert run(Literal((), []), db) == set()
        assert run(Literal((x,), [(7,)]), db) == {(7,)}

    def test_adom_product(self):
        db = db_from({"S/1/1": [(1,), (2,)]})
        assert run(AdomProduct((x,)), db) == {(1,), (2,)}
        assert run(AdomProduct((x, y)), db) == {
            (1, 1), (1, 2), (2, 1), (2, 2)
        }
        assert run(AdomProduct(()), db) == {()}

    def test_adom_guard(self):
        empty = db_from({"S/1/1": []})
        nonempty = db_from({"S/1/1": [(1,)]})
        assert run(AdomGuard(), empty) == set()
        assert run(AdomGuard(), nonempty) == {()}

    def test_adom_eq_is_diagonal(self):
        db = db_from({"S/1/1": [(1,), (2,)]})
        assert run(AdomEq(x, y), db) == {(1, 1), (2, 2)}
        with pytest.raises(PlanError):
            AdomEq(x, x)

    def test_select(self):
        db = db_from({"R/2/1": [(1, 1), (1, 2), (2, 2)]})
        scan = Scan(atom("R", [x], [y]))
        eq = Select(scan, [(("col", 0), ("col", 1), True)])
        neq = Select(scan, [(("col", 0), ("const", 1), False)])
        assert run(eq, db) == {(1, 1), (2, 2)}
        assert run(neq, db) == {(2, 2)}

    def test_project_reorders_and_dedupes(self):
        db = db_from({"R/2/1": [(1, 2), (1, 3)]})
        scan = Scan(atom("R", [x], [y]))
        assert run(Project(scan, (y, x)), db) == {(2, 1), (3, 1)}
        assert run(Project(scan, (x,)), db) == {(1,)}
        with pytest.raises(PlanError):
            Project(scan, (z,))

    def test_join_on_shared_column(self):
        db = db_from({"R/2/1": [(1, 2), (3, 4)], "S/2/1": [(2, 9), (5, 9)]})
        plan = Join(Scan(atom("R", [x], [y])), Scan(atom("S", [y], [z])))
        assert plan.cols == (x, y, z)
        assert run(plan, db) == {(1, 2, 9)}

    def test_join_without_shared_is_product(self):
        db = db_from({"R/1/1": [(1,), (2,)], "S/1/1": [(8,)]})
        plan = Join(Scan(atom("R", [x])), Scan(atom("S", [y])))
        assert run(plan, db) == {(1, 8), (2, 8)}

    def test_semi_and_anti_join(self):
        db = db_from({"R/2/1": [(1, 2), (3, 4)], "S/1/1": [(2,)]})
        left = Scan(atom("R", [x], [y]))
        right = Scan(atom("S", [y]))
        assert run(SemiJoin(left, right), db) == {(1, 2)}
        assert run(AntiJoin(left, right), db) == {(3, 4)}

    def test_union_and_difference(self):
        db = db_from({"R/1/1": [(1,), (2,)], "S/1/1": [(2,), (3,)]})
        r, s = Scan(atom("R", [x])), Scan(atom("S", [x]))
        assert run(Union([r, s]), db) == {(1,), (2,), (3,)}
        assert run(Difference(r, s), db) == {(1,)}
        with pytest.raises(PlanError):
            Union([r, Scan(atom("S", [y]))])
        with pytest.raises(PlanError):
            Difference(r, Scan(atom("S", [y])))

    def test_executor_memoizes_shared_subplans(self):
        db = db_from({"R/1/1": [(1,)]})
        shared = Project(Scan(atom("R", [x])), [x])
        plan = Union([shared, shared])
        ex = Executor(db, (1,))
        ex.run(plan)
        assert id(shared) in ex._memo

    def test_executor_memoizes_scans_structurally(self):
        # Same relation/pattern under different variable names is
        # materialized once: the rows do not depend on column names.
        db = db_from({"R/2/1": [(1, 2), (3, 4)]})
        a, b = Scan(atom("R", [x], [y])), Scan(atom("R", [y], [z]))
        ex = Executor(db, (1, 2, 3, 4))
        assert ex.run(a) == ex.run(b)
        assert sum(1 for k in ex._memo if isinstance(k, tuple)) == 1

    def test_explain_renders_every_node(self):
        plan = AntiJoin(Scan(atom("R", [x], [y])), Scan(atom("S", [y])))
        text = explain(plan)
        assert "AntiJoin on [y]" in text
        assert "Scan R(x, y)" in text
        assert len(text.splitlines()) == len(list(plan_nodes(plan)))


class TestCompile:
    def test_standardize_apart_renames_shadowed_binders(self):
        f = Exists((x,), And((AtomF(atom("R", [x])),
                              Exists((x,), AtomF(atom("S", [x]))))))
        renamed = standardize_apart(f)

        def binders(g):
            if isinstance(g, (Exists, Forall)):
                for v in g.vars:
                    yield v.name
                yield from binders(g.sub)
            elif isinstance(g, (And, Or)):
                for s in g.subs:
                    yield from binders(s)
            elif isinstance(g, Not):
                yield from binders(g.sub)
        names = list(binders(renamed))
        assert len(names) == len(set(names)) == 2

    def test_boolean_sentence(self):
        f = Exists((x, y), And((AtomF(atom("R", [x], [y])),
                                Not(AtomF(atom("S", [y]))))))
        db_true = db_from({"R/2/1": [(1, 2)], "S/1/1": []})
        db_false = db_from({"R/2/1": [(1, 2)], "S/1/1": [(2,)]})
        compiled = compile_formula(f)
        assert compiled.free == ()
        assert compiled.holds(db_true)
        assert not compiled.holds(db_false)

    def test_open_formula_returns_assignments(self):
        f = And((AtomF(atom("R", [x], [y])), Not(AtomF(atom("S", [y])))))
        db = db_from({"R/2/1": [(1, 2), (3, 4)], "S/1/1": [(4,)]})
        compiled = compile_formula(f, (y, x))
        assert compiled.free == (y, x)
        assert compiled.rows(db) == {(2, 1)}

    def test_free_superset_ranges_over_adom(self):
        f = AtomF(atom("R", [x]))
        db = db_from({"R/1/1": [(1,)], "S/1/1": [(2,)]})
        compiled = compile_formula(f, (x, y))
        assert compiled.rows(db) == {(1, 1), (1, 2)}

    def test_free_must_cover_and_be_distinct(self):
        f = AtomF(atom("R", [x], [y]))
        with pytest.raises(CompileError):
            compile_formula(f, (x,))
        with pytest.raises(CompileError):
            compile_formula(f, (x, x, y))

    def test_vacuous_exists_on_empty_domain(self):
        # exists x TRUE is false on an empty active domain.
        f = Exists((x,), TRUE)
        assert not compile_formula(f).holds(db_from({"S/1/1": []}))
        assert compile_formula(f).holds(db_from({"S/1/1": [(1,)]}))

    def test_vacuous_forall_on_empty_domain(self):
        # forall x FALSE is vacuously true on an empty active domain.
        f = Forall((x,), FALSE)
        assert compile_formula(f).holds(db_from({"S/1/1": []}))
        assert not compile_formula(f).holds(db_from({"S/1/1": [(1,)]}))

    def test_formula_constants_enter_the_domain(self):
        # exists x (x = 5) is true even on an empty database, because
        # the active domain includes the formula's constants.
        f = Exists((x,), Eq(x, Constant(5)))
        assert compile_formula(f).holds(db_from({"S/1/1": []}))

    def test_forall_guarded_division(self):
        # forall y (not R(x, y) or S(y)): every R-neighbour is in S.
        f = Forall((y,), Or((Not(AtomF(atom("R", [x], [y]))),
                             AtomF(atom("S", [y])))))
        db = db_from({"R/2/1": [(1, 2), (1, 3), (4, 2)], "S/1/1": [(2,)]})
        compiled = compile_formula(f, (x,))
        expected = {
            (v,) for v in db.active_domain()
            if Evaluator(f, db).evaluate({x: v})
        }
        assert compiled.rows(db) == expected

    def test_shadowed_quantifier_matches_evaluator(self):
        f = Exists((x,), And((AtomF(atom("R", [x])),
                              Exists((x,), AtomF(atom("S", [x]))))))
        for spec in (
            {"R/1/1": [(1,)], "S/1/1": [(2,)]},
            {"R/1/1": [(1,)], "S/1/1": []},
            {"R/1/1": [], "S/1/1": [(2,)]},
        ):
            db = db_from(spec)
            assert compile_formula(f).holds(db) == Evaluator(f, db).evaluate()

    def test_disequality_filter(self):
        f = And((AtomF(atom("R", [x], [y])), Not(Eq(x, y))))
        db = db_from({"R/2/1": [(1, 1), (1, 2)]})
        assert compile_formula(f, (x, y)).rows(db) == {(1, 2)}

    def test_combine_drops_a_semijoin_only_when_it_keeps_every_row(self):
        r_xy = Scan(atom("R", [x], [y]))
        # x at position 0 in both atoms: every R(x, y) fact is its own
        # witness, so the wider side is the conjunction.
        assert _combine(r_xy, Project(Scan(atom("R", [x], [z])), (x,))) \
            is r_xy
        wide = Scan(atom("R", [x], [z]))
        assert _combine(Project(r_xy, (x,)), wide) is wide
        # y sits at position 1 here and 0 there; a constant or another
        # relation changes the facts: the semi-join stays.
        for narrow in (Project(Scan(atom("R", [y], [z])), (y,)),
                       Project(Scan(atom("R", [x], [Constant(1)])), (x,)),
                       Project(Scan(atom("S", [x], [z])), (x,))):
            assert type(_combine(r_xy, narrow)) is SemiJoin

    def test_same_relation_at_other_positions_still_filters(self):
        # R(x, y) and R(y, x): the shortcut must not fire.
        f = And((AtomF(atom("R", [x], [y])), AtomF(atom("R", [y], [x]))))
        db = db_from({"R/2/1": [(1, 2), (2, 1), (3, 4)]})
        assert compile_formula(f, (x, y)).rows(db) == {(1, 2), (2, 1)}

    def test_poll_qa_plan_semijoins_no_relation_with_itself(self):
        from repro.cqa.certain_answers import (
            OpenQuery,
            _guarded_open_rewriting,
        )
        from repro.workloads.queries import poll_qa

        p = Variable("p")
        compiled = compile_formula(
            _guarded_open_rewriting(OpenQuery(poll_qa(), [p])), (p,))
        nodes = list(plan_nodes(compiled.plan))
        assert len(nodes) == 11

        def relation(node):
            while type(node) is Project:
                node = node.child
            return node.atom.relation if type(node) is Scan else None

        semijoins = [node for node in nodes if type(node) is SemiJoin]
        assert semijoins
        for node in semijoins:
            left = relation(node.left)
            assert left is None or left != relation(node.right), node


class TestPlanCache:
    def _formula(self):
        return Exists((x, y), AtomF(atom("R", [x], [y])))

    def test_hit_and_miss_counters(self):
        cache = PlanCache(maxsize=4)
        db = db_from({"R/2/1": [(1, 2)]})
        f = self._formula()
        first = cache.get_or_compile(f, db)
        second = cache.get_or_compile(f, db)
        assert first is second
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 1

    def test_schema_change_invalidates(self):
        cache = PlanCache(maxsize=4)
        f = self._formula()
        cache.get_or_compile(f, db_from({"R/2/1": [(1, 2)]}))
        # Same relation name, different key: a different signature.
        cache.get_or_compile(f, db_from({"R/2/2": [(1, 2)]}))
        assert cache.stats()["misses"] == 2
        assert cache.stats()["hits"] == 0
        # Data changes without schema changes still hit.
        cache.get_or_compile(f, db_from({"R/2/1": [(3, 4), (5, 6)]}))
        assert cache.stats()["hits"] == 1

    def test_missing_relation_is_part_of_signature(self):
        cache = PlanCache(maxsize=4)
        f = self._formula()
        cache.get_or_compile(f, db_from({}))
        cache.get_or_compile(f, db_from({"R/2/1": []}))
        assert cache.stats()["misses"] == 2

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=1)
        db = db_from({"R/2/1": [], "S/1/1": []})
        f1 = Exists((x, y), AtomF(atom("R", [x], [y])))
        f2 = Exists((x,), AtomF(atom("S", [x])))
        cache.get_or_compile(f1, db)
        cache.get_or_compile(f2, db)
        assert cache.stats()["evictions"] == 1
        assert len(cache) == 1
        # f1 was evicted: recompiling it is a miss again.
        cache.get_or_compile(f1, db)
        assert cache.stats()["misses"] == 3

    def test_clear_resets(self):
        cache = PlanCache(maxsize=4)
        db = db_from({"R/2/1": []})
        cache.get_or_compile(self._formula(), db)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["misses"] == 0

    def test_engine_stats_hook_observes_hits(self):
        engine = CertaintyEngine(q3())
        db = db_from({"P/2/1": [(1, "a")], "N/2/1": []})
        before = engine.metrics().plan_cache["hits"]
        engine.certain(db, "compiled")
        engine.certain(db, "compiled")
        after = engine.metrics().plan_cache["hits"]
        assert after >= before + 1


class TestProbe:
    """The executor's short-circuit mode: probe/nonempty answer
    emptiness questions without materializing intermediate results."""

    def _db(self):
        return db_from({
            "R/2/1": [(i, i + 1) for i in range(50)],
            "S/2/1": [(i, i + 1) for i in range(0, 50, 2)],
        })

    def test_probe_matches_materialized_membership(self):
        db = self._db()
        plan = Scan(atom("R", [x], [y]))
        ex = Executor(db, sorted(db.active_domain(), key=repr))
        assert ex.probe(plan, {x: 4, y: 5})
        assert not ex.probe(plan, {x: 4, y: 6})
        assert ex.probe(plan, {}) == bool(ex.run(plan))

    def test_probe_does_not_materialize(self):
        db = self._db()
        plan = Difference(Scan(atom("R", [x], [y])),
                          Scan(atom("S", [x], [y])))
        ex = Executor(db, sorted(db.active_domain(), key=repr))
        assert ex.nonempty(plan)
        assert id(plan) not in ex._memo  # answered lazily, never ran

    def test_nonempty_reuses_materialized_runs(self):
        db = self._db()
        plan = Project(Scan(atom("R", [x], [y])), (x,))
        ex = Executor(db, sorted(db.active_domain(), key=repr))
        ex.run(plan)
        assert id(plan) in ex._memo  # Scans memoize structurally, Projects by id
        assert ex.nonempty(plan)

    @pytest.mark.parametrize("rows,expected", [
        ([(1, 2)], True),
        ([], False),
    ])
    def test_execute_plan_nonempty_sentence(self, rows, expected):
        from repro.fo.plan import execute_plan_nonempty

        db = db_from({"R/2/1": rows})
        plan = Project(Scan(atom("R", [x], [y])), ())
        assert execute_plan_nonempty(plan, db, ()) is expected

    def test_probe_through_joins_and_antijoins(self):
        db = self._db()
        joined = Join(Scan(atom("R", [x], [y])), Scan(atom("S", [y], [z])))
        ex = Executor(db, sorted(db.active_domain(), key=repr))
        reference = ex2 = Executor(db, sorted(db.active_domain(), key=repr))
        rows = reference.run(joined)
        for binding in ({x: 1, y: 2}, {x: 1, y: 3}, {z: 3}, {}):
            want = any(
                all(row[joined.cols.index(c)] == v for c, v in binding.items())
                for row in rows
            )
            assert ex.probe(joined, binding) == want, binding
        anti = AntiJoin(Scan(atom("R", [x], [y])), Scan(atom("S", [x], [y])))
        anti_rows = reference.run(anti)
        assert ex.probe(anti, {x: 1}) == any(r[0] == 1 for r in anti_rows)
        assert ex.probe(anti, {x: 2}) == any(r[0] == 2 for r in anti_rows)

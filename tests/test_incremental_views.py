"""Tests for the incremental materialized-view subsystem: Views,
ViewManager, the delta engine's visible behavior, and the engine API."""

import pytest

from repro.core.parser import parse_query
from repro.core.terms import Constant, Variable
from repro.cqa.certain_answers import OpenQuery, certain_answers
from repro.cqa.engine import CertaintyEngine
from repro.cqa.rewriting import NotInFO
from repro.core.atoms import RelationSchema, atom
from repro.core.query import Query
from repro.db.database import BatchError
from repro.fo.compile import compile_formula
from repro.fo.formula import AtomF, Eq, make_and, make_not
from repro.fo.plan import Join, Literal, Plan, Project, Scan, Select
from repro.incremental import (
    DeltaError,
    IncrementalPlan,
    StaleVersionError,
    ViewManager,
    view_manager,
    view_stats,
)
from repro.obs import reset_metrics
from repro.storage import PersistentDatabase
from repro.workloads.queries import poll_qa, q3

from conftest import db_from

x, y, z, p = Variable("x"), Variable("y"), Variable("z"), Variable("p")


def q3_db():
    """q3 = P(x|y), not N('c'|y); x=1 is NOT certain here: the repair
    keeping N(c,a) refutes the only witness P(1,a)."""
    return db_from({"P/2/1": [(1, "a")], "N/2/1": [("c", "a"), ("c", "b")]})


def cyclic_query() -> Query:
    return Query([atom("R", [x], [y])], [atom("S", [y], [x])])


class TestViewMaintenance:
    def test_initial_answers_match_recompute(self):
        db = q3_db()
        view = ViewManager(db).register_view(q3(), [x])
        assert view.answers == certain_answers(OpenQuery(q3(), [x]), db,
                                               "compiled")
        assert view.answers == frozenset()

    def test_insertion_adds_answer(self):
        db = q3_db()
        view = ViewManager(db).register_view(q3(), [x])
        db.add("P", (2, "z"))  # z is outside N's c-block: certain
        assert view.answers == {(2,)}

    def test_retraction_induced_insertion(self):
        # Deleting N(c,a) collapses the block to {N(c,b)}: every repair
        # now keeps N(c,b), the witness P(1,a) survives, x=1 turns
        # certain.  A deletion *inserting* an answer is the anti-join
        # delta case the subsystem exists for.
        db = q3_db()
        view = ViewManager(db).register_view(q3(), [x])
        v0 = view.version
        db.discard("N", ("c", "a"))
        assert view.answers == {(1,)}
        assert view.changed_since(v0) == ({(1,)}, frozenset())
        assert certain_answers(OpenQuery(q3(), [x]), db, "brute") == {(1,)}

    def test_insertion_induced_deletion(self):
        db = q3_db()
        db.discard("N", ("c", "a"))
        view = ViewManager(db).register_view(q3(), [x])
        assert view.answers == {(1,)}
        db.add("N", ("c", "a"))  # block regrows: x=1 loses certainty
        assert view.answers == frozenset()

    def test_boolean_view_flips_both_ways(self):
        db = q3_db()
        view = ViewManager(db).register_view(q3())
        assert not view.holds
        db.discard("N", ("c", "a"))
        assert view.holds
        db.add("N", ("c", "a"))
        assert not view.holds

    def test_unrelated_relation_commits_are_skipped(self):
        db = q3_db()
        db.add_relation(RelationSchema("Z", 1, 1))
        view = ViewManager(db).register_view(q3(), [x])
        before = view.stats()["deltas_applied"]
        db.add("Z", (7,))
        assert view.stats()["deltas_applied"] == before
        assert view.version == db.clock  # still advances with the clock


class TestBatches:
    def test_batch_applies_net_effect_once(self):
        db = q3_db()
        view = ViewManager(db).register_view(q3(), [x])
        applied = view.stats()["deltas_applied"]
        with db.batch():
            db.add("P", (2, "z"))
            db.discard("N", ("c", "a"))
        assert view.answers == {(1,), (2,)}
        assert view.stats()["deltas_applied"] == applied + 1

    def test_cancelling_batch_leaves_no_history(self):
        db = q3_db()
        view = ViewManager(db).register_view(q3(), [x])
        v0 = view.version
        with db.batch():
            db.add("P", (2, "z"))
            db.discard("P", (2, "z"))
        assert view.answers == frozenset()
        assert view.changed_since(v0) == (frozenset(), frozenset())


class TestOpenBatch:
    """A view is built from the database as it stands.  Inside an open
    batch that state already shows the staged rows, and the commit would
    deliver them to the view a second time, so registration is refused."""

    LIVES_NOT_BORN = "Lives(p | t), not Born(p | t)"

    def lives_db(self):
        return db_from({"Lives/2/1": [("a", "x"), ("b", "y")],
                        "Born/2/1": [("b", "z")]})

    def register(self, db):
        return ViewManager(db).register_view(
            parse_query(self.LIVES_NOT_BORN), [p])

    def assert_tracks_compiled(self, db, view):
        oq = OpenQuery(parse_query(self.LIVES_NOT_BORN), [p])
        assert view.answers == certain_answers(oq, db, "compiled")

    def test_staged_insert_refuses_registration(self):
        db = self.lives_db()
        db.begin_batch()
        db.add("Lives", ("c", "x"))
        with pytest.raises(BatchError, match="open batch"):
            self.register(db)
        db.commit()
        view = self.register(db)
        db.discard("Lives", ("c", "x"))
        assert view.answers == {("a",), ("b",)}
        self.assert_tracks_compiled(db, view)

    def test_staged_discard_refuses_registration(self):
        db = self.lives_db()
        db.begin_batch()
        db.discard("Lives", ("a", "x"))
        with pytest.raises(BatchError, match="open batch"):
            self.register(db)
        db.commit()
        view = self.register(db)
        assert view.answers == {("b",)}
        db.add("Lives", ("a", "x"))
        self.assert_tracks_compiled(db, view)

    def test_refused_store_registration_keeps_the_manifest(self, tmp_path):
        store = PersistentDatabase(tmp_path / "store")
        for name in ("Lives", "Born"):
            store.add_relation(RelationSchema(name, 2, 1))
        store.add("Lives", ("a", "x"))
        store.register_view(parse_query(self.LIVES_NOT_BORN), [p])
        manifest = store.path / "views.json"
        before = manifest.read_bytes()
        store.begin_batch()
        store.add("Lives", ("c", "x"))
        with pytest.raises(BatchError):
            store.register_view(parse_query("Lives(p | t)"), [p])
        store.commit()
        assert manifest.read_bytes() == before
        assert len(store.views) == 1
        store.close()
        reopened = PersistentDatabase(tmp_path / "store")
        assert reopened.storage_status()["views"] == 1
        reopened.close()


class TestChangedSince:
    def test_net_merge_across_commits(self):
        db = q3_db()
        view = ViewManager(db).register_view(q3(), [x])
        v0 = view.version
        db.add("P", (2, "z"))       # +(2,)
        db.discard("N", ("c", "a"))  # +(1,)
        db.discard("P", (2, "z"))   # -(2,): nets out against the insert
        ins, dels = view.changed_since(v0)
        assert ins == {(1,)}
        assert dels == frozenset()

    def test_current_version_reports_empty(self):
        db = q3_db()
        view = ViewManager(db).register_view(q3(), [x])
        db.discard("N", ("c", "a"))
        assert view.changed_since(view.version) == (frozenset(), frozenset())

    def test_delete_nets_against_earlier_insert_window(self):
        db = q3_db()
        view = ViewManager(db).register_view(q3(), [x])
        db.discard("N", ("c", "a"))
        v_mid = view.version
        db.add("N", ("c", "a"))
        assert view.changed_since(v_mid) == (frozenset(), {(1,)})

    def test_stale_version_raises(self):
        db = q3_db()
        manager = ViewManager(db)
        manager.history_limit = 1
        view = manager.register_view(q3(), [x])
        v0 = view.version
        db.discard("N", ("c", "a"))
        db.add("N", ("c", "a"))  # second changing commit trims the first
        with pytest.raises(StaleVersionError):
            view.changed_since(v0)


class TestLifecycle:
    def test_unregister_freezes_view(self):
        db = q3_db()
        manager = ViewManager(db)
        view = manager.register_view(q3(), [x])
        manager.unregister(view)
        db.discard("N", ("c", "a"))
        assert view.answers == frozenset()  # frozen at unregister time
        assert view not in manager.views

    def test_close_detaches_from_database(self):
        db = q3_db()
        manager = ViewManager(db)
        view = manager.register_view(q3(), [x])
        manager.close()
        db.discard("N", ("c", "a"))
        assert view.answers == frozenset()

    def test_view_manager_singleton_per_database(self):
        db = q3_db()
        assert view_manager(db) is view_manager(db)

    def test_register_rejects_cyclic_query(self):
        db = db_from({"R/2/1": [], "S/2/1": []})
        with pytest.raises(NotInFO):
            ViewManager(db).register_view(cyclic_query())


class TestEngineAPI:
    def test_register_boolean_view(self):
        db = q3_db()
        engine = CertaintyEngine(q3())
        view = engine.register_view(db)
        assert view.holds == engine.certain(db, "compiled")
        db.discard("N", ("c", "a"))
        assert view.holds
        assert engine.certain(db, "compiled")

    def test_register_open_view(self):
        db = db_from({
            "Lives/2/1": [("ann", "mons"), ("ann", "paris")],
            "Born/2/1": [("ann", "rome")],
            "Likes/2/2": [],
        })
        engine = CertaintyEngine(poll_qa())
        view = engine.register_view(db, [Variable("p")])
        oq = OpenQuery(poll_qa(), [Variable("p")])
        assert view.answers == certain_answers(oq, db, "compiled")
        db.add("Likes", ("ann", "mons"))
        db.add("Likes", ("ann", "paris"))
        assert view.answers == certain_answers(oq, db, "compiled")

    def test_register_view_rejects_non_fo(self):
        db = db_from({"R/2/1": [], "S/2/1": []})
        with pytest.raises(NotInFO):
            CertaintyEngine(cyclic_query()).register_view(db)

    def test_register_open_view_of_cyclic_boolean_query(self):
        # The paper's q1: the Boolean query's attack graph is cyclic,
        # but with x free its grounding is in FO.  The engine must
        # check the open query, as view_manager().register_view does.
        db = db_from({"R/2/1": [("a", "b"), ("c", "d")],
                      "S/2/1": [("d", "c")]})
        engine = CertaintyEngine(cyclic_query())
        view = engine.register_view(db, [x])
        oq = OpenQuery(cyclic_query(), [x])
        assert view.answers == certain_answers(oq, db, "compiled") \
            == {("a",)}
        db.discard("S", ("d", "c"))
        assert view.answers == certain_answers(oq, db, "brute") \
            == {("a",), ("c",)}

    def test_engine_view_stats_shape(self):
        stats = CertaintyEngine(q3()).metrics().views
        assert set(stats) == {"views_registered", "commits_seen",
                              "deltas_applied", "rows_touched",
                              "fallback_recomputes"}


class TestStats:
    def test_global_counters_advance(self):
        reset_metrics()
        db = q3_db()
        view = ViewManager(db).register_view(q3(), [x])
        db.discard("N", ("c", "a"))
        stats = view_stats()
        assert stats["views_registered"] == 1
        assert stats["commits_seen"] == 1
        assert stats["deltas_applied"] == 1
        assert stats["rows_touched"] >= 1
        assert stats["fallback_recomputes"] == 0
        assert view.answers == {(1,)}
        reset_metrics()
        assert view_stats()["commits_seen"] == 0

    def test_manager_stats_shape(self):
        db = q3_db()
        manager = ViewManager(db)
        manager.register_view(q3(), [x])
        db.add("P", (2, "z"))
        stats = manager.stats()
        assert stats["views"] == 1
        assert stats["commits_seen"] == 1
        assert stats["deltas_applied"] == 1
        assert stats["rows_touched"] >= 1


class TestStateShape:
    """Each operator keeps only what its delta rule reads: the root
    keeps the output rows, Scan, Select and Literal keep nothing."""

    #: ``R(x | y) ∧ R(y | z) ∧ x ≠ z ∧ z = 1``: a Select over a Join
    #: whose left input semi-joins a Literal.
    JOIN_FORMULA = make_and([AtomF(atom("R", [x], [y])),
                             AtomF(atom("R", [y], [z])),
                             make_not(Eq(x, z)), Eq(z, Constant(1))])

    def test_only_delta_rule_state_is_kept(self):
        db = db_from({
            "Lives/2/1": [("ann", "mons"), ("ann", "paris"), ("bob", "rome")],
            "Born/2/1": [("ann", "rome")],
            "Likes/2/2": [("bob", "rome")],
            "R/2/1": [(0, 1), (1, 1), (2, 0)],
        })
        manager = ViewManager(db)
        views = [
            manager.register_view(poll_qa(), [p]),
            manager.register_formula(self.JOIN_FORMULA, [x, y, z]),
        ]
        kinds = set()
        for view in views:
            inc = view.incremental
            for node in inc._order:
                kinds.add(type(node))
                if type(node) in (Scan, Select, Literal):
                    assert id(node) not in inc._state, node
            for state in inc._state.values():
                assert not hasattr(state, "rows")
        assert {Scan, Select, Literal, Join} <= kinds
        assert views[1].answers == {(0, 1, 1), (2, 0, 1)}
        with db.batch():
            db.add("Likes", ("ann", "mons"))
            db.add("R", (1, 2))
        db.discard("Likes", ("bob", "rome"))
        db.discard("R", (2, 0))
        db.add("R", (0, 2))
        for view in views:
            compiled = compile_formula(view.formula, view.free)
            assert view.incremental.rows == compiled.rows(db)
        assert views[1].answers == {(0, 1, 1)}


class TestAdomFallback:
    def test_negated_atom_formula_tracks_active_domain(self):
        # ¬R(x,y) with x,y free compiles to active-domain operators; the
        # view re-executes on every commit, because the domain moves.
        db = db_from({"R/2/1": [(1, 2)]})
        manager = ViewManager(db)
        formula = make_not(AtomF(atom("R", [x], [y])))
        view = manager.register_formula(formula, [x, y])
        assert view.incremental.uses_adom
        compiled = compile_formula(formula, (x, y))
        assert view.answers == compiled.rows(db)
        db.add("R", (3, 3))  # widens the active domain
        assert view.answers == compiled.rows(db)
        assert view.stats()["fallback_recomputes"] > 0
        db.discard("R", (3, 3))  # shrinks it again
        assert view.answers == compiled.rows(db)
        assert view.answers == {(1, 1), (2, 1), (2, 2)}

    def test_commit_to_an_unread_relation_moves_the_answers(self):
        # S is not in the formula, but its facts are in the active
        # domain: a view that skipped the commit would miss (7, 7).
        db = db_from({"R/2/1": [(1, 2)], "S/1/1": []})
        manager = ViewManager(db)
        formula = make_not(AtomF(atom("R", [x], [y])))
        view = manager.register_formula(formula, [x, y])
        compiled = compile_formula(formula, (x, y))
        for change in (lambda: db.add("S", (7,)),
                       lambda: db.discard("S", (7,))):
            before = view.stats()["fallback_recomputes"]
            change()
            assert view.answers == compiled.rows(db)
            assert view.stats()["fallback_recomputes"] == before + 1
        db.add("S", (7,))
        assert (7, 7) in view.answers
        assert manager.stats()["commits_seen"] == 3

    def test_node_without_delta_rule_is_refused(self):
        class OpaquePlan(Plan):
            __slots__ = ()

            def __init__(self):
                super().__init__((x,))

        db = db_from({"R/2/1": [(1, 2)]})
        with pytest.raises(DeltaError, match="no delta rule"):
            IncrementalPlan(Project(OpaquePlan(), (x,)), db)

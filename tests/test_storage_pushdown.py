"""SQL pushdown: the integer-encoded mirror and the routing gate.

The mirror must stay delta-consistent with its database (one
transaction per changelog batch, clock + dictionary + active-domain
refcounts recorded alongside), rebuild exactly when its recorded clock,
format, or persisted dictionary diverges, and the ``prefer_sql`` gate
must route to it only for persistent stores above the size threshold —
``Adom*``-bearing plans included, served by the ``repro_adom`` table.
A plain in-memory database gets a private ``:memory:`` mirror when
``method="sql"`` asks for one.
"""

from __future__ import annotations

import types

import pytest

from repro.core.atoms import RelationSchema
from repro.core.parser import parse_query
from repro.core.terms import Variable
from repro.cqa.certain_answers import OpenQuery, certain_answers
from repro.cqa.engine import CertaintyEngine
from repro.fo.compile import plan_cache
from repro.fo.plan import (
    AdomEq,
    AdomGuard,
    AdomProduct,
    Join,
    Plan,
    PlanError,
    Project,
    Scan,
    execute_plan,
)
from repro.db.database import Database
from repro.fo.sql import table_name
from repro.workloads.queries import poll_qa
from repro.storage import (
    PersistentDatabase,
    mirror_capable,
    native_sql_answers,
    prefer_sql,
    reset_storage_stats,
    sql_mirror,
    storage_stats,
)
from repro.storage import pushdown

QUERY = "R(x | y), not S(y | x)"

#: poll_qa's schemas, for the tests that need a compiled Boolean plan.
POLL_SCHEMAS = (RelationSchema("Lives", 2, 1), RelationSchema("Born", 2, 1),
                RelationSchema("Likes", 2, 2))

x, y = Variable("x"), Variable("y")


@pytest.fixture(autouse=True)
def _fresh_stats():
    reset_storage_stats()
    yield
    reset_storage_stats()


def make_store(path):
    db = PersistentDatabase(path)
    db.add_relation(RelationSchema("R", 2, 1))
    db.add_relation(RelationSchema("S", 2, 1))
    return db


def make_poll_store(path):
    db = PersistentDatabase(path)
    for schema in POLL_SCHEMAS:
        db.add_relation(schema)
    return db


def mirror_rows(mirror, relation):
    """The mirror's rows for one relation, decoded back to values
    (the mirror stores dictionary codes in INTEGER columns)."""
    cur = mirror.conn.execute(f"SELECT * FROM {table_name(relation)}")
    decode = mirror.dictionary.decode
    return {tuple(decode(code) for code in row) for row in cur.fetchall()}


def adom_values(mirror):
    """The decoded contents of the maintained active-domain table."""
    cur = mirror.conn.execute("SELECT code FROM repro_adom")
    return {mirror.dictionary.decode(code) for (code,) in cur.fetchall()}


def fake_compiled(plan, constants=(), free=None):
    """A CompiledQuery stand-in for synthetic plans."""
    return types.SimpleNamespace(
        plan=plan, constants=tuple(constants),
        free=tuple(plan.cols if free is None else free))


class TestMirror:
    def test_rebuild_then_delta_consistency(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add_all("R", [("a", "1"), ("b", "2")])
        mirror = sql_mirror(db)
        assert storage_stats()["pushdown"]["mirror_rebuilds"] == 1
        assert mirror_rows(mirror, "R") == {("a", "1"), ("b", "2")}

        db.add("R", ("c", "3"))
        db.discard("R", ("a", "1"))
        with db.batch():
            db.add("S", ("9", "z"))
            db.add("S", ("8", "y"))
        assert mirror_rows(mirror, "R") == {("b", "2"), ("c", "3")}
        assert mirror_rows(mirror, "S") == {("9", "z"), ("8", "y")}
        assert mirror.clock == db.clock
        # Deltas, not rebuilds, carried all of that.
        assert storage_stats()["pushdown"]["mirror_rebuilds"] == 1
        db.close()

    def test_adom_table_tracks_active_domain(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add_all("R", [("a", "1"), ("a", "2")])
        mirror = sql_mirror(db)
        assert adom_values(mirror) == {"a", "1", "2"}
        # "a" occurs twice: deleting one occurrence must keep it.
        db.discard("R", ("a", "1"))
        assert adom_values(mirror) == {"a", "2"}
        db.add("S", ("1", "z"))
        assert adom_values(mirror) == {"a", "2", "1", "z"}
        db.discard("R", ("a", "2"))
        assert adom_values(mirror) == {"1", "z"}
        db.close()

    def test_reattach_at_matching_clock_skips_rebuild(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add("R", ("a", "1"))
        sql_mirror(db)
        db.close()
        reset_storage_stats()

        # A fresh process has an empty in-process dictionary; the
        # persisted repro_dict replays into it code-for-code, so the
        # integer columns stay meaningful without a rebuild.
        db2 = PersistentDatabase(tmp_path / "store")
        mirror = sql_mirror(db2)
        assert storage_stats()["pushdown"]["mirror_rebuilds"] == 0
        assert mirror_rows(mirror, "R") == {("a", "1")}
        db2.close()

    def test_diverged_dictionary_rebuilds(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add_all("R", [("a", "1"), ("b", "2")])
        sql_mirror(db)
        db.close()
        reset_storage_stats()

        db2 = PersistentDatabase(tmp_path / "store")
        # Prime the in-process dictionary in a different first-seen
        # order than the persisted one before the mirror attaches.
        from repro.columnar.dictionary import columnar_store

        columnar_store(db2).dictionary.encode("something-new")
        mirror = sql_mirror(db2)
        assert storage_stats()["pushdown"]["mirror_rebuilds"] == 1
        assert mirror_rows(mirror, "R") == {("a", "1"), ("b", "2")}
        db2.close()

    def test_stale_mirror_rebuilds(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add("R", ("a", "1"))
        sql_mirror(db)
        db.close()
        # Mutate without attaching the mirror: its clock goes stale.
        db2 = PersistentDatabase(tmp_path / "store")
        db2.add("R", ("b", "2"))
        db2.close()
        reset_storage_stats()

        db3 = PersistentDatabase(tmp_path / "store")
        mirror = sql_mirror(db3)
        assert storage_stats()["pushdown"]["mirror_rebuilds"] == 1
        assert mirror_rows(mirror, "R") == {("a", "1"), ("b", "2")}
        db3.close()

    def test_old_text_mirror_format_rebuilds(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add("R", ("a", "1"))
        mirror = sql_mirror(db)
        # Forge a pre-integer mirror: wrong format marker, same clock.
        mirror.conn.execute(
            "INSERT OR REPLACE INTO repro_meta VALUES ('format', '1')")
        mirror.conn.commit()
        db.close()
        reset_storage_stats()

        db2 = PersistentDatabase(tmp_path / "store")
        mirror2 = sql_mirror(db2)
        assert storage_stats()["pushdown"]["mirror_rebuilds"] == 1
        assert mirror_rows(mirror2, "R") == {("a", "1")}
        db2.close()

    def test_tables_are_integer_with_indexes(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add("R", ("a", "1"))
        mirror = sql_mirror(db)
        cols = mirror.conn.execute('PRAGMA table_info("R")').fetchall()
        assert [c[2] for c in cols] == ["INTEGER", "INTEGER"]
        # key_size 1 < arity 2: a non-key suffix index exists.
        indexes = mirror.conn.execute(
            "SELECT name FROM sqlite_master "
            "WHERE type = 'index' AND tbl_name = 'R'").fetchall()
        assert any("suffix" in name for (name,) in indexes)
        db.close()

    def test_new_relation_after_attach(self, tmp_path):
        db = make_store(tmp_path / "store")
        mirror = sql_mirror(db)
        db.add_relation(RelationSchema("T", 1, 1))
        db.add("T", ("t",))
        assert mirror_rows(mirror, "T") == {("t",)}
        db.close()

    def test_close_detaches_mirror(self, tmp_path):
        db = make_store(tmp_path / "store")
        sql_mirror(db)
        db.close()
        assert not hasattr(db, "_sql_mirror")


class TestRouting:
    def compiled(self, db):
        engine = CertaintyEngine(poll_qa())
        return plan_cache.get_or_compile(engine.rewriting, db)

    def test_plain_database_never_routed(self, monkeypatch):
        monkeypatch.setattr(pushdown, "SQL_MIN_FACTS", 0)
        db = Database()
        for schema in POLL_SCHEMAS:
            db.add_relation(schema)
        db.add("Lives", ("p", "t"))
        compiled = self.compiled(db)
        assert not mirror_capable(db)
        assert not prefer_sql(compiled, db)
        assert storage_stats()["pushdown"]["native_sql"] == 0
        # method="sql" still works, through a private in-memory mirror.
        engine = CertaintyEngine(poll_qa())
        assert engine.certain(db, "sql") == engine.certain(db, "compiled")
        assert storage_stats()["pushdown"]["native_sql"] == 1
        assert str(sql_mirror(db).path) == ":memory:"

    def test_small_store_falls_back(self, tmp_path):
        db = make_poll_store(tmp_path / "store")
        db.add("Lives", ("p", "t"))
        assert not prefer_sql(self.compiled(db), db)
        assert storage_stats()["pushdown"]["fallback_small"] == 1
        db.close()

    def test_threshold_routes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pushdown, "SQL_MIN_FACTS", 2)
        db = make_poll_store(tmp_path / "store")
        db.add("Lives", ("p", "t"))
        assert not prefer_sql(self.compiled(db), db)
        db.add("Lives", ("q", "u"))
        assert prefer_sql(self.compiled(db), db)
        db.close()

    def test_adom_plans_route(self, tmp_path, monkeypatch):
        # Adom*-bearing plans are served by the maintained repro_adom
        # table instead of forcing the in-memory executors.
        monkeypatch.setattr(pushdown, "SQL_MIN_FACTS", 0)
        db = make_store(tmp_path / "store")
        db.add("R", ("a", "1"))
        compiled = fake_compiled(Project(AdomProduct((x,)), (x,)))
        assert prefer_sql(compiled, db)
        assert native_sql_answers(compiled, db) == {("a",), ("1",)}
        db.close()

    def test_unknown_plan_raises(self, tmp_path, monkeypatch):
        # No plan-support gate and no fallback: an unknown node type
        # reaches the compiler and fails loudly, counting no native run.
        monkeypatch.setattr(pushdown, "SQL_MIN_FACTS", 0)
        db = make_store(tmp_path / "store")
        db.add("R", ("a", "1"))

        class OpaquePlan(Plan):
            __slots__ = ()

            def __init__(self):
                super().__init__((x,))

        compiled = fake_compiled(OpaquePlan())
        assert prefer_sql(compiled, db)
        with pytest.raises(PlanError, match="no SQL translation"):
            native_sql_answers(compiled, db)
        assert storage_stats()["pushdown"]["native_sql"] == 0
        db.close()


class TestStatementCache:
    def test_repeat_queries_hit_cache(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add_all("R", [("a", "1"), ("b", "2")])
        db.add_all("S", [("1", "b")])
        oq = OpenQuery(parse_query(QUERY), [Variable("x")])
        certain_answers(oq, db, "sql")
        misses = storage_stats()["pushdown"]["stmt_cache_misses"]
        assert misses >= 1
        certain_answers(oq, db, "sql")
        certain_answers(oq, db, "sql")
        stats = storage_stats()["pushdown"]
        assert stats["stmt_cache_hits"] >= 2
        assert stats["stmt_cache_misses"] == misses
        db.close()

    def test_cache_is_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pushdown, "SQL_STMT_CACHE_SIZE", 1)
        db = make_store(tmp_path / "store")
        db.add_all("R", [("a", "1")])
        for free in ([Variable("x")], [Variable("y")], [Variable("x")]):
            certain_answers(OpenQuery(parse_query(QUERY), free), db, "sql")
        stats = sql_mirror(db).stats()["stmt_cache"]
        assert (stats["entries"], stats["capacity"]) == (1, 1)
        assert stats["misses"] == 3  # x was evicted by y
        db.close()


class TestAdomNative:
    """Adom* plans execute natively with executor parity on real stores."""

    def seed(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add_all("R", [("a", "1"), ("a", "2"), ("d", "d")])
        db.add_all("S", [("1", "b")])
        return db

    @pytest.mark.parametrize("make_plan,constants", [
        (lambda: Project(AdomProduct((x,)), (x,)), ()),
        (lambda: Project(AdomProduct((x,)), (x,)), ("zzz",)),
        (lambda: AdomEq(x, y), ()),
        (lambda: Join(Scan(parse_query("R(x | y)").atoms[0]),
                      AdomGuard()), ()),
    ])
    def test_synthetic_adom_parity(self, tmp_path, make_plan, constants):
        db = self.seed(tmp_path)
        plan = make_plan()
        compiled = fake_compiled(plan, constants)
        got = native_sql_answers(compiled, db)
        expect = frozenset(execute_plan(plan, db, constants))
        assert got == expect
        # Stays correct after deltas shrink and grow the domain.
        db.discard("R", ("a", "1"))
        db.add("R", ("e", "f"))
        got = native_sql_answers(compiled, db)
        expect = frozenset(execute_plan(plan, db, constants))
        assert got == expect
        db.close()

    def test_adom_constants_outside_database(self, tmp_path):
        # The executor's adom is active_domain ∪ plan constants; a
        # constant the database has never seen must still be ranged
        # over, via a bind-time parameter in the adom CTE.
        db = self.seed(tmp_path)
        plan = Project(AdomProduct((x,)), (x,))
        got = native_sql_answers(fake_compiled(plan, ("ghost",)), db)
        assert got is not None and ("ghost",) in got
        db.close()


class TestEndToEnd:
    def seed(self, db):
        db.add_all("R", [("a", "1"), ("a", "2"), ("b", "1"), ("c", "4")])
        db.add_all("S", [("1", "b"), ("4", "c")])

    def test_sql_method_answers_match(self, tmp_path):
        db = make_store(tmp_path / "store")
        self.seed(db)
        oq = OpenQuery(parse_query(QUERY), [Variable("x")])
        assert (certain_answers(oq, db, "sql")
                == certain_answers(oq, db, "compiled"))
        # The sql run ran natively inside the store's file mirror.
        stats = storage_stats()["pushdown"]
        assert stats["native_sql"] >= 1
        assert sql_mirror(db).path.name == "mirror.sqlite"
        db.close()

    def seed_poll(self, db):
        db.add_all("Lives", [("ann", "ghent"), ("ann", "mons"),
                             ("bob", "ghent")])
        db.add_all("Born", [("ann", "mons")])
        db.add_all("Likes", [("bob", "ghent")])

    def test_sql_method_boolean_match(self, tmp_path):
        db = make_poll_store(tmp_path / "store")
        self.seed_poll(db)
        engine = CertaintyEngine(poll_qa())
        assert engine.certain(db, "sql") == engine.certain(db, "compiled")
        assert storage_stats()["pushdown"]["native_sql"] >= 1
        db.close()

    def test_auto_routes_to_sql_above_threshold(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pushdown, "SQL_MIN_FACTS", 2)
        db = make_poll_store(tmp_path / "store")
        self.seed_poll(db)
        engine = CertaintyEngine(poll_qa())
        expected = engine.certain(db, "compiled")
        assert engine.certain(db, "auto") == expected
        db.close()

    def test_mirror_answers_track_updates(self, tmp_path):
        db = make_store(tmp_path / "store")
        self.seed(db)
        oq = OpenQuery(parse_query(QUERY), [Variable("x")])
        certain_answers(oq, db, "sql")  # warm the mirror
        db.add("S", ("2", "a"))
        db.discard("S", ("1", "b"))
        assert (certain_answers(oq, db, "sql")
                == certain_answers(oq, db, "compiled"))
        db.close()

    def test_in_memory_mirror_tracks_updates(self):
        db = Database([RelationSchema("R", 2, 1), RelationSchema("S", 2, 1)])
        self.seed(db)
        oq = OpenQuery(parse_query(QUERY), [Variable("x")])
        assert (certain_answers(oq, db, "sql")
                == certain_answers(oq, db, "compiled"))
        mirror = sql_mirror(db)
        with db.batch():
            db.add("S", ("2", "a"))
            db.discard("S", ("1", "b"))
        db.add("R", ("e", "5"))
        assert sql_mirror(db) is mirror  # attached once, kept in step
        assert mirror.clock == db.clock
        assert (certain_answers(oq, db, "sql")
                == certain_answers(oq, db, "compiled"))
        assert mirror_rows(mirror, "S") == db.facts("S")

    def test_concurrent_first_calls_attach_one_mirror(self):
        # Server threads race on a database's first sql call; exactly
        # one mirror may subscribe to its changelog.
        import sys
        import threading

        n = 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                db = Database([RelationSchema("R", 2, 1),
                               RelationSchema("S", 2, 1)])
                self.seed(db)
                barrier = threading.Barrier(n, timeout=10)
                got = []

                def attach():
                    barrier.wait()
                    got.append(sql_mirror(db))

                threads = [threading.Thread(target=attach) for _ in range(n)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
                assert len(got) == n and len({id(m) for m in got}) == 1
                assert sum(1 for listener in db._listeners
                           if getattr(listener, "__self__", None) in got) == 1
        finally:
            sys.setswitchinterval(interval)

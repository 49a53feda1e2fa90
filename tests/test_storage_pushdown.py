"""SQL pushdown: the integer-encoded mirror and the routing gate.

The mirror is built once per database per process, in memory, then
must stay delta-consistent with its database (one transaction per
changelog batch) and serve every ``Adom*``-free plan natively; an
``Adom*``-bearing plan is handed to the row executor and answers the
same.  ``method="auto"`` never builds the mirror, and a store never
writes it to disk.
"""

from __future__ import annotations

import random

import pytest

from repro.core.atoms import RelationSchema
from repro.core.parser import parse_query
from repro.core.terms import Variable
from repro.cqa.certain_answers import OpenQuery, certain_answers
from repro.cqa.engine import CertaintyEngine
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
from repro.columnar import VectorExecutor, columnar_rows, columnar_stats
from repro.columnar.executor import COLUMNAR_MIN_FACTS
from repro.db.database import BatchError, Database
from repro.fo.compile import CompiledQuery
from repro.fo.sql import table_name
from repro.obs import Tracer, reset_metrics
from repro.workloads import random_poll_database
from repro.workloads.queries import poll_qa, poll_qb
from repro.storage import (
    PersistentDatabase,
    compile_plan,
    native_sql_answers,
    native_sql_holds,
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
    reset_metrics()
    yield
    reset_metrics()


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


def mirror_tables(mirror):
    """The tables the mirror created (sqlite's own left out)."""
    cur = mirror.conn.execute(
        "SELECT name FROM sqlite_master "
        "WHERE type = 'table' AND name NOT LIKE 'sqlite%'")
    return {name for (name,) in cur.fetchall()}


def fake_compiled(plan, constants=(), free=None):
    """A compiled query over a synthetic plan."""
    return CompiledQuery(None, tuple(plan.cols if free is None else free),
                         plan, tuple(constants))


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
        # Deltas, not rebuilds, carried all of that.
        assert storage_stats()["pushdown"]["mirror_rebuilds"] == 1
        db.close()

    def test_mirror_holds_only_relation_tables(self, tmp_path):
        # No active-domain table: the mirror never answers Adom* plans,
        # so a commit writes the changed facts and nothing else.
        db = make_store(tmp_path / "store")
        db.add_all("R", [("a", "1"), ("a", "2")])
        mirror = sql_mirror(db)
        assert mirror_tables(mirror) == {"R", "S"}
        db.discard("R", ("a", "1"))
        db.add("S", ("1", "z"))
        assert mirror_tables(mirror) == {"R", "S"}
        assert mirror_rows(mirror, "R") == {("a", "2")}
        assert set(mirror.stats()) == {"tables", "stmt_cache"}
        db.close()

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
    """``auto`` never pushes down: on a store above the columnar size
    gate open queries run on columnar and sentences on the compiled
    probe, and no mirror is built.  ``method="sql"`` still runs natively
    on any database."""

    OPEN = ((poll_qa(), ("p",)), (poll_qa(), ("p", "t")),
            (parse_query("Mayor(t | p)"), ("t",)))

    def large_store(self, path):
        source = random_poll_database(n_people=1200, n_towns=60,
                                      rng=random.Random(1))
        db = PersistentDatabase(path)
        for schema in source.schemas.values():
            db.add_relation(schema)
        with db.batch():
            for name in source.relations():
                db.add_all(name, source.facts(name))
        assert db.size() >= COLUMNAR_MIN_FACTS
        return db

    def assert_auto_skips_sql(self, db):
        for query, names in self.OPEN:
            oq = OpenQuery(query, [Variable(n) for n in names])
            runs = columnar_stats()["runs"]
            assert (certain_answers(oq, db, "auto")
                    == certain_answers(oq, db, "compiled"))
            assert columnar_stats()["runs"] == runs + 1
        for query in (poll_qa(), poll_qb()):
            engine = CertaintyEngine(query)
            tracer = Tracer()
            assert (engine.certain(db, "auto", tracer=tracer)
                    == engine.certain(db, "compiled"))
            assert tracer.roots[-1].tags["method"] == "compiled"
        assert storage_stats()["pushdown"]["native_sql"] == 0
        assert not (db.path / "mirror.sqlite").exists()
        assert not hasattr(db, "_sql_mirror")

    def test_auto_on_large_store_builds_no_mirror(self, tmp_path):
        db = self.large_store(tmp_path / "store")
        self.assert_auto_skips_sql(db)
        with db.batch():
            db.add("Lives", ("p-new", "t0"))
            db.discard("Likes", next(iter(db.facts("Likes"))))
        self.assert_auto_skips_sql(db)
        db.close()

    def test_plain_database_never_routed(self):
        db = Database()
        for schema in POLL_SCHEMAS:
            db.add_relation(schema)
        db.add("Lives", ("p", "t"))
        # method="sql" works through a private in-memory mirror.
        engine = CertaintyEngine(poll_qa())
        assert engine.certain(db, "sql") == engine.certain(db, "compiled")
        assert storage_stats()["pushdown"]["native_sql"] == 1

    def test_adom_plans_run_on_the_row_executor(self, tmp_path):
        # Only the row executor evaluates Adom*: columnar and sql hand
        # the whole plan to it, before and after a commit moves the
        # active domain, and a bare Adom* node has no batch or SQL form.
        db = make_store(tmp_path / "store")
        db.add("R", ("a", "1"))
        plan = Project(AdomProduct((x,)), (x,))
        compiled = fake_compiled(plan)
        sentence = fake_compiled(Project(AdomProduct((x,)), ()))

        def check(expected):
            assert compiled.rows(db) == expected
            fallbacks = columnar_stats()["decode_fallbacks"]
            assert columnar_rows(compiled, db) == expected
            assert columnar_stats()["decode_fallbacks"] == fallbacks + 1
            assert native_sql_answers(compiled, db) == expected
            assert native_sql_holds(sentence, db) is True
            assert storage_stats()["pushdown"]["native_sql"] == 0

        check({("a",), ("1",)})
        with db.batch():
            db.discard("R", ("a", "1"))
            db.add("R", ("b", "2"))
            db.add("S", ("1", "b"))
        check({("1",), ("b",), ("2",)})
        # A native run builds the mirror; it holds no active domain.
        certain_answers(OpenQuery(parse_query(QUERY), [x]), db, "sql")
        assert storage_stats()["pushdown"]["native_sql"] == 1
        assert "repro_adom" not in mirror_tables(sql_mirror(db))
        with pytest.raises(TypeError, match="no columnar executor"):
            VectorExecutor(db).run(plan)
        with pytest.raises(PlanError, match="no SQL translation"):
            compile_plan(plan, db.schemas)
        db.close()

    def test_unknown_plan_raises(self, tmp_path):
        # No plan-support gate and no fallback: an unknown node type
        # reaches the compiler and fails loudly, counting no native run.
        db = make_store(tmp_path / "store")
        db.add("R", ("a", "1"))

        class OpaquePlan(Plan):
            __slots__ = ()

            def __init__(self):
                super().__init__((x,))

        compiled = fake_compiled(OpaquePlan())
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
    """``native_sql_answers`` on Adom* plans keeps executor parity on
    real stores: it hands them to the row executor."""

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
        # over, so the hand-over passes the compiled query's constants.
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
        # The sql run ran natively, in a mirror that never touches disk.
        stats = storage_stats()["pushdown"]
        assert stats["native_sql"] >= 1
        assert not (db.path / "mirror.sqlite").exists()
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

    def test_auto_matches_compiled_without_sql(self, tmp_path):
        db = make_poll_store(tmp_path / "store")
        self.seed_poll(db)
        engine = CertaintyEngine(poll_qa())
        expected = engine.certain(db, "compiled")
        assert engine.certain(db, "auto") == expected
        assert storage_stats()["pushdown"]["native_sql"] == 0
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

    def test_store_lifecycle_leaves_no_mirror_file(self, tmp_path):
        # The mirror lives in memory only: commits, a checkpoint and a
        # close/reopen keep sql equal to compiled, the reopened store
        # builds one fresh mirror, and the directory never holds one.
        db = make_store(tmp_path / "store")
        self.seed(db)
        oq = OpenQuery(parse_query(QUERY), [Variable("x")])

        def check():
            assert (certain_answers(oq, db, "sql")
                    == certain_answers(oq, db, "compiled"))
            assert not (db.path / "mirror.sqlite").exists()

        check()
        with db.batch():
            db.add("S", ("2", "a"))
            db.discard("S", ("1", "b"))
        db.add("R", ("e", "5"))
        check()
        db.checkpoint()
        db.discard("R", ("a", "1"))
        check()
        db.close()
        db.open()
        check()
        db.add("S", ("5", "e"))
        check()
        assert storage_stats()["pushdown"]["mirror_rebuilds"] == 2
        db.close()
        assert sorted(p.name for p in db.path.iterdir()
                      if not p.name.startswith(("snapshot-", "wal-"))) == []

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


class TestOpenBatch:
    """The mirror applies committed changelogs only, so ``sql`` refuses
    to read inside an open batch instead of answering from the last
    commit, which every other method has moved past."""

    QUERY = "Lives(p | t), not Born(p | t)"

    def check(self, db, warm):
        db.add("Lives", ("a", "x"))
        oq = OpenQuery(parse_query(self.QUERY), [Variable("p")])
        sentence = CertaintyEngine(parse_query(self.QUERY))
        if warm:  # a mirror built before the batch
            assert certain_answers(oq, db, "sql") == {("a",)}
        db.begin_batch()
        db.add("Lives", ("b", "y"))
        db.add("Born", ("a", "x"))
        for method in ("compiled", "columnar", "interpreted"):
            assert certain_answers(oq, db, method) == {("b",)}, method
        with pytest.raises(BatchError):
            certain_answers(oq, db, "sql")
        with pytest.raises(BatchError):
            sentence.certain(db, "sql")
        assert hasattr(db, "_sql_mirror") is warm  # none built mid-batch
        db.commit()
        assert certain_answers(oq, db, "sql") == {("b",)}
        assert sentence.certain(db, "sql") is True
        # The batch's rows were applied once: deleting them empties
        # the mirror's copy as well.
        db.discard("Born", ("a", "x"))
        db.discard("Lives", ("a", "x"))
        mirror = sql_mirror(db)
        assert mirror_rows(mirror, "Lives") == db.facts("Lives")
        assert mirror_rows(mirror, "Born") == db.facts("Born") == set()

    @pytest.mark.parametrize("warm", [True, False])
    def test_in_memory(self, warm):
        self.check(Database(POLL_SCHEMAS[:2]), warm)

    @pytest.mark.parametrize("warm", [True, False])
    def test_store(self, tmp_path, warm):
        db = make_poll_store(tmp_path / "store")
        try:
            self.check(db, warm)
        finally:
            db.close()

"""The columnar store follows the changelog: the fold against the oracle.

:class:`~repro.columnar.dictionary.ColumnarStore` queues each committed
delta and folds the queue into copies of its cached columns on the next
read.  Every read here is checked against ``compiled`` (the tuple
executor), and after every read the encoded columns must decode to
exactly the relation's facts, each once: a fold that replays a delta
twice or misses one shows up as a duplicate or a missing row.  The
contract tests pin what the fold must never do — touch arrays already
handed out, encode at commit, fold columns encoded inside an open
batch — and when it must give way to a full encode.
"""

from __future__ import annotations

import sys
import tempfile
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnar import ValueDictionary, VectorExecutor, columnar_store, fuse
from repro.core.atoms import RelationSchema
from repro.core.parser import parse_query
from repro.core.terms import Variable
from repro.cqa.certain_answers import OpenQuery, certain_answers
from repro.db.database import Database
from repro.storage import PersistentDatabase

SCHEMAS = (RelationSchema("Lives", 2, 1), RelationSchema("Born", 2, 1),
           RelationSchema("Likes", 2, 2), RelationSchema("Works", 3, 1))
RELATIONS = tuple(s.name for s in SCHEMAS)
ARITY = {s.name: s.arity for s in SCHEMAS}

p, t, c = Variable("p"), Variable("t"), Variable("c")
POLL_QA = OpenQuery(
    parse_query("Lives(p | t), not Born(p | t), not Likes(p, t)"), [p])
LIVES_NOT_BORN = OpenQuery(parse_query("Lives(p | t), not Born(p | t)"), [p])
WORKS = OpenQuery(parse_query("Works(p | t, c), not Lives(p | t)"), [p, c])
QUERIES = (POLL_QA, LIVES_NOT_BORN, WORKS)


def decoded_rows(store, db, relation):
    """The relation's encoded rows, decoded, in slot order."""
    batch = store.relation_batch(db, relation)
    decode = store.dictionary.decode
    return [tuple(decode(col[i]) for col in batch.columns)
            for i in range(batch.length)]


def check_read(db):
    """Columnar answers equal compiled; every relation's columns decode
    to its facts, once each; its row -> slot map, once built, maps each
    encoded row to its slot; every cached multi-position key vector on
    its base batch equals a fresh fuse of the columns."""
    for oq in QUERIES:
        assert (certain_answers(oq, db, "columnar")
                == certain_answers(oq, db, "compiled"))
    store = columnar_store(db)
    for name in db.relations():
        rows = decoded_rows(store, db, name)
        assert len(set(rows)) == len(rows), f"{name}: duplicate encoded row"
        assert set(rows) == db.facts(name), name
        batch = store.relation_batch(db, name)
        slots = store._slots.get(name)
        if slots is not None:
            assert slots == {row: i for i, row
                             in enumerate(zip(*batch.columns))}, name
        for key, keys in list(batch._fused.items()):
            if type(key[0]) is tuple and len(key[0]) > 1:
                positions, radix = key
                assert list(keys) == list(
                    fuse(batch.columns, positions, batch.length, radix))


# ----------------------------------------------------------------------
# the property: random update streams, read between and inside batches
# ----------------------------------------------------------------------

VALUES = st.integers(0, 5)
RELATION = st.sampled_from(RELATIONS)


def row_of(relation):
    return st.tuples(*[VALUES] * ARITY[relation])


@st.composite
def ops(draw):
    relation = draw(RELATION)
    kind = draw(st.sampled_from(["add", "discard", "add_all", "discard_all",
                                 "clear", "readd", "fresh"]))
    if kind in ("add", "discard"):
        arg = draw(row_of(relation))
    elif kind in ("add_all", "discard_all"):
        arg = draw(st.lists(row_of(relation), max_size=6))
    elif kind == "readd":
        arg = draw(st.integers(0, 50))
    elif kind == "fresh":
        arg = draw(st.integers(1, 9))
    else:
        arg = None
    return kind, relation, arg


#: ``("batch", ops, read_at, read_after)`` — ``read_at`` indexes the op
#: before which an in-batch read runs (past the end: none);
#: ``("single", op, read_after)``; ``("reopen",)`` closes and reopens a
#: persistent database (a no-op in memory).
STEPS = st.lists(st.one_of(
    st.tuples(st.just("batch"), st.lists(ops(), min_size=1, max_size=6),
              st.integers(0, 7), st.booleans()),
    st.tuples(st.just("single"), ops(), st.booleans()),
    st.tuples(st.just("reopen")),
), max_size=10)

INITIAL = st.lists(
    RELATION.flatmap(lambda r: st.tuples(st.just(r), row_of(r))),
    max_size=16)


class Stream:
    """Applies drawn ops to one database, remembering deleted rows (for
    re-inserts) and minting fresh values, which grow the dictionary
    across powers of two and so move the fused-key radix."""

    def __init__(self, db):
        self.db = db
        self.deleted = []
        self.minted = 0

    def _record_deletes(self, relation, rows):
        self.deleted.extend((relation, row) for row in rows
                            if self.db.contains(relation, row))

    def apply(self, op):
        kind, relation, arg = op
        db = self.db
        if kind == "add":
            db.add(relation, arg)
        elif kind == "discard":
            self._record_deletes(relation, [arg])
            db.discard(relation, arg)
        elif kind == "add_all":
            db.add_all(relation, arg)
        elif kind == "discard_all":
            self._record_deletes(relation, arg)
            db.discard_all(relation, arg)
        elif kind == "clear":
            self._record_deletes(relation, db.facts(relation))
            db.clear_relation(relation)
        elif kind == "readd":
            gone = [row for rel, row in self.deleted if rel == relation]
            if gone:
                db.add(relation, gone[arg % len(gone)])
        else:  # fresh
            rows = []
            for _ in range(arg):
                rows.append(tuple(f"v{self.minted + j}"
                                  for j in range(ARITY[relation])))
                self.minted += ARITY[relation]
            db.add_all(relation, rows)

    def run(self, steps, reopen):
        check_read(self.db)  # warm the store: later reads fold
        for step in steps:
            if step[0] == "reopen":
                reopen()
            elif step[0] == "single":
                self.apply(step[1])
                if step[2]:
                    check_read(self.db)
            else:
                _, batch, read_at, read_after = step
                with self.db.batch():
                    for i, op in enumerate(batch):
                        if i == read_at:
                            check_read(self.db)
                        self.apply(op)
                if read_after:
                    check_read(self.db)
        check_read(self.db)


def seeded(db, initial):
    for schema in SCHEMAS:
        db.add_relation(schema)
    with db.batch():
        for relation, row in initial:
            db.add(relation, row)
    return db


@given(initial=INITIAL, steps=STEPS)
@settings(max_examples=40, deadline=None)
def test_fold_matches_compiled_in_memory(initial, steps):
    Stream(seeded(Database(), initial)).run(steps, reopen=lambda: None)


@given(initial=INITIAL, steps=STEPS)
@settings(max_examples=15, deadline=None)
def test_fold_matches_compiled_on_reopened_store(initial, steps):
    with tempfile.TemporaryDirectory() as tmp:
        db = seeded(PersistentDatabase(tmp, sync="off"), initial)

        def reopen():
            db.close()
            db.open()

        try:
            Stream(db).run(steps, reopen)
        finally:
            db.close()


# ----------------------------------------------------------------------
# regressions and contracts
# ----------------------------------------------------------------------


def small_db():
    db = Database(SCHEMAS)
    db.add_all("Lives", [("a", "x"), ("c", "z"), ("d", "w")])
    db.add_all("Born", [("c", "z")])
    return db


def check_read_lives(db, expected):
    assert certain_answers(LIVES_NOT_BORN, db, "compiled") == expected
    assert certain_answers(LIVES_NOT_BORN, db, "columnar") == expected
    store = columnar_store(db)
    for name in db.relations():
        rows = decoded_rows(store, db, name)
        assert sorted(rows) == sorted(db.facts(name)), name


def test_open_batch_sequence_never_folds_batch_columns():
    # Columns encoded inside an open batch already hold rows that the
    # batch's commit delta reports again.  A fold keyed only on the last
    # queued version appended row (b, y) a second time; after the
    # delete below one copy survived, and columnar answered {(b,)}
    # where compiled answered {}.
    db = Database(SCHEMAS[:2])
    db.add("Lives", ("a", "x"))
    check_read_lives(db, {("a",)})
    db.begin_batch()
    db.add("Lives", ("b", "y"))
    check_read_lives(db, {("a",), ("b",)})
    db.add("Born", ("a", "x"))
    db.commit()
    check_read_lives(db, {("b",)})
    with db.batch():
        db.discard("Lives", ("b", "y"))
    check_read_lives(db, set())


def test_row_added_and_removed_around_an_in_batch_read():
    # The commit delta nets (c, z) out, so nothing in it says that the
    # columns encoded mid-batch hold that row.
    db = Database(SCHEMAS[:2])
    db.add("Lives", ("a", "x"))
    check_read_lives(db, {("a",)})
    with db.batch():
        db.add("Lives", ("c", "z"))
        check_read_lives(db, {("a",), ("c",)})
        db.discard("Lives", ("c", "z"))
        db.add("Lives", ("b", "y"))
    check_read_lives(db, {("a",), ("b",)})


def test_read_by_an_earlier_listener_is_not_folded_again():
    db = small_db()
    reads = []

    def read_once(log):
        if not reads:
            reads.append(certain_answers(LIVES_NOT_BORN, db, "columnar"))

    db.subscribe(read_once)
    store = columnar_store(db)  # its listener runs after read_once
    check_read(db)
    with db.batch():
        db.add("Lives", ("b", "y"))
    assert reads == [{("a",), ("b",), ("d",)}]
    assert "Lives" not in store._pending  # that read encoded the commit
    with db.batch():
        db.discard("Lives", ("a", "x"))
    check_read(db)
    assert "Lives" in store._slots  # folded the one new delta


def test_fold_leaves_handed_out_arrays_alone():
    db = small_db()
    store = columnar_store(db)
    check_read(db)
    before = store.relation_batch(db, "Lives")
    snapshot = [list(col) for col in before.columns]
    keys = {key: list(vector) for key, vector in before._fused.items()
            if type(key[0]) is tuple and len(key[0]) > 1}
    with db.batch():
        db.discard("Lives", ("a", "x"))
        db.add("Lives", ("e", "v"))
    after = store.relation_batch(db, "Lives")
    assert "Lives" in store._slots  # folded, not re-encoded
    assert [list(col) for col in before.columns] == snapshot
    assert {key: list(before._fused[key]) for key in keys} == keys
    assert all(a is not b for a, b in zip(after.columns, before.columns))
    check_read(db)


def test_fold_carries_fused_keys_across_a_write():
    db = small_db()
    store = columnar_store(db)
    check_read(db)
    radix = VectorExecutor(db)._base()
    fused = [key for key in store.relation_batch(db, "Lives")._fused
             if type(key[0]) is tuple and len(key[0]) == 2]
    assert fused and all(key[1] == radix for key in fused)
    with db.batch():
        db.add("Lives", ("f", "x"))
        db.discard("Lives", ("c", "z"))
    folded = store.relation_batch(db, "Lives")
    assert VectorExecutor(db)._base() == radix  # one power of two
    for positions, _ in fused:  # patched, not re-fused
        assert list(folded._fused[positions, radix]) == list(
            fuse(folded.columns, positions, folded.length, radix))
    check_read(db)


def test_radix_is_a_power_of_two_above_every_code():
    db = small_db()
    executor = VectorExecutor(db)
    store = executor.store
    assert executor._base() == 1
    for n in range(1, 40):
        store.dictionary.encode(("value", n))
        base = executor._base()
        assert base >= len(store.dictionary) and base & (base - 1) == 0
        assert base < 2 * len(store.dictionary)


def test_commit_encodes_nothing(monkeypatch):
    db = small_db()
    check_read(db)

    def refuse(self, value):
        raise AssertionError(f"commit encoded {value!r}")

    with monkeypatch.context() as patched:
        patched.setattr(ValueDictionary, "encode", refuse)
        with db.batch():
            db.add("Lives", ("new-person", "new-town"))
            db.discard("Born", ("c", "z"))
        db.add("Likes", ("new-person", "x"))
    assert len(columnar_store(db)._pending["Lives"].deltas) == 1
    check_read(db)


def test_queue_dropped_once_it_outgrows_the_relation():
    db = small_db()
    store = columnar_store(db)
    check_read(db)
    db.add("Lives", ("g", "u"))
    assert store._pending["Lives"].rows == 1
    # 3 deleted rows queued on top, against 1 row left.
    db.discard_all("Lives", [("a", "x"), ("c", "z"), ("d", "w")])
    assert "Lives" not in store._pending
    assert "Lives" not in store._encoded
    db.add("Lives", ("h", "s"))
    assert "Lives" not in store._pending  # nothing left to fold into
    check_read(db)


def test_read_only_store_builds_no_slot_map():
    db = small_db()
    store = columnar_store(db)
    for _ in range(3):
        check_read(db)
    assert store._slots == {}
    db.add("Born", ("d", "w"))
    check_read(db)
    assert set(store._slots) == {"Born"}


def test_racing_first_calls_attach_one_store_and_one_listener():
    n = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            db = small_db()
            barrier = threading.Barrier(n, timeout=10)
            got = []

            def attach():
                barrier.wait()
                got.append(columnar_store(db))

            threads = [threading.Thread(target=attach) for _ in range(n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert len(got) == n and len({id(store) for store in got}) == 1
            assert len(db._listeners) == 1
    finally:
        sys.setswitchinterval(interval)


def test_columns_encoded_in_a_batch_are_not_queued_for():
    db = small_db()
    store = columnar_store(db)
    store.relation_batch(db, "Lives")  # committed state: foldable
    with db.batch():
        db.add("Lives", ("b", "y"))
    assert len(store._pending["Lives"].deltas) == 1
    db.begin_batch()
    db.add("Lives", ("e", "v"))
    store.relation_batch(db, "Lives")  # mid-batch: never folded
    db.add("Lives", ("f", "u"))
    db.commit()
    assert "Lives" not in store._pending
    check_read(db)
    assert "Lives" not in store._slots  # re-encoded, not folded

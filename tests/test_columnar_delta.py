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

The store also keeps each plan's last answer, and a read after a write
patches it with the rows whose fused keys changed.  Those reads are
checked against ``compiled`` too: after every step of an update
stream, from four reader threads racing a writer, and through the
counters that say how many rows a read decoded.
"""

from __future__ import annotations

import contextlib
import random
import sys
import tempfile
import threading

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.columnar import (
    ValueDictionary, VectorExecutor, columnar_stats, columnar_store, fuse)
from repro.core.atoms import RelationSchema
from repro.core.parser import parse_query
from repro.core.terms import Variable
from repro.cqa.certain_answers import OpenQuery, certain_answers
from repro.db.database import Database
from repro.fo.compile import plan_cache
from repro.storage import PersistentDatabase
from repro.workloads.generators import UpdateStreamParams, random_update_stream
from repro.workloads.poll import random_poll_database

SCHEMAS = (RelationSchema("Lives", 2, 1), RelationSchema("Born", 2, 1),
           RelationSchema("Likes", 2, 2), RelationSchema("Works", 3, 1))
RELATIONS = tuple(s.name for s in SCHEMAS)
ARITY = {s.name: s.arity for s in SCHEMAS}

p, t, c = Variable("p"), Variable("t"), Variable("c")
POLL_QA = OpenQuery(
    parse_query("Lives(p | t), not Born(p | t), not Likes(p, t)"), [p])
POLL_QA_PT = OpenQuery(POLL_QA.query, [p, t])
LIVES_NOT_BORN = OpenQuery(parse_query("Lives(p | t), not Born(p | t)"), [p])
WORKS = OpenQuery(parse_query("Works(p | t, c), not Lives(p | t)"), [p, c])
QUERIES = (POLL_QA, POLL_QA_PT, LIVES_NOT_BORN, WORKS)
#: Re-read after every step by the kept-answer property: one
#: single-column and one two-column answer.
KEPT = (POLL_QA, POLL_QA_PT)


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
    across powers of two and so move the fused-key radix.  With
    ``every_step`` the :data:`KEPT` answers are re-read after each
    step, so each read patches the answer the one before it kept."""

    def __init__(self, db, every_step=False):
        self.db = db
        self.deleted = []
        self.minted = 0
        self.every_step = every_step

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
            if self.every_step:
                check_answers(self.db)
        check_read(self.db)


def check_answers(db):
    for oq in KEPT:
        assert (certain_answers(oq, db, "columnar")
                == certain_answers(oq, db, "compiled"))


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


def single(kind, relation, arg=None):
    return ("single", (kind, relation, arg), False)


@given(initial=INITIAL, steps=STEPS)
# The union fold once read the fuse radix before its right sides ran,
# and a guard kept (0,) where compiled answered {}.
@example(initial=[("Lives", (0, 2)), ("Born", (0, 1)), ("Likes", (0, 2))],
         steps=[])
# An answer that empties and refills: emptying it and its first row
# back are deltas above half the new answer, so both decode in full.
@example(initial=[("Lives", (1, 2)), ("Lives", (2, 3))],
         steps=[single("clear", "Lives"), single("readd", "Lives", 0),
                single("readd", "Lives", 1)])
# Patches, then a one-row change across a dictionary that crossed a
# power of two (the radix moved: a full decode), then patches again.
@example(initial=[("Lives", (1, 2)), ("Lives", (2, 3)), ("Lives", (3, 4))],
         steps=[single("fresh", "Lives", 9), single("fresh", "Lives", 4),
                single("fresh", "Lives", 1), single("fresh", "Lives", 1),
                single("fresh", "Lives", 1)])
@settings(max_examples=40, deadline=None)
def test_kept_answers_match_compiled_after_every_step(initial, steps):
    Stream(seeded(Database(), initial), every_step=True).run(
        steps, reopen=lambda: None)


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


# ----------------------------------------------------------------------
# kept answers: what a read after a write decodes
# ----------------------------------------------------------------------


def poll_db(seed, people):
    rng = random.Random(seed)
    db = random_poll_database(rng=rng, n_people=people,
                              n_towns=max(4, people // 20))
    return db, rng


def apply_batch(db, batch):
    with db.batch():
        for insert, relation, row in batch:
            if insert:
                db.add(relation, row)
            else:
                db.discard(relation, row)


def test_one_batch_decodes_only_the_rows_it_changed():
    db, rng = poll_db(7, 300)
    batch = random_update_stream(
        db, UpdateStreamParams(n_batches=1, batch_size=20,
                               delete_fraction=0.4), rng)[0]
    before = {oq: certain_answers(oq, db, "columnar") for oq in KEPT}
    apply_batch(db, batch)
    changed = 0
    for oq in KEPT:
        stats = columnar_stats()
        after = certain_answers(oq, db, "columnar")
        assert after == certain_answers(oq, db, "compiled")
        delta = len(before[oq] ^ after)
        assert 2 * delta <= len(after)  # small enough to patch
        now = columnar_stats()
        assert now["answer_rows_decoded"] - stats["answer_rows_decoded"] \
            <= delta
        assert now["answers_reused"] == stats["answers_reused"] + 1
        changed += delta
    assert changed  # the batch did change an answer


def test_unchanged_answer_is_the_kept_object():
    db, _ = poll_db(3, 120)
    first = certain_answers(POLL_QA_PT, db, "columnar")
    db.add("Born", ("nobody", "nowhere"))  # touches no answer row
    stats = columnar_stats()
    assert certain_answers(POLL_QA_PT, db, "columnar") is first
    now = columnar_stats()
    assert now["answer_rows_decoded"] == stats["answer_rows_decoded"]
    assert now["answers_reused"] == stats["answers_reused"] + 1


def test_radix_crossing_between_reads_decodes_afresh():
    # Codes x=0, a=1 under radix 4 fuse the kept row (a, x) to
    # 1*4 + 0.  The write brings y in as code 4, the radix moves to 8,
    # and the new row (x, y) fuses to 0*8 + 4: the same key names
    # another row, so the kept answer must not stand for it.
    db = Database(SCHEMAS)
    store = columnar_store(db)
    for value in ("x", "a", "unused-2"):
        store.dictionary.encode(value)
    db.add("Lives", ("a", "x"))
    check_answers(db)
    assert VectorExecutor(db)._base() == 4
    store.dictionary.encode("unused-3")
    with db.batch():
        db.discard("Lives", ("a", "x"))
        db.add("Lives", ("x", "y"))
    stats = columnar_stats()
    assert certain_answers(POLL_QA_PT, db, "columnar") == {("x", "y")}
    assert certain_answers(POLL_QA_PT, db, "compiled") == {("x", "y")}
    assert store.dictionary.code_of("y") == 4
    assert VectorExecutor(db)._base() == 8
    now = columnar_stats()
    assert now["answers_reused"] == stats["answers_reused"]
    assert now["answer_rows_decoded"] == stats["answer_rows_decoded"] + 1
    db.add("Lives", ("b", "z"))
    check_answers(db)  # patches again under the new radix
    assert columnar_stats()["answers_reused"] > now["answers_reused"]


def test_kept_answers_are_bounded_by_the_plan_cache(monkeypatch):
    monkeypatch.setattr(plan_cache, "maxsize", 2)
    db, _ = poll_db(2, 40)
    store = columnar_store(db)
    for oq in (POLL_QA, POLL_QA_PT, LIVES_NOT_BORN, WORKS):
        certain_answers(oq, db, "columnar")
    assert len(store._answers) == 2


class RWLock:
    """Readers share, a writer excludes them and waits for none that
    arrive after it (the shape of ``repro serve``'s lock)."""

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._waiting = 0
        self._writing = False

    @contextlib.contextmanager
    def reading(self):
        with self._cond:
            self._cond.wait_for(lambda: not (self._writing
                                             or self._waiting))
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                self._cond.notify_all()

    @contextlib.contextmanager
    def writing(self):
        with self._cond:
            self._waiting += 1
            self._cond.wait_for(lambda: not (self._writing
                                             or self._readers))
            self._waiting -= 1
            self._writing = True
        try:
            yield
        finally:
            with self._cond:
                self._writing = False
                self._cond.notify_all()


def test_readers_racing_a_writer_see_committed_answers():
    db, rng = poll_db(11, 200)
    batches = random_update_stream(
        db, UpdateStreamParams(n_batches=25, batch_size=20,
                               delete_fraction=0.4), rng)
    replica = db.copy()
    expected = [{oq: certain_answers(oq, replica, "compiled")
                 for oq in KEPT}]
    for batch in batches:
        apply_batch(replica, batch)
        expected.append({oq: certain_answers(oq, replica, "compiled")
                         for oq in KEPT})
    lock = RWLock()
    version = [0]
    done = threading.Event()
    seen = []
    # The write-preferring lock could let the writer run every batch
    # before a reader gets in; before each batch the writer waits until
    # some read has landed at the current version.
    recorded = threading.Condition()
    read_versions = set()

    def reader(oq):
        while True:
            last = done.is_set()
            with lock.reading():
                at = version[0]
                got = certain_answers(oq, db, "columnar")
            with recorded:
                seen.append((oq, at, got))
                read_versions.add(at)
                recorded.notify_all()
            if last:
                return

    def writer():
        try:
            for batch in batches:
                with recorded:
                    recorded.wait_for(lambda: version[0] in read_versions,
                                      timeout=30)
                with lock.writing():
                    apply_batch(db, batch)
                    version[0] += 1
        finally:
            done.set()

    reused = columnar_stats()["answers_reused"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader, args=(KEPT[i % 2],))
                   for i in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len({at for _, at, _ in seen}) > 2  # reads spanned versions
    assert columnar_stats()["answers_reused"] > reused  # and kept answers
    for oq, at, got in seen:
        assert got == expected[at][oq], (oq.free, at)

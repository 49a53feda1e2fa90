"""PersistentDatabase: recovery, checkpoints, views, and the query codec.

Each test drives a store directory through mutate / close / reopen
cycles and asserts the recovered state is exactly the committed one —
including the interactions the ISSUE singles out: ``discard_all``
against the columnar dictionary caches across a WAL replay, and
registered views surviving a restart.
"""

from __future__ import annotations

import pytest

from repro.columnar import columnar_store
from repro.core.atoms import RelationSchema
from repro.core.parser import parse_query
from repro.core.terms import Variable
from repro.cqa.certain_answers import OpenQuery, certain_answers
from repro.db.database import BatchError, Database
from repro.storage import (
    PersistentDatabase,
    StorageError,
    list_segments,
    list_snapshots,
    open_database,
    query_from_dict,
    query_to_dict,
    scan_wal,
    verify_store,
)


def make_store(path, **kwargs):
    db = PersistentDatabase(path, **kwargs)
    db.add_relation(RelationSchema("R", 2, 1))
    db.add_relation(RelationSchema("S", 2, 1))
    return db


class TestRecovery:
    def test_facts_survive_reopen(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add("R", ("a", "1"))
        db.add("R", ("a", "2"))
        db.add("S", ("1", "x"))
        clock = db.clock
        db.close()

        db2 = open_database(tmp_path / "store")
        assert db2.clock == clock
        assert db2.facts("R") == {("a", "1"), ("a", "2")}
        assert db2.facts("S") == {("1", "x")}
        assert db2.last_recovery["replayed_records"] == 3
        db2.close()

    def test_schemas_survive_without_snapshot(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.close()
        db2 = open_database(tmp_path / "store")
        assert set(db2.schemas) == {"R", "S"}
        assert db2.schemas["R"].key_size == 1
        db2.close()

    def test_open_refuses_non_store(self, tmp_path):
        with pytest.raises(StorageError):
            open_database(tmp_path / "nothing-here")

    def test_double_open_refused(self, tmp_path):
        db = make_store(tmp_path / "store")
        with pytest.raises(StorageError):
            db.open()
        db.close()

    def test_mutating_closed_store_refused(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.close()
        with pytest.raises(StorageError):
            db.add("R", ("a", "1"))

    def test_close_inside_batch_refused(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.begin_batch()
        with pytest.raises(BatchError):
            db.close()
        db.commit()
        db.close()

    def test_batch_is_one_wal_record(self, tmp_path):
        db = make_store(tmp_path / "store")
        with db.batch():
            db.add("R", ("a", "1"))
            db.add("R", ("b", "1"))
            db.discard("R", ("z", "9"))  # no-op inside the batch
        _, records, _, damage = scan_wal(list_segments(db.path)[-1])
        batches = [r for r in records if r[0] == "B"]
        assert damage is None and len(batches) == 1
        assert set(batches[0][2]["R"][0]) == {("a", "1"), ("b", "1")}
        db.close()

    def test_cancelled_batch_bumps_clock_without_record(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add("R", ("a", "1"))
        with db.batch():
            db.add("R", ("q", "7"))
            db.discard("R", ("q", "7"))
        clock = db.clock
        db.close()
        db2 = open_database(tmp_path / "store")
        # The cancelled batch advanced the writer's clock but produced
        # nothing durable; recovery lands on the last durable LSN.
        assert db2.clock < clock
        assert db2.facts("R") == {("a", "1")}
        db2.close()

    def test_context_manager_closes(self, tmp_path):
        with make_store(tmp_path / "store") as db:
            db.add("R", ("a", "1"))
        assert not db.is_open

    def test_reopen_same_object(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add("R", ("a", "1"))
        db.close()
        db.open()
        assert db.is_open and db.facts("R") == {("a", "1")}
        db.close()


class TestCheckpoint:
    def test_checkpoint_prunes_wal(self, tmp_path):
        db = make_store(tmp_path / "store")
        for i in range(5):
            db.add("R", ("k", str(i)))
        size = db.checkpoint()
        assert size > 0
        status = db.storage_status()
        assert status["snapshot_clock"] == db.clock
        assert status["wal_records"] == 0 and status["wal_bytes"] == 0
        assert len(list_snapshots(db.path)) == 1
        db.close()

        db2 = open_database(tmp_path / "store")
        assert db2.last_recovery["replayed_records"] == 0
        assert db2.last_recovery["snapshot_clock"] == db2.clock
        assert db2.size() == 5
        db2.close()

    def test_commits_after_checkpoint_replay_on_top(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add("R", ("a", "1"))
        db.checkpoint()
        db.add("S", ("2", "y"))
        db.discard("R", ("a", "1"))
        db.close()
        db2 = open_database(tmp_path / "store")
        assert db2.facts("R") == set()
        assert db2.facts("S") == {("2", "y")}
        assert db2.last_recovery["replayed_records"] == 2
        db2.close()

    def test_checkpoint_inside_batch_refused(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.begin_batch()
        with pytest.raises(BatchError):
            db.checkpoint()
        db.commit()
        db.close()

    def test_auto_checkpoint(self, tmp_path):
        db = make_store(tmp_path / "store", auto_checkpoint_bytes=1)
        db.add("R", ("a", "1"))
        db.add("R", ("b", "2"))
        # Every commit exceeds the 1-byte budget, so the WAL never
        # accumulates records.
        assert db.storage_status()["wal_records"] == 0
        assert len(list_snapshots(db.path)) == 1
        db.close()
        db2 = open_database(tmp_path / "store")
        assert db2.facts("R") == {("a", "1"), ("b", "2")}
        db2.close()

    def test_corrupt_snapshot_fails_verify(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add("R", ("a", "1"))
        db.checkpoint()
        db.close()
        snap = list_snapshots(tmp_path / "store")[-1]
        snap.write_bytes(snap.read_bytes()[:-1])
        report = verify_store(tmp_path / "store")
        assert not report["ok"]
        assert any(not entry["ok"] for entry in report["snapshots"])

    def test_verify_healthy_store(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add("R", ("a", "1"))
        db.add("R", ("a", "2"))  # key conflict: one violating block
        db.checkpoint()
        db.add("S", ("1", "z"))
        db.close()
        report = verify_store(tmp_path / "store", integrity=True)
        assert report["ok"] and not report["errors"]
        audit = report["integrity"]
        assert audit["facts"] == 3
        assert audit["key_violating_blocks"] == 1
        assert audit["repairs"] == 2


class TestColumnarInteraction:
    """The ISSUE's discard_all regression: replayed deletions must not
    leave the dictionary-encoded scan caches serving pre-delete rows."""

    QUERY = "R(x | y), not S(y | x)"

    def answers(self, db):
        oq = OpenQuery(parse_query(self.QUERY), [Variable("x")])
        return certain_answers(oq, db, "columnar")

    def test_discard_all_and_readd_across_replay(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add_all("R", [("a", "1"), ("b", "2")])
        before = self.answers(db)  # populates the scan caches
        assert before == {("a",), ("b",)}
        db.discard_all("R", [("a", "1"), ("b", "2")])
        db.add_all("R", [("c", "3")])
        db.close()

        db2 = open_database(tmp_path / "store")
        assert self.answers(db2) == {("c",)}
        db2.close()

    def test_reopen_drops_stale_columnar_store(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add_all("R", [("a", "1"), ("b", "2")])
        store = columnar_store(db)
        store.prime(db)
        old_dictionary = store.dictionary
        db.close()
        db.open()
        # A fresh store object: recovered version counters start over,
        # so any surviving version-tagged cache would be wrong.
        assert not hasattr(db, "_columnar_store")
        fresh = columnar_store(db)
        assert fresh is not store
        assert fresh.dictionary is not old_dictionary
        assert self.answers(db) == {("a",), ("b",)}
        db.close()

    def test_fresh_codes_after_replay(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add_all("R", [("a", "1")])
        columnar_store(db).prime(db)
        db.discard_all("R", [("a", "1")])
        db.add_all("R", [("z", "9")])
        db.close()
        db2 = open_database(tmp_path / "store")
        store = columnar_store(db2)
        store.prime(db2)
        # Only the recovered facts' values get codes; the deleted
        # generation never enters the new dictionary.
        assert store.dictionary.code_of("z") is not None
        assert store.dictionary.code_of("a") is None
        db2.close()


class TestViews:
    def test_views_survive_reopen(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add_all("R", [("a", "1"), ("b", "2")])
        db.add("S", ("2", "b"))
        query = parse_query("R(x | y), not S(y | x)")
        view = db.register_view(query, [Variable("x")])
        live = set(view.answers)
        db.close()

        db2 = open_database(tmp_path / "store")
        assert len(db2.views) == 1
        assert set(db2.views[0].answers) == live
        # The re-registered view keeps maintaining incrementally.
        db2.add("S", ("1", "a"))
        assert set(db2.views[0].answers) == live - {("a",)}
        db2.close()

    def test_duplicate_registration_recorded_once(self, tmp_path):
        db = make_store(tmp_path / "store")
        query = parse_query("R(x | y), not S(y | x)")
        db.register_view(query, [Variable("x")])
        db.register_view(query, [Variable("x")])
        db.close()
        db2 = open_database(tmp_path / "store")
        assert db2.storage_status()["views"] == 1
        db2.close()


class TestDurableFiles:
    """Every file the store creates is fsynced before it is relied on,
    and so is the directory entry that names it."""

    def test_store_creation_syncs_segment_entry(self, tmp_path, fsync_spy):
        db = make_store(tmp_path / "store")
        (segment,) = list_segments(db.path)
        fsync_spy.assert_durable(segment)
        db.close()

    def test_checkpoint_syncs_snapshot_and_segment_entries(self, tmp_path,
                                                           fsync_spy):
        db = make_store(tmp_path / "store")
        db.add("R", ("a", "1"))
        fsync_spy.events.clear()
        db.checkpoint()
        assert fsync_spy.directory_syncs(db.path) == 2
        (snapshot,) = list_snapshots(db.path)
        (segment,) = list_segments(db.path)
        fsync_spy.assert_durable(snapshot)
        fsync_spy.assert_durable(segment)
        db.close()

    def test_register_view_syncs_manifest(self, tmp_path, fsync_spy):
        db = make_store(tmp_path / "store")
        fsync_spy.events.clear()
        db.register_view(parse_query("R(x | y), not S(y | x)"),
                         [Variable("x")])
        fsync_spy.assert_durable(db.path / "views.json")
        db.close()


class TestQueryCodec:
    ROUND_TRIPS = [
        "R(x | y), not S(y | x)",
        "P(x | y), not N('c' | y)",
        "R(x | y), S(y | z)",
        "R(x | y), S(y | z), x != z",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIPS)
    def test_round_trip(self, text):
        query = parse_query(text)
        assert query_from_dict(query_to_dict(query)) == query

    def test_codec_is_json_ready(self, tmp_path):
        import json

        query = parse_query("P(x | y), not N('c' | y)")
        spec = json.loads(json.dumps(query_to_dict(query)))
        assert query_from_dict(spec) == query


class TestStatusAndEngine:
    def test_storage_status_shape(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add("R", ("a", "1"))
        status = db.storage_status()
        assert status["open"] and status["facts"] == 1
        assert status["relations"] == 2 and status["clock"] == db.clock
        assert status["wal_records"] == 3  # 2 schema records + 1 batch
        db.close()
        assert not db.storage_status()["open"]

    def test_every_method_runs_on_a_store(self, tmp_path):
        db = make_store(tmp_path / "store")
        db.add_all("R", [("a", "1"), ("a", "2"), ("b", "1")])
        db.add("S", ("1", "b"))
        oq = OpenQuery(parse_query("R(x | y), not S(y | x)"), [Variable("x")])
        reference = certain_answers(oq, db, "brute")
        for method in ("interpreted", "rewriting", "compiled", "sql",
                       "columnar"):
            assert certain_answers(oq, db, method) == reference, method
        db.close()

    def test_plain_database_unaffected(self):
        db = Database()
        db.add_relation(RelationSchema("R", 2, 1))
        db.add("R", ("a", "1"))
        assert not hasattr(db, "storage_status")
        assert not getattr(db, "is_open", False)

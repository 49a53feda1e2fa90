"""Concurrent access through `repro serve`: one writer, many readers.

The server serializes fact batches behind a write-preferring RW lock
while queries and view reads share the database.  These tests hammer a
single store-backed server with overlapping reader threads and a
batch writer and assert the three invariants the lock exists for:

- **clock monotonicity** — the ``clock`` each response reports never
  goes backwards on one connection;
- **untorn batches** — every batch inserts ``A(k,k)`` and ``B(k,k)``
  together, so the certain answers of ``A(x | y), not B(x | y)`` are
  empty at every instant a read can observe; any nonempty answer set
  is a torn batch made visible;
- **composable change windows** — folding successive
  ``changed_since`` diffs from long-polls reproduces exactly the final
  answer set (same canonical digest) a fresh query reports.

Readers also share the columnar store behind ``auto``; the last test
races two of them on its caches after every write.
"""

from __future__ import annotations

import asyncio
import random
import sys
import threading
import time

import pytest

from repro.core.atoms import RelationSchema
from repro.core.parser import parse_query
from repro.core.terms import Variable
from repro.cqa.certain_answers import OpenQuery, certain_answers
from repro.serve import answers_digest
from repro.serve.app import _RWLock
from repro.storage import PersistentDatabase
from repro.workloads import (
    UpdateStreamParams,
    apply_update_stream,
    random_poll_database,
    random_update_stream,
)

from test_serve import ServerHandle, check_shape

TEARS_QUERY = "A(x | y), not B(x | y)"
GROWTH_QUERY = "A(x | y)"
BATCHES = 30
READERS = 4


class TestRWLock:
    def test_readers_share(self):
        async def scenario():
            lock = _RWLock()
            order = []

            async def reader(i):
                async with lock.read_locked():
                    order.append(f"r{i}-in")
                    await asyncio.sleep(0.02)
                    order.append(f"r{i}-out")

            await asyncio.gather(reader(1), reader(2))
            return order

        order = asyncio.run(scenario())
        # both readers were inside simultaneously
        assert order[:2] == ["r1-in", "r2-in"]

    def test_writer_excludes_readers(self):
        async def scenario():
            lock = _RWLock()
            order = []

            async def writer():
                async with lock.write_locked():
                    order.append("w-in")
                    await asyncio.sleep(0.02)
                    order.append("w-out")

            async def reader():
                await asyncio.sleep(0.005)  # arrive while writer holds
                async with lock.read_locked():
                    order.append("r-in")

            await asyncio.gather(writer(), reader())
            return order

        assert asyncio.run(scenario()) == ["w-in", "w-out", "r-in"]

    def test_waiting_writer_blocks_new_readers(self):
        async def scenario():
            lock = _RWLock()
            order = []

            async def long_reader():
                async with lock.read_locked():
                    order.append("r1-in")
                    await asyncio.sleep(0.03)

            async def writer():
                await asyncio.sleep(0.005)
                async with lock.write_locked():
                    order.append("w-in")

            async def late_reader():
                await asyncio.sleep(0.015)  # after the writer queued
                async with lock.read_locked():
                    order.append("r2-in")

            await asyncio.gather(long_reader(), writer(), late_reader())
            return order

        # write preference: the queued writer runs before the late reader
        assert asyncio.run(scenario()) == ["r1-in", "w-in", "r2-in"]


@pytest.fixture
def store_server(tmp_path):
    db = PersistentDatabase(tmp_path / "store")
    db.add_relation(RelationSchema("A", 2, 1))
    db.add_relation(RelationSchema("B", 2, 1))
    with ServerHandle(db, jobs=2) as handle:
        yield handle


def _writer(handle, errors):
    try:
        for i in range(BATCHES):
            status, body = handle.post("/v1/facts", {"ops": [
                {"op": "+", "relation": "A", "row": [f"k{i}", f"k{i}"]},
                {"op": "+", "relation": "B", "row": [f"k{i}", f"k{i}"]},
            ]})
            assert status == 200, body
    except Exception as exc:  # pragma: no cover - surfaced via errors
        errors.append(f"writer: {exc!r}")


def _tear_detector(handle, stop, errors):
    """Queries must never observe half a batch."""
    conn = handle.connection()
    last_clock = -1
    try:
        while not stop.is_set():
            status, body = handle.request(
                "POST", "/v1/answers",
                {"query": TEARS_QUERY, "free": ["x"]}, conn=conn)
            assert status == 200, body
            if body["answers"]:
                errors.append(f"torn batch visible: {body['answers']}")
                return
            if body["clock"] < last_clock:
                errors.append(
                    f"clock went backwards: {last_clock} -> {body['clock']}")
                return
            last_clock = body["clock"]
    except Exception as exc:  # pragma: no cover
        errors.append(f"reader: {exc!r}")
    finally:
        conn.close()


def test_readers_never_observe_torn_batches(store_server):
    errors, stop = [], threading.Event()
    readers = [threading.Thread(target=_tear_detector,
                                args=(store_server, stop, errors))
               for _ in range(READERS)]
    writer = threading.Thread(target=_writer, args=(store_server, errors))
    for t in readers:
        t.start()
    writer.start()
    writer.join(120)
    stop.set()
    for t in readers:
        t.join(30)
    assert not writer.is_alive() and not any(t.is_alive() for t in readers)
    assert errors == []
    # all batches landed
    status, body = store_server.get("/v1/healthz")
    assert body["facts"] == 2 * BATCHES


def test_long_poll_windows_compose_to_final_answers(store_server):
    status, body = store_server.post("/v1/views", {
        "name": "growth", "query": GROWTH_QUERY, "free": ["x"]})
    assert status == 200, body
    version = body["version"]

    errors = []
    local = set()
    done = threading.Event()

    def poller():
        nonlocal version
        try:
            while True:  # exits once the writer is done and a window drains
                status, body = store_server.get(
                    f"/v1/views/growth/changes?since={version}&wait=1")
                assert status == 200, body
                check_shape(body, "changes_response")
                assert body["version"] >= version
                for row in body["deleted"]:
                    local.discard(tuple(row))
                for row in body["inserted"]:
                    local.add(tuple(row))
                version = body["version"]
                if done.is_set() and body["timed_out"]:
                    return  # drained: no change since the last window
        except Exception as exc:  # pragma: no cover
            errors.append(f"poller: {exc!r}")

    thread = threading.Thread(target=poller)
    thread.start()
    _writer(store_server, errors)
    done.set()
    thread.join(60)
    assert not thread.is_alive()
    assert errors == []

    status, final = store_server.post(
        "/v1/answers", {"query": GROWTH_QUERY, "free": ["x"]})
    assert status == 200
    assert answers_digest(local) == final["digest"]
    assert len(local) == final["count"] == BATCHES


def test_stale_long_poll_window_is_refused(tmp_path):
    db = PersistentDatabase(tmp_path / "store")
    db.add_relation(RelationSchema("A", 2, 1))
    db.add_relation(RelationSchema("B", 2, 1))
    with ServerHandle(db, history_limit=2) as handle:
        status, body = handle.post("/v1/views", {
            "name": "tiny", "query": GROWTH_QUERY, "free": ["x"]})
        first_version = body["version"]
        for i in range(6):  # exceed history_limit so early windows trim
            handle.post("/v1/facts", {"ops": [
                {"op": "+", "relation": "A", "row": [f"k{i}", f"k{i}"]}]})
        status, body = handle.get(
            f"/v1/views/tiny/changes?since={first_version}")
        assert status == 409
        assert body["error"]["code"] == "stale-version"
        assert body["error"]["version"] > first_version


#: The four open queries serve-open sends to ``/v1/answers``.
SERVE_QUERIES = (
    ("Lives(p | t), not Born(p | t), not Likes(p, t)", ("p",)),
    ("Lives(p | t), not Born(p | t)", ("p",)),
    ("Mayor(t | p)", ("t",)),
    ("Likes(p, t), not Born(p | t), not Lives(p | t)", ("p",)),
)


def test_columnar_readers_share_one_store():
    # Readers under the shared read lock hit one columnar store: after a
    # write, each re-encodes the relations it touched and sweeps their
    # stale scans while the other inserts fresh ones.  A tiny switch
    # interval makes that interleaving likely within a few batches.
    db = random_poll_database(n_people=600, n_towns=30,
                              rng=random.Random(7))
    stream = random_update_stream(
        db, UpdateStreamParams(n_batches=400, batch_size=20),
        rng=random.Random(8))
    queries = [OpenQuery(parse_query(text), [Variable(n) for n in free])
               for text, free in SERVE_QUERIES]
    errors = []

    def read(out):
        try:
            out.extend(certain_answers(oq, db, "columnar") for oq in queries)
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 6.0
        for batch in stream:
            apply_update_stream(db, [batch])
            results = ([], [])
            threads = [threading.Thread(target=read, args=(out,))
                       for out in results]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert not errors, errors
            expected = [certain_answers(oq, db, "compiled")
                        for oq in queries]
            assert results == (expected, expected)
            if time.monotonic() > deadline:
                break
    finally:
        sys.setswitchinterval(interval)

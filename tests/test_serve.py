"""`repro serve`: endpoint behavior, wire contract, and digest parity.

Each test boots an in-process :class:`ReproServer` on a loopback port
(its event loop runs on a helper thread) and talks real HTTP through
``http.client``.  Answers fetched over the wire are compared — by
canonical digest — against a direct ``certain_answers`` call on an
identical in-memory database, and response documents are validated
against ``docs/serve.schema.json`` with the in-tree validator.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import pathlib
import threading

import pytest

from repro.core.atoms import RelationSchema
from repro.core.parser import parse_query
from repro.core.terms import Variable
from repro.cqa.certain_answers import OpenQuery, certain_answers
from repro.cqa.engine import CertaintyEngine
from repro.db.database import Database
from repro.obs import read_jsonl
from repro.obs.schema import validate
from repro.serve import ReproServer, answers_digest
from repro.storage import PersistentDatabase

FO_QUERY = "P(x | y), not N('c' | y)"       # acyclic: every method works
CYCLIC_QUERY = "Mayor(t | p), not Lives(p | t)"  # Ex 4.6 q1: no FO rewriting

SCHEMA = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "docs"
     / "serve.schema.json").read_text()
)


def check_shape(instance, shape):
    errors = validate(instance,
                      {"$ref": f"#/$defs/{shape}", "$defs": SCHEMA["$defs"]})
    assert not errors, errors


class ServerHandle:
    """An in-process server on its own event-loop thread."""

    def __init__(self, db, **kwargs):
        self.server = ReproServer(db, port=0, **kwargs)
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        await self.server.start()
        self._ready.set()
        assert self.server._closing is not None
        try:
            await self.server._closing.wait()
        finally:
            await self.server.shutdown()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(10), "server did not come up"
        return self

    def __exit__(self, *exc):
        loop = self.server._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(10)
        assert not self._thread.is_alive(), "server did not shut down"

    # -- tiny HTTP client ----------------------------------------------

    def connection(self):
        return http.client.HTTPConnection("127.0.0.1", self.server.port,
                                          timeout=30)

    def request(self, method, path, payload=None, conn=None):
        own = conn is None
        if own:
            conn = self.connection()
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        data = json.loads(response.read())
        if own:
            conn.close()
        return response.status, data

    def post(self, path, payload):
        return self.request("POST", path, payload)

    def get(self, path):
        return self.request("GET", path)


def seeded_db():
    db = Database([RelationSchema("P", 2, 1), RelationSchema("N", 2, 1)])
    db.add_all("P", [("a", "b"), ("a", "c"), ("d", "e"), ("f", "g")])
    db.add_all("N", [("c", "b"), ("c", "x")])
    return db


@pytest.fixture
def served():
    with ServerHandle(seeded_db()) as handle:
        yield handle


class TestQueryEndpoints:
    def test_healthz(self, served):
        status, body = served.get("/v1/healthz")
        assert status == 200 and body["ok"] is True
        assert body["facts"] == seeded_db().size()
        check_shape(body, "healthz_response")

    def test_certain_matches_library(self, served):
        for method in ("auto", "brute", "interpreted", "rewriting",
                       "compiled", "sql", "columnar"):
            status, body = served.post(
                "/v1/certain", {"query": FO_QUERY,
                                "options": {"method": method}})
            assert status == 200, body
            check_shape(body, "certain_response")
            expected = CertaintyEngine(parse_query(FO_QUERY)).certain(
                seeded_db(), method)
            assert body["certain"] == expected, method

    def test_answers_digest_parity_per_method(self, served):
        oracle = certain_answers(
            OpenQuery(parse_query(FO_QUERY), (Variable("x"),)),
            seeded_db(), "compiled")
        expected = answers_digest(oracle)
        for method in ("auto", "brute", "compiled", "sql", "columnar"):
            status, body = served.post(
                "/v1/answers", {"query": FO_QUERY, "free": ["x"],
                                "options": {"method": method}})
            assert status == 200, body
            check_shape(body, "answers_response")
            assert body["digest"] == expected, method
            assert body["count"] == len(oracle)

    def test_boolean_answers_over_sql(self, served):
        # free defaults to [] on the wire: the Boolean form must run on
        # the in-memory database's SQL path too.
        oracle = certain_answers(OpenQuery(parse_query(FO_QUERY), ()),
                                 seeded_db(), "brute")
        status, body = served.post(
            "/v1/answers", {"query": FO_QUERY, "free": [],
                            "options": {"method": "sql"}})
        assert status == 200, body
        check_shape(body, "answers_response")
        assert body["digest"] == answers_digest(oracle)

    def test_options_string_shorthand(self, served):
        status, body = served.post(
            "/v1/certain", {"query": FO_QUERY, "options": "compiled"})
        assert status == 200 and body["method"] == "compiled"

    def test_parallel_method_over_the_wire(self, served):
        status, body = served.post(
            "/v1/answers", {"query": FO_QUERY, "free": ["x"],
                            "options": {"method": "parallel", "jobs": 2}})
        assert status == 200, body
        oracle = certain_answers(
            OpenQuery(parse_query(FO_QUERY), (Variable("x"),)),
            seeded_db(), "compiled")
        assert body["digest"] == answers_digest(oracle)

    def test_keep_alive_reuses_connection(self, served):
        conn = served.connection()
        try:
            ids = []
            for _ in range(3):
                status, body = served.request(
                    "POST", "/v1/certain", {"query": FO_QUERY}, conn=conn)
                assert status == 200
                ids.append(body["request_id"])
            assert len(set(ids)) == 3  # distinct, monotone request ids
            assert ids == sorted(ids)
        finally:
            conn.close()


class TestErrors:
    def test_unknown_endpoint_404(self, served):
        status, body = served.get("/v1/nope")
        assert status == 404 and body["error"]["code"] == "not-found"
        check_shape(body, "error_response")

    def test_wrong_http_method_405(self, served):
        status, body = served.get("/v1/certain")
        assert status == 405
        assert body["error"]["code"] == "method-not-allowed"

    def test_parse_error_400(self, served):
        status, body = served.post("/v1/certain", {"query": "P(x |"})
        assert status == 400 and body["error"]["code"] == "parse-error"

    def test_not_in_fo_422(self, served):
        status, body = served.post(
            "/v1/certain", {"query": CYCLIC_QUERY,
                            "options": {"method": "compiled"}})
        assert status == 422 and body["error"]["code"] == "not-in-fo"

    def test_unknown_option_field_400(self, served):
        status, body = served.post(
            "/v1/certain", {"query": FO_QUERY, "options": {"workers": 3}})
        assert status == 400 and body["error"]["code"] == "bad-options"

    def test_wire_tracing_rejected(self, served):
        status, body = served.post(
            "/v1/certain", {"query": FO_QUERY, "options": {"trace": True}})
        assert status == 400 and body["error"]["code"] == "bad-options"

    def test_wire_trace_file_rejected(self, served, tmp_path):
        # Only the operator picks a trace sink (ReproServer(trace_file=)):
        # a client naming one gets the unknown-field 400, and nothing
        # is written to the path it named.
        target = tmp_path / "client.jsonl"
        status, body = served.post(
            "/v1/certain", {"query": FO_QUERY,
                            "options": {"trace_file": str(target)}})
        assert status == 400 and body["error"]["code"] == "bad-options"
        assert "trace_file" in body["error"]["message"]
        assert not target.exists()

    def test_unknown_body_field_400(self, served):
        status, body = served.post(
            "/v1/certain", {"query": FO_QUERY, "methods": "sql"})
        assert status == 400 and body["error"]["code"] == "bad-request"

    def test_bad_json_400(self, served):
        conn = served.connection()
        try:
            conn.request("POST", "/v1/certain", body="{nope",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert body["error"]["code"] == "bad-json"
        finally:
            conn.close()

    def test_arity_mismatch_rejected_atomically(self, served):
        status, body = served.post("/v1/facts", {
            "ops": [{"op": "+", "relation": "P", "row": ["only-one"]}]})
        assert status == 400
        _, health = served.get("/v1/healthz")
        assert health["facts"] == seeded_db().size()  # nothing applied


class TestTraceFile:
    def test_one_span_tree_per_request(self, tmp_path):
        out = tmp_path / "serve.jsonl"
        requests = [
            ("/v1/certain", {"query": FO_QUERY}),
            ("/v1/answers", {"query": FO_QUERY, "free": ["x"]}),
            ("/v1/certain", {"query": "P(x |"}),  # an error is traced too
        ]
        with ServerHandle(seeded_db(), trace_file=str(out)) as handle:
            ids = [handle.post(path, payload)[1]["request_id"]
                   for path, payload in requests]
        records = read_jsonl(str(out))
        roots = [r for r in records if r["depth"] == 0]
        trees = [r for r in roots if r["name"] == "serve-request"]
        assert [r["tags"]["request_id"] for r in trees] == ids
        assert [r["tags"]["endpoint"] for r in trees] == [
            f"POST {path}" for path, _ in requests]
        responses = [r for r in roots if r["name"] == "serve-response"]
        assert [(r["tags"]["request_id"], r["tags"]["status"])
                for r in responses] == list(zip(ids, [200, 200, 400]))
        assert len(roots) == 2 * len(requests)


class TestFactsAndViews:
    def test_facts_batch_and_requery(self, served):
        status, body = served.post("/v1/facts", {
            "schemas": [{"name": "Q", "arity": 1, "key_size": 1}],
            "ops": [
                {"op": "+", "relation": "P", "row": ["h", "i"]},
                {"op": "-", "relation": "P", "row": ["f", "g"]},
                {"op": "+", "relation": "Q", "row": ["solo"]},
            ]})
        assert status == 200, body
        check_shape(body, "facts_response")
        assert body["inserted"] == 2 and body["deleted"] == 1
        oracle = seeded_db()
        oracle.add_relation(RelationSchema("Q", 1, 1))
        oracle.add("P", ("h", "i"))
        oracle.discard("P", ("f", "g"))
        oracle.add("Q", ("solo",))
        expected = certain_answers(
            OpenQuery(parse_query(FO_QUERY), (Variable("x"),)),
            oracle, "compiled")
        _, answers = served.post(
            "/v1/answers", {"query": FO_QUERY, "free": ["x"]})
        assert answers["digest"] == answers_digest(expected)

    def test_view_lifecycle_and_long_poll(self, served):
        status, body = served.post("/v1/views", {
            "name": "watch", "query": FO_QUERY, "free": ["x"]})
        assert status == 200 and body["created"] is True
        check_shape(body, "view_response")
        version = body["version"]

        # re-registering the same spec is idempotent
        status, body = served.post("/v1/views", {
            "name": "watch", "query": FO_QUERY, "free": ["x"]})
        assert status == 200 and body["created"] is False

        # conflicting spec under the same name is refused
        status, body = served.post("/v1/views", {
            "name": "watch", "query": FO_QUERY, "free": ["y"]})
        assert status == 409

        status, body = served.get("/v1/views")
        assert status == 200 and len(body["views"]) == 1
        check_shape(body, "views_response")

        # a long-poll parked on the current version wakes on a write
        result = {}

        def poll():
            result["r"] = served.get(
                f"/v1/views/watch/changes?since={version}&wait=10")

        thread = threading.Thread(target=poll)
        thread.start()
        served.post("/v1/facts", {
            "ops": [{"op": "+", "relation": "P", "row": ["new", "thing"]}]})
        thread.join(15)
        assert not thread.is_alive()
        status, changes = result["r"]
        assert status == 200 and changes["timed_out"] is False
        check_shape(changes, "changes_response")
        assert ["new"] in changes["inserted"]

    def test_long_poll_timeout(self, served):
        served.post("/v1/views", {"name": "idle", "query": FO_QUERY,
                                  "free": ["x"]})
        status, body = served.get("/v1/views/idle/changes?since=999999&wait=0.2")
        assert status == 200 and body["timed_out"] is True

    def test_unknown_view_404(self, served):
        status, body = served.get("/v1/views/ghost/changes?since=0")
        assert status == 404

    def test_view_not_in_fo_422(self, served):
        status, body = served.post("/v1/views", {
            "name": "bad", "query": CYCLIC_QUERY})
        assert status == 422 and body["error"]["code"] == "not-in-fo"

    def test_metrics_document(self, served):
        served.post("/v1/certain", {"query": FO_QUERY})
        status, body = served.get("/v1/metrics")
        assert status == 200
        check_shape(body, "metrics_response")
        assert body["server"]["requests_total"] >= 2
        assert body["engine"]["schema_version"] == 1
        assert body["storage"] is None  # in-memory database


class TestPersistence:
    def test_named_views_survive_restart(self, tmp_path):
        store_path = tmp_path / "store"
        with PersistentDatabase(store_path) as store:
            store.add_relation(RelationSchema("P", 2, 1))
            store.add_relation(RelationSchema("N", 2, 1))
            store.add_all("P", [("a", "b"), ("d", "e")])

        db = PersistentDatabase(store_path)
        with ServerHandle(db) as handle:
            status, body = handle.post("/v1/views", {
                "name": "durable", "query": FO_QUERY, "free": ["x"]})
            assert status == 200
            handle.post("/v1/facts", {
                "ops": [{"op": "+", "relation": "P", "row": ["h", "i"]}]})
            _, listing = handle.get("/v1/views")
            digest = listing["views"][0]["digest"]
            _, metrics = handle.get("/v1/metrics")
            assert metrics["storage"]["open"] is True
        assert not db.is_open  # server shutdown closed the store

        db2 = PersistentDatabase(store_path)
        with ServerHandle(db2) as handle:
            status, listing = handle.get("/v1/views")
            assert status == 200
            assert [v["name"] for v in listing["views"]] == ["durable"]
            assert listing["views"][0]["digest"] == digest

    def test_named_view_manifest_is_durable(self, tmp_path, fsync_spy):
        store_path = tmp_path / "store"
        with PersistentDatabase(store_path) as store:
            store.add_relation(RelationSchema("P", 2, 1))
            store.add_relation(RelationSchema("N", 2, 1))
        with ServerHandle(PersistentDatabase(store_path)) as handle:
            fsync_spy.events.clear()
            status, _ = handle.post("/v1/views", {
                "name": "durable", "query": FO_QUERY, "free": ["x"]})
            assert status == 200
            fsync_spy.assert_durable(store_path / "serve_views.json")

    def test_writes_survive_restart(self, tmp_path):
        store_path = tmp_path / "store"
        PersistentDatabase(store_path).close()
        with ServerHandle(PersistentDatabase(store_path)) as handle:
            handle.post("/v1/facts", {
                "schemas": [{"name": "R", "arity": 2, "key_size": 1}],
                "ops": [{"op": "+", "relation": "R", "row": ["k", "v"]}]})
        reopened = PersistentDatabase(store_path)
        try:
            assert reopened.contains("R", ("k", "v"))
        finally:
            reopened.close()

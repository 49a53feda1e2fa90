"""The ``repro serve`` daemon: a long-running CQA service.

One :class:`ReproServer` owns one database (usually a
:class:`~repro.storage.store.PersistentDatabase`) for its whole
lifetime, so everything the batch CLI rebuilds per invocation stays
warm across requests: the FO plan cache, the columnar store's encoded
columns and scan caches, the SQL statement cache and integer-encoded
mirror (once a ``sql`` request builds it), the forked parallel worker
pools, and every registered incremental view.

Concurrency model
-----------------

The HTTP front end is a single asyncio event loop; engine work runs in
a thread pool so the loop stays responsive.  A write-preferring
readers/writer lock keeps query execution consistent with fact
batches: any number of reads (``/v1/certain``, ``/v1/answers``,
view-change reads) overlap each other, while a ``/v1/facts`` batch
holds the database exclusively — so a read never observes a torn
batch, and ``clock`` values in responses are taken under the same
lock as the answers they describe.  Admission control reuses the
parallel layer's sizing rule (:func:`repro.parallel.admission_slots`):
at most that many engine calls execute concurrently; the rest queue.

Long-polling
------------

``GET /v1/views/{name}/changes?since=C&wait=S`` answers immediately
when the view has moved past clock ``C``, and otherwise parks on a
broadcast event that every committed batch sets (the changelog
subscriber hops from the committing thread onto the event loop via
``call_soon_threadsafe``).  Responses compose: applying the returned
``inserted``/``deleted`` to the answers at ``since`` yields the
answers at ``version``.

Every request runs under an obs span tagged with a server-assigned
request id; with ``--trace-out`` the span tree of each request is
appended to a JSONL trace file (`docs/trace.schema.json` shape).
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import pathlib
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.atoms import RelationSchema
from ..core.parser import ParseError, parse_query
from ..core.query import QueryError
from ..core.terms import Variable
from ..cqa.engine import CertaintyEngine
from ..cqa.rewriting import NotInFO
from ..db.database import Database, SchemaError
from ..incremental.views import StaleVersionError, View, view_manager
from ..obs.metrics import collect_metrics
from ..obs.options import ExecutionOptions, OptionsError
from ..obs.trace import Tracer
from ..parallel import admission_slots, release_database
from ..storage.store import write_manifest
from .http import HttpError, Request, json_body, read_request, response_bytes
from .protocol import (
    SCHEMA_VERSION,
    _digest_wire,
    answers_digest,
    error_payload,
    row_from_wire,
    rows_to_wire,
)

__all__ = ["ReproServer", "SERVE_VIEWS_FILE"]

#: Manifest of named views registered through the serve API, kept in
#: the store directory (distinct from the store's own ``views.json``,
#: which holds unnamed durable views registered through the library).
SERVE_VIEWS_FILE = "serve_views.json"

#: Cap on per-query CertaintyEngine instances kept warm.
_ENGINE_CACHE_LIMIT = 128

#: Longest single long-poll wait (clients re-arm; keeps sockets honest).
_MAX_WAIT_SECONDS = 30.0

_VIEW_NAME_MAX = 128


class _RWLock:
    """A write-preferring asyncio readers/writer lock.

    Readers share; a writer excludes everyone.  Once a writer is
    waiting, new readers queue behind it so a steady read load cannot
    starve fact batches.
    """

    def __init__(self) -> None:
        self._cond = asyncio.Condition()
        self._readers = 0
        self._writers_waiting = 0
        self._writing = False

    @contextlib.asynccontextmanager
    async def read_locked(self):
        async with self._cond:
            await self._cond.wait_for(
                lambda: not self._writing and not self._writers_waiting
            )
            self._readers += 1
        try:
            yield
        finally:
            async with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextlib.asynccontextmanager
    async def write_locked(self):
        async with self._cond:
            self._writers_waiting += 1
            try:
                await self._cond.wait_for(
                    lambda: not self._writing and not self._readers
                )
            finally:
                self._writers_waiting -= 1
            self._writing = True
        try:
            yield
        finally:
            async with self._cond:
                self._writing = False
                self._cond.notify_all()


def _expect(body: Any, allowed: Tuple[str, ...],
            required: Tuple[str, ...]) -> Dict[str, Any]:
    """Validate a JSON request body's shape (object, known keys only)."""
    if not isinstance(body, dict):
        raise HttpError(400, "bad-request", "request body must be a JSON object")
    unknown = sorted(set(body) - set(allowed))
    if unknown:
        raise HttpError(
            400, "bad-request",
            f"unknown field(s) {unknown}; expected a subset of {sorted(allowed)}",
        )
    for key in required:
        if key not in body:
            raise HttpError(400, "bad-request", f"missing required field {key!r}")
    return body

def _string_field(body: Dict[str, Any], key: str) -> str:
    value = body[key]
    if not isinstance(value, str) or not value.strip():
        raise HttpError(400, "bad-request",
                        f"field {key!r} must be a non-empty string")
    return value


def _free_field(body: Dict[str, Any]) -> Tuple[str, ...]:
    names = body.get("free", [])
    if not isinstance(names, list) or not all(
        isinstance(n, str) and n for n in names
    ):
        raise HttpError(400, "bad-request",
                        "field 'free' must be a list of variable names")
    return tuple(names)


def _options_field(body: Dict[str, Any]) -> ExecutionOptions:
    raw = body.get("options")
    try:
        return ExecutionOptions.coerce(raw)
    except OptionsError as exc:
        raise HttpError(400, "bad-options", str(exc))
    except TypeError as exc:
        raise HttpError(400, "bad-options", str(exc))


class ReproServer:
    """The long-running CQA service around one database.

    Parameters
    ----------
    db:
        The database to serve — a plain :class:`Database` or a
        :class:`~repro.storage.store.PersistentDatabase` (writes then
        go through the WAL and views re-register across restarts).
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    jobs:
        Admission width *and* the default worker count for
        ``method="parallel"`` requests that do not set their own.
    trace_file:
        Append every request's span tree to this JSONL file.
    """

    def __init__(self, db: Database, *, host: str = "127.0.0.1",
                 port: int = 8100, jobs: Optional[int] = None,
                 trace_file: Optional[str] = None):
        self.db = db
        self.host = host
        self.port = port
        self.jobs = jobs
        self.trace_file = trace_file
        self._slots = admission_slots(jobs if jobs is not None
                                      else (os.cpu_count() or 1))
        self._rw = _RWLock()
        self._admission: Optional[asyncio.Semaphore] = None
        self._executor = ThreadPoolExecutor(
            max_workers=self._slots + 1, thread_name_prefix="repro-serve"
        )
        self._engines: Dict[str, CertaintyEngine] = {}
        self._views: Dict[str, View] = {}
        self._view_specs: Dict[str, Dict[str, Any]] = {}
        self._manager = view_manager(db)
        self._ids = itertools.count(1)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._commit_event: Optional[asyncio.Event] = None
        self._closing: Optional[asyncio.Event] = None
        self._conn_tasks: set = set()
        self._started_at = time.monotonic()
        self._counters: Dict[str, Any] = {
            "requests_total": 0,
            "errors_total": 0,
            "in_flight": 0,
            "long_poll_waits": 0,
            "commits_broadcast": 0,
            "admission_slots": self._slots,
            "endpoints": {},
        }
        self._routes: Dict[Tuple[str, str], Callable] = {
            ("POST", "/v1/certain"): self._ep_certain,
            ("POST", "/v1/answers"): self._ep_answers,
            ("POST", "/v1/facts"): self._ep_facts,
            ("POST", "/v1/views"): self._ep_register_view,
            ("GET", "/v1/views"): self._ep_list_views,
            ("GET", "/v1/metrics"): self._ep_metrics,
            ("GET", "/v1/healthz"): self._ep_healthz,
        }
        self._load_named_views()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket and attach the changelog bridge."""
        self._loop = asyncio.get_running_loop()
        self._admission = asyncio.Semaphore(self._slots)
        self._commit_event = asyncio.Event()
        self._closing = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=256 * 1024,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.db.subscribe(self._on_commit)

    async def run(self) -> None:
        """Serve until :meth:`request_shutdown`, then tear down."""
        await self.start()
        assert self._closing is not None
        try:
            await self._closing.wait()
        finally:
            await self.shutdown()

    def request_shutdown(self) -> None:
        """Begin a graceful stop (signal-handler safe on the loop)."""
        if self._closing is not None and not self._closing.is_set():
            self._closing.set()
            self._wake_pollers()

    async def shutdown(self) -> None:
        """Drain connections and release every held resource."""
        if self._closing is not None:
            self._closing.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._wake_pollers()
        if self._conn_tasks:
            done, pending = await asyncio.wait(
                self._conn_tasks, timeout=5.0
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        with contextlib.suppress(ValueError):
            self.db.unsubscribe(self._on_commit)
        self._executor.shutdown(wait=True)
        release_database(self.db)
        if hasattr(self.db, "close") and getattr(self.db, "is_open", False):
            self.db.close()

    # ------------------------------------------------------------------
    # changelog bridge + long-poll broadcast
    # ------------------------------------------------------------------

    def _on_commit(self, _log: Any) -> None:
        # Runs on whichever thread committed; hop onto the loop.
        loop = self._loop
        if loop is not None and not loop.is_closed():
            loop.call_soon_threadsafe(self._broadcast_commit)

    def _broadcast_commit(self) -> None:
        self._counters["commits_broadcast"] += 1
        self._wake_pollers()

    def _wake_pollers(self) -> None:
        if self._commit_event is not None:
            event, self._commit_event = self._commit_event, asyncio.Event()
            event.set()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpError as exc:
                    writer.write(response_bytes(
                        exc.status,
                        error_payload(exc.code, exc.message, **exc.extra),
                        keep_alive=False,
                    ))
                    await writer.drain()
                    break
                if request is None:
                    break
                status, payload = await self._handle_request(request)
                keep_alive = request.keep_alive and not (
                    self._closing is not None and self._closing.is_set()
                )
                writer.write(response_bytes(status, payload,
                                            keep_alive=keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _handle_request(self, request: Request) -> Tuple[int, Dict]:
        rid = f"r{next(self._ids):08d}"
        name = f"{request.method} {request.target}"
        tracer = Tracer() if self.trace_file else None
        started = time.perf_counter()
        self._counters["requests_total"] += 1
        self._counters["in_flight"] += 1
        status = 500
        try:
            endpoint = self._route(request)
            if tracer is not None:
                with tracer.span("serve-request", request_id=rid,
                                 endpoint=name):
                    payload = await endpoint(request, rid, tracer)
            else:
                payload = await endpoint(request, rid, None)
            payload.setdefault("schema_version", SCHEMA_VERSION)
            payload.setdefault("request_id", rid)
            status = 200
            return 200, payload
        except HttpError as exc:
            status = exc.status
            return exc.status, error_payload(exc.code, exc.message,
                                             request_id=rid, **exc.extra)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — daemon must not die
            status = 500
            return 500, error_payload(
                "internal", f"{type(exc).__name__}: {exc}", request_id=rid
            )
        finally:
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            self._counters["in_flight"] -= 1
            if status >= 400:
                self._counters["errors_total"] += 1
            per = self._counters["endpoints"].setdefault(
                name, {"count": 0, "errors": 0, "total_ms": 0.0, "max_ms": 0.0}
            )
            per["count"] += 1
            if status >= 400:
                per["errors"] += 1
            per["total_ms"] += elapsed_ms
            per["max_ms"] = max(per["max_ms"], elapsed_ms)
            if tracer is not None:
                tracer.event("serve-response", request_id=rid, status=status,
                             elapsed_ms=round(elapsed_ms, 3))
                with contextlib.suppress(OSError):
                    tracer.write_jsonl(self.trace_file)

    def _route(self, request: Request) -> Callable:
        handler = self._routes.get((request.method, request.target))
        if handler is not None:
            return handler
        if request.target.startswith("/v1/views/") \
                and request.target.endswith("/changes"):
            if request.method != "GET":
                raise HttpError(405, "method-not-allowed",
                                f"{request.method} not allowed here")
            return self._ep_view_changes
        known_paths = {path for _, path in self._routes}
        if request.target in known_paths:
            raise HttpError(405, "method-not-allowed",
                            f"{request.method} {request.target} not allowed")
        raise HttpError(404, "not-found", f"no such endpoint {request.target}")

    # ------------------------------------------------------------------
    # engine plumbing
    # ------------------------------------------------------------------

    def _engine_for(self, text: str) -> CertaintyEngine:
        """The cached per-query engine (parse + classification reused)."""
        engine = self._engines.pop(text, None)
        if engine is None:
            try:
                engine = CertaintyEngine(parse_query(text))
            except (ParseError, QueryError) as exc:
                raise HttpError(400, "parse-error", str(exc))
        self._engines[text] = engine  # re-insert = move to MRU end
        while len(self._engines) > _ENGINE_CACHE_LIMIT:
            self._engines.pop(next(iter(self._engines)))
        return engine

    def _apply_default_jobs(self, opts: ExecutionOptions) -> ExecutionOptions:
        if opts.method == "parallel" and opts.jobs is None \
                and self.jobs is not None:
            return opts.replace(jobs=self.jobs)
        return opts

    async def _run_read(self, fn: Callable[[], Any]) -> Any:
        """Run one engine call in the pool, under admission control."""
        assert self._admission is not None and self._loop is not None
        async with self._admission:
            return await self._loop.run_in_executor(self._executor, fn)

    async def _run_write(self, fn: Callable[[], Any]) -> Any:
        assert self._loop is not None
        return await self._loop.run_in_executor(self._executor, fn)

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------

    async def _ep_certain(self, request: Request, rid: str,
                          tracer: Optional[Tracer]) -> Dict[str, Any]:
        body = _expect(json_body(request), ("query", "options"), ("query",))
        text = _string_field(body, "query")
        opts = self._apply_default_jobs(_options_field(body))
        engine = self._engine_for(text)
        t0 = time.perf_counter()
        async with self._rw.read_locked():
            clock = self.db.clock
            try:
                answer = await self._run_read(
                    lambda: engine.certain(self.db, opts, tracer=tracer)
                )
            except NotInFO as exc:
                raise HttpError(422, "not-in-fo", str(exc))
        return {
            "query": text,
            "method": opts.resolved_method,
            "options": opts.to_dict(),
            "clock": clock,
            "certain": bool(answer),
            "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
        }

    async def _ep_answers(self, request: Request, rid: str,
                          tracer: Optional[Tracer]) -> Dict[str, Any]:
        body = _expect(json_body(request), ("query", "free", "options"),
                       ("query",))
        text = _string_field(body, "query")
        free = _free_field(body)
        opts = self._apply_default_jobs(_options_field(body))
        engine = self._engine_for(text)
        variables = tuple(Variable(n) for n in free)

        def answer() -> Tuple[List[List[Any]], str]:
            wire = rows_to_wire(engine.certain_answers(
                self.db, variables, opts, tracer=tracer))
            return wire, _digest_wire(wire)

        t0 = time.perf_counter()
        async with self._rw.read_locked():
            clock = self.db.clock
            try:
                answers, digest = await self._run_read(answer)
            except NotInFO as exc:
                raise HttpError(422, "not-in-fo", str(exc))
            except QueryError as exc:
                raise HttpError(400, "bad-request", str(exc))
        return {
            "query": text,
            "free": list(free),
            "method": opts.resolved_method,
            "options": opts.to_dict(),
            "clock": clock,
            "answers": answers,
            "count": len(answers),
            "digest": digest,
            "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
        }

    async def _ep_facts(self, request: Request, rid: str,
                        tracer: Optional[Tracer]) -> Dict[str, Any]:
        body = _expect(json_body(request), ("schemas", "ops"), ())
        schemas = self._parse_schemas(body.get("schemas", []))
        ops = self._parse_ops(body.get("ops", []))
        t0 = time.perf_counter()
        async with self._rw.write_locked():
            def apply() -> Tuple[int, int, int]:
                span = tracer.span("serve-facts", request_id=rid,
                                   ops=len(ops)) if tracer else \
                    contextlib.nullcontext()
                with span:
                    for schema in schemas:
                        self.db.add_relation(schema)
                    for _sign, relation, row in ops:
                        schema = self.db.schemas.get(relation)
                        if schema is None:
                            raise HttpError(
                                400, "bad-request",
                                f"unknown relation {relation!r}; declare it "
                                "under 'schemas'",
                            )
                        if len(row) != schema.arity:
                            raise HttpError(
                                400, "bad-request",
                                f"{relation} has arity {schema.arity}, got "
                                f"row of length {len(row)}",
                            )
                    self.db.begin_batch()
                    try:
                        for sign, relation, row in ops:
                            if sign:
                                self.db.add(relation, row)
                            else:
                                self.db.discard(relation, row)
                    finally:
                        deltas = self.db.commit().deltas.values()
                    return (sum(len(d.inserted) for d in deltas),
                            sum(len(d.deleted) for d in deltas),
                            self.db.clock)

            inserted, deleted, clock = await self._run_write(apply)
        return {
            "clock": clock,
            "applied": len(ops),
            "inserted": inserted,
            "deleted": deleted,
            "relations": sorted({rel for _, rel, _ in ops}
                                | {s.name for s in schemas}),
            "elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3),
        }

    async def _ep_register_view(self, request: Request, rid: str,
                                tracer: Optional[Tracer]) -> Dict[str, Any]:
        body = _expect(json_body(request), ("name", "query", "free"),
                       ("name", "query"))
        name = _string_field(body, "name")
        if len(name) > _VIEW_NAME_MAX or "/" in name:
            raise HttpError(400, "bad-request",
                            "view names must be short and slash-free")
        text = _string_field(body, "query")
        free = _free_field(body)
        existing = self._view_specs.get(name)
        if existing is not None:
            if existing != {"query": text, "free": list(free)}:
                raise HttpError(
                    409, "bad-request",
                    f"view {name!r} already registered with a different "
                    "query; unregistering is not supported over the wire",
                )
            view = self._views[name]
            return self._view_summary(name, view, created=False)
        try:
            query = parse_query(text)
        except (ParseError, QueryError) as exc:
            raise HttpError(400, "parse-error", str(exc))
        variables = [Variable(n) for n in free]
        async with self._rw.write_locked():
            def register() -> View:
                return self._manager.register_view(query, variables)
            try:
                view = await self._run_write(register)
            except NotInFO as exc:
                raise HttpError(422, "not-in-fo", str(exc))
            except QueryError as exc:
                raise HttpError(400, "bad-request", str(exc))
            self._views[name] = view
            self._view_specs[name] = {"query": text, "free": list(free)}
            self._persist_named_views()
        return self._view_summary(name, view, created=True)

    async def _ep_list_views(self, request: Request, rid: str,
                             tracer: Optional[Tracer]) -> Dict[str, Any]:
        async with self._rw.read_locked():
            views = [self._view_summary(name, view)
                     for name, view in sorted(self._views.items())]
            clock = self.db.clock
        return {"clock": clock, "views": views}

    async def _ep_view_changes(self, request: Request, rid: str,
                               tracer: Optional[Tracer]) -> Dict[str, Any]:
        name = request.target[len("/v1/views/"):-len("/changes")]
        try:
            since = int(request.query.get("since", "0"))
        except ValueError:
            raise HttpError(400, "bad-request", "'since' must be an integer")
        try:
            wait = min(float(request.query.get("wait", "0")),
                       _MAX_WAIT_SECONDS)
        except ValueError:
            raise HttpError(400, "bad-request", "'wait' must be a number")
        deadline = time.monotonic() + max(0.0, wait)
        while True:
            # Arm before checking: a commit between the check and the
            # await sets the event we already hold, so it cannot be lost.
            event = self._commit_event
            async with self._rw.read_locked():
                view = self._views.get(name)
                if view is None:
                    raise HttpError(404, "not-found", f"no view named {name!r}")
                version = view.version
                if version > since:
                    try:
                        ins, dels = view.changed_since(since)
                    except StaleVersionError as exc:
                        raise HttpError(409, "stale-version", str(exc),
                                        version=version)
                    return {
                        "name": name, "since": since, "version": version,
                        "inserted": rows_to_wire(ins),
                        "deleted": rows_to_wire(dels), "timed_out": False,
                    }
            remaining = deadline - time.monotonic()
            closing = self._closing is not None and self._closing.is_set()
            if remaining <= 0 or event is None or closing:
                return {
                    "name": name, "since": since, "version": version,
                    "inserted": [], "deleted": [], "timed_out": True,
                }
            self._counters["long_poll_waits"] += 1
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(event.wait(), timeout=remaining)

    async def _ep_metrics(self, request: Request, rid: str,
                          tracer: Optional[Tracer]) -> Dict[str, Any]:
        server = json.loads(json.dumps(self._counters))  # deep copy
        server["uptime_s"] = round(time.monotonic() - self._started_at, 3)
        server["views"] = len(self._views)
        server["engine_cache"] = len(self._engines)
        payload: Dict[str, Any] = {
            "clock": self.db.clock,
            "engine": collect_metrics().to_dict(),
            "server": server,
        }
        status = getattr(self.db, "storage_status", None)
        payload["storage"] = status() if callable(status) else None
        return payload

    async def _ep_healthz(self, request: Request, rid: str,
                          tracer: Optional[Tracer]) -> Dict[str, Any]:
        return {
            "ok": True,
            "clock": self.db.clock,
            "facts": self.db.size(),
            "relations": len(self.db.schemas),
            "views": len(self._views),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
        }

    # ------------------------------------------------------------------
    # request-shape helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _parse_schemas(raw: Any) -> List[RelationSchema]:
        if not isinstance(raw, list):
            raise HttpError(400, "bad-request", "'schemas' must be a list")
        out = []
        for i, spec in enumerate(raw):
            if not isinstance(spec, dict):
                raise HttpError(400, "bad-request",
                                f"schemas[{i}] must be an object")
            try:
                name = spec["name"]
                arity = spec["arity"]
                key_size = spec.get("key_size", spec.get("key"))
            except KeyError as exc:
                raise HttpError(400, "bad-request",
                                f"schemas[{i}] is missing {exc.args[0]!r}")
            if key_size is None:
                raise HttpError(400, "bad-request",
                                f"schemas[{i}] is missing 'key_size'")
            if not isinstance(name, str) or not isinstance(arity, int) \
                    or not isinstance(key_size, int) \
                    or isinstance(arity, bool) or isinstance(key_size, bool):
                raise HttpError(400, "bad-request",
                                f"schemas[{i}] fields have wrong types")
            try:
                out.append(RelationSchema(name, arity, key_size))
            except (ValueError, SchemaError) as exc:
                raise HttpError(400, "bad-request", f"schemas[{i}]: {exc}")
        return out

    @staticmethod
    def _parse_ops(raw: Any) -> List[Tuple[bool, str, Tuple]]:
        if not isinstance(raw, list):
            raise HttpError(400, "bad-request", "'ops' must be a list")
        out = []
        for i, spec in enumerate(raw):
            if not isinstance(spec, dict):
                raise HttpError(400, "bad-request", f"ops[{i}] must be an object")
            _expect(spec, ("op", "relation", "row"),
                    ("op", "relation", "row"))
            sign = spec["op"]
            if sign not in ("+", "-", "add", "discard"):
                raise HttpError(400, "bad-request",
                                f"ops[{i}].op must be '+' or '-'")
            relation = spec["relation"]
            if not isinstance(relation, str):
                raise HttpError(400, "bad-request",
                                f"ops[{i}].relation must be a string")
            try:
                row = row_from_wire(spec["row"])
            except ValueError as exc:
                raise HttpError(400, "bad-request", f"ops[{i}].row: {exc}")
            out.append((sign in ("+", "add"), relation, row))
        return out

    def _view_summary(self, name: str, view: View,
                      created: Optional[bool] = None) -> Dict[str, Any]:
        spec = self._view_specs[name]
        answers = view.answers
        out: Dict[str, Any] = {
            "name": name,
            "query": spec["query"],
            "free": list(spec["free"]),
            "version": view.version,
            "count": len(answers),
            "digest": answers_digest(answers),
        }
        if created is not None:
            out["created"] = created
        return out

    # ------------------------------------------------------------------
    # named-view persistence
    # ------------------------------------------------------------------

    def _serve_views_path(self) -> Optional[pathlib.Path]:
        store_path = getattr(self.db, "path", None)
        if store_path is None:
            return None
        return pathlib.Path(store_path) / SERVE_VIEWS_FILE

    def _persist_named_views(self) -> None:
        path = self._serve_views_path()
        if path is None:
            return
        write_manifest(path, {"views": self._view_specs})

    def _load_named_views(self) -> None:
        path = self._serve_views_path()
        if path is None or not path.exists():
            return
        manifest = json.loads(path.read_text())
        for name, spec in sorted(manifest.get("views", {}).items()):
            query = parse_query(spec["query"])
            variables = [Variable(n) for n in spec["free"]]
            self._views[name] = self._manager.register_view(query, variables)
            self._view_specs[name] = {"query": spec["query"],
                                      "free": list(spec["free"])}

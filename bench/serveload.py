"""serve-open: an open-loop rate ladder against a ``repro serve`` process.

One client process sends on a fixed schedule over two keep-alive
connections, whatever the server's state: request ``i`` of a step is
due at ``start + i / rate`` and its latency runs from that due time, so
a stall also charges the requests queued behind it.  A request that
could not be sent within a second of its due time is shed (not sent).
The mix is 80% ``/v1/answers`` (four queries), 5% ``/v1/certain``, 5%
view-change polls and 10% fact batches.

The ladder runs three times over, and each rate's steps are pooled: a
slow second or two of the host then lands in a part of each rate's
samples instead of in all of one rate's.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import selectors
import shutil
import signal
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.core.parser import parse_query
from repro.core.terms import Variable
from repro.cqa.engine import CertaintyEngine
from repro.serve.protocol import answers_digest, row_from_wire, rows_to_wire
from repro.workloads.generators import UpdateStreamParams, random_update_stream
from repro.workloads.poll import random_poll_database

from common import ROOT, quantile
from workloads import (
    LIVES_NOT_BORN,
    MAYOR_TOWNS,
    POLL_QA,
    POLL_QB,
    copy_database,
    dir_bytes,
    ingest,
    mean,
    pct_ms,
    people_towns,
    window_rate,
)

RATES = (15, 40, 100, 250)
CYCLES = 3
#: Share of the run each rate takes, over all cycles.  The end-to-end
#: latency is read at 15 req/s: at 40 (about 70% of capacity here)
#: queueing turns a few percent of host noise into tens of percent of
#: latency.  The 40 step still gives the serve-layer split under
#: contention, and the saturated top step gives the capacity.
STEP_SHARES = (0.45, 0.25, 0.1, 0.2)
LATENCY_RATE = 15
LAYER_RATE = 40
#: Completions per window of the capacity median (see window_rate).
CAPACITY_WINDOW = 10
CONNECTIONS = 2
SHED_AFTER_S = 1.0
READ_P95_LIMIT_MS = 250.0
MIX = (("answers", 0.80), ("certain", 0.05), ("changes", 0.05),
       ("facts", 0.10))
QUERIES = (("poll_qa(p)", POLL_QA, ["p"]),
           ("lives_not_born(p)", LIVES_NOT_BORN, ["p"]),
           ("mayor_towns(t)", MAYOR_TOWNS, ["t"]),
           ("poll_qb(p)", POLL_QB, ["p"]))
VIEW = "bench"
#: Share of the traced run's seconds spent on an untraced top-rate step.
UNTRACED_SHARE = 0.25


class Server:
    """A ``python -m repro serve`` subprocess on a store directory."""

    def __init__(self, store: Any, log: Any,
                 trace_out: Optional[Any] = None):
        cmd = [sys.executable, "-m", "repro", "serve", "--db-path",
               str(store), "--port", "0"]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self.log = open(log, "w")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                     stderr=self.log, text=True)
        try:
            line = self._ready_line(timeout=60.0)
            if not line.startswith("listening on "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise

    def _ready_line(self, timeout: float) -> str:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                raise RuntimeError("server readiness line timed out")
        return self.proc.stdout.readline().strip()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class Client:
    """One keep-alive HTTP connection; reconnects after an error."""

    def __init__(self, port: int):
        self.port = port
        self.conn: Optional[http.client.HTTPConnection] = None

    def request(self, method: str, path: str,
                payload: Any = None) -> Tuple[int, Dict[str, Any]]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                   timeout=30)
        body = None if payload is None else json.dumps(payload)
        try:
            self.conn.request(method, path, body=body,
                              headers={"Content-Type": "application/json"})
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        return response.status, json.loads(data)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class Sent:
    """What the client saw of one scheduled request."""

    __slots__ = ("rate", "kind", "due", "sent", "done", "ok", "elapsed_ms",
                 "request_id", "answers", "name", "query", "free")

    def __init__(self, rate: int, kind: str, due: float):
        self.rate = rate
        self.kind = kind
        self.due = due
        self.sent = 0.0
        self.done = 0.0
        self.ok = False
        self.elapsed_ms = 0.0
        self.request_id = ""
        self.answers: Optional[list] = None
        self.name = kind
        self.query = ""
        self.free: List[str] = []


class Load:
    """The scheduled traffic against one server, and what it observed."""

    def __init__(self, port: int, batches: List[list], view_version: int):
        self.port = port
        self.batches = batches
        self.next_batch = 0
        self.since = view_version
        self.applied: List[Tuple[int, int]] = []  # (commit clock, batch)
        self.lock = threading.Lock()

    def step(self, rate: int, plan: List[Tuple[str, int]]) -> Dict[str, Any]:
        """Send ``plan`` at ``rate`` req/s; returns the step's records."""
        records: List[Sent] = []
        shed = [0]
        cursor = [0]
        start = time.perf_counter() + 0.05

        def connection() -> None:
            client = Client(self.port)
            try:
                while True:
                    with self.lock:
                        i = cursor[0]
                        cursor[0] += 1
                    if i >= len(plan):
                        return
                    due = start + i / rate
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    record = Sent(rate, plan[i][0], due)
                    record.sent = time.perf_counter()
                    if record.sent - due > SHED_AFTER_S:
                        with self.lock:
                            shed[0] += 1
                        continue
                    self._send(client, record, plan[i][1])
                    with self.lock:
                        records.append(record)
            finally:
                client.close()

        threads = [threading.Thread(target=connection)
                   for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        done = sorted(r.done for r in records if r.ok)
        return {"rate": rate, "records": records, "shed": shed[0],
                "planned": len(plan),
                "gaps": [b - a for a, b in zip([start] + done, done)]}

    def _send(self, client: Client, record: Sent, arg: int) -> None:
        kind, batch = record.kind, None
        if kind == "answers":
            record.name, record.query, record.free = QUERIES[arg]
            call = ("POST", "/v1/answers", {"query": record.query,
                                            "free": record.free,
                                            "options": "auto"})
        elif kind == "certain":
            record.query = POLL_QA
            call = ("POST", "/v1/certain",
                    {"query": POLL_QA, "options": "auto"})
        elif kind == "changes":
            with self.lock:
                since = self.since
            call = ("GET", f"/v1/views/{VIEW}/changes?since={since}&wait=0",
                    None)
        else:
            with self.lock:
                batch = self.next_batch
                self.next_batch += 1
            ops = [{"op": "+" if insert else "-", "relation": relation,
                    "row": list(row)}
                   for insert, relation, row in self.batches[batch]]
            call = ("POST", "/v1/facts", {"ops": ops})
        try:
            status, body = client.request(*call)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            record.done = time.perf_counter()
            print(f"serve-open: {kind} failed: {exc!r}", file=sys.stderr)
            return
        record.done = time.perf_counter()
        record.ok = status == 200
        if not record.ok:
            print(f"serve-open: {kind} -> {status}: {body}", file=sys.stderr)
            return
        record.elapsed_ms = float(body.get("elapsed_ms", 0.0))
        record.request_id = body.get("request_id", "")
        with self.lock:
            if kind == "changes":
                self.since = max(self.since, body["version"])
            elif kind == "facts":
                self.applied.append((body["clock"], batch))
        if kind == "answers" and record.rate == LAYER_RATE:
            record.answers = body["answers"]


def _plan(rng: random.Random, n: int) -> List[Tuple[str, int]]:
    """About ``n`` requests in exactly the ``MIX`` shares (answers spread
    evenly over the queries), in a seeded order.  Exact shares keep the
    count of slow requests, and so the tail, from moving with the seed."""
    plan: List[Tuple[str, int]] = []
    for kind, share in MIX:
        plan += [(kind, j % len(QUERIES)) for j in range(round(n * share))]
    rng.shuffle(plan)
    return plan


class ServeOpen:
    """The daemon on a 2,400-people store with one registered view."""

    def __init__(self, seed: int, smoke: bool, work: Any):
        self.rng = random.Random(seed)
        self.people = 240 if smoke else 2400
        self.path = work / "serve-open"
        self.log = work / "serve-open.log"
        self.raw_trace = work / "serve-open.spans.jsonl"
        self.server: Optional[Server] = None
        self.failed = 0
        self.attempted = 0

    def generate(self, seconds: float) -> None:
        self.db = random_poll_database(rng=self.rng,
                                       **people_towns(self.people))
        self.step_seconds = {rate: share * seconds / CYCLES
                             for rate, share in zip(RATES, STEP_SHARES)}
        self.plans = [
            {rate: _plan(self.rng,
                         max(1, round(rate * self.step_seconds[rate])))
             for rate in RATES}
            for _ in range(CYCLES)]
        writes = sum(k == "facts" for plans in self.plans
                     for plan in plans.values() for k, _ in plan)
        self.batches = random_update_stream(
            self.db, UpdateStreamParams(n_batches=writes, batch_size=20,
                                        delete_fraction=0.4),
            self.rng)

    def setup(self, trace_out: Optional[Any] = None) -> None:
        if trace_out is not None and os.path.exists(trace_out):
            os.unlink(trace_out)
        ingest(self.path, self.db)
        self.server = Server(self.path, self.log, trace_out)
        client = Client(self.server.port)
        try:
            status, view = client.request(
                "POST", "/v1/views",
                {"name": VIEW, "query": POLL_QA, "free": ["p"]})
            self._expect(status == 200, f"view registration: {view}")
            self.view_version = view["version"]
            for _name, text, free in QUERIES:  # warm-up pass
                status, body = client.request(
                    "POST", "/v1/answers",
                    {"query": text, "free": free, "options": "auto"})
                self._expect(status == 200, f"warm-up: {body}")
            status, body = client.request(
                "POST", "/v1/certain", {"query": POLL_QA, "options": "auto"})
            self._expect(status == 200, f"warm-up: {body}")
        finally:
            client.close()

    def _expect(self, ok: bool, what: str) -> None:
        if not ok:
            raise RuntimeError(f"serve-open set-up failed: {what}")

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def ladder(self) -> List[Dict[str, Any]]:
        """Every cycle's steps, pooled per rate (in ``RATES`` order)."""
        self.load = Load(self.server.port, self.batches, self.view_version)
        by_rate: Dict[int, List[Dict[str, Any]]] = {r: [] for r in RATES}
        for plans in self.plans:
            for rate in RATES:
                by_rate[rate].append(self.load.step(rate, plans[rate]))
        return [_pool(by_rate[rate]) for rate in RATES]

    def saturation(self) -> float:
        """Completed requests per second over untraced top-rate steps."""
        load = Load(self.server.port, self.batches, self.view_version)
        return _rate(_pool([load.step(RATES[-1], plans[RATES[-1]])
                            for plans in self.plans]))

    def parity(self) -> None:
        """Replay the committed batches on an in-process copy and compare
        every query's digest with the server's."""
        mirror = copy_database(self.db)
        for _clock, b in sorted(self.load.applied):
            with mirror.batch():
                for insert, relation, row in self.batches[b]:
                    if insert:
                        mirror.add(relation, row)
                    else:
                        mirror.discard(relation, row)
        client = Client(self.server.port)
        self.digests = {}
        try:
            for name, text, free in QUERIES:
                expected = answers_digest(CertaintyEngine(
                    parse_query(text)).certain_answers(
                        mirror, [Variable(v) for v in free], "compiled"))
                status, body = client.request(
                    "POST", "/v1/answers",
                    {"query": text, "free": free, "options": "auto"})
                self.attempted += 1
                self.failed += status != 200 or body["digest"] != expected
                self.digests[name] = expected
            expected_certain = CertaintyEngine(parse_query(POLL_QA)).certain(
                mirror, "compiled")
            status, body = client.request(
                "POST", "/v1/certain", {"query": POLL_QA, "options": "auto"})
            self.attempted += 1
            self.failed += status != 200 or body["certain"] != expected_certain
            status, health = client.request("GET", "/v1/healthz")
            self.attempted += 1
            self.failed += status != 200 or health["facts"] != mirror.size()
            status, metrics = client.request("GET", "/v1/metrics")
            self.admission_slots = metrics["server"]["admission_slots"]
            self.wal_sync = metrics["storage"]["sync"]
        finally:
            client.close()
        self.facts_after = mirror.size()

    def close(self) -> None:
        self.stop()
        shutil.rmtree(self.path, ignore_errors=True)
        if os.path.exists(self.raw_trace):
            os.unlink(self.raw_trace)


def _pool(steps: List[Dict[str, Any]]) -> Dict[str, Any]:
    return {"rate": steps[0]["rate"],
            "records": [r for s in steps for r in s["records"]],
            "shed": sum(s["shed"] for s in steps),
            "planned": sum(s["planned"] for s in steps),
            "gaps": [g for s in steps for g in s["gaps"]]}


def _rate(step: Dict[str, Any]) -> float:
    """Completed requests per second (a window median, see window_rate)."""
    return window_rate(step["gaps"], CAPACITY_WINDOW)[0]


def _reads(step: Dict[str, Any]) -> List[Sent]:
    return [r for r in step["records"]
            if r.kind in ("answers", "certain") and r.ok]


def _step_summary(step: Dict[str, Any]) -> Dict[str, Any]:
    reads = [r.done - r.due for r in _reads(step)]
    failed = sum(not r.ok for r in step["records"])
    by_name: Dict[str, List[float]] = {}
    for r in step["records"]:
        if r.ok:
            by_name.setdefault(r.name, []).append(r.done - r.due)
    return {"rate": step["rate"], "planned": step["planned"],
            "sent": len(step["records"]), "shed": step["shed"],
            "failed": failed, "reads": len(reads),
            "read_p50_ms": pct_ms(reads, 0.5), "read_p95_ms": pct_ms(reads, 0.95),
            "throughput": _rate(step),
            "p50_ms_by_request": {name: pct_ms(v, 0.5)
                                  for name, v in sorted(by_name.items())}}


def max_rps(summaries: List[Dict[str, Any]]) -> int:
    """Highest step where reads meet the p95 limit, nothing is shed and
    nothing fails."""
    best = 0
    for s in summaries:
        if (s["reads"] and s["read_p95_ms"] <= READ_P95_LIMIT_MS
                and not s["shed"] and not s["failed"]):
            best = s["rate"]
    return best


def _server_requests(path: Any) -> Dict[str, Dict[str, Any]]:
    """Per request id: the server's span records and its engine time."""
    out: Dict[str, Dict[str, Any]] = {}
    current: Optional[Dict[str, Any]] = None
    with open(path) as fp:
        for line in fp:
            record = json.loads(line)
            if record["depth"] == 0 and record["name"] == "serve-request":
                current = {"records": [], "engine_ms": 0.0,
                           "handler_ms": record["duration_ms"]}
                out[record["tags"]["request_id"]] = current
            if current is None:
                continue
            current["records"].append(record)
            if record["depth"] == 1 and record["name"] in (
                    "certain-answers", "certain"):
                current["engine_ms"] += record["duration_ms"]
    return out


def _encode_ms(answers: list) -> float:
    """What the server spends turning these answers into a response."""
    rows = [row_from_wire(row) for row in answers]
    t0 = time.perf_counter()
    json.dumps({"answers": rows_to_wire(rows),
                "digest": answers_digest(rows)})
    return (time.perf_counter() - t0) * 1e3


def run_serve(seed: int, seconds: float, trace: bool, smoke: bool,
              work: Any) -> Dict[str, Any]:
    wl = ServeOpen(seed, smoke, work)
    try:
        if trace:
            seconds *= 1 - UNTRACED_SHARE
        wl.generate(seconds)
        setups = []
        untraced_rps = 0.0
        n_setups = 1 if smoke else 3
        for rep in range(n_setups):
            last = rep == n_setups - 1
            # A traced run measures saturation on the first, untraced
            # server and the ladder on the last, traced one.
            traced_server = trace and last and rep > 0
            wl.stop()
            t0 = time.perf_counter()
            wl.setup(wl.raw_trace if traced_server else None)
            setups.append(time.perf_counter() - t0)
            if trace and rep == 0:
                untraced_rps = wl.saturation()
                if last:
                    wl.stop()
                    wl.setup(wl.raw_trace)
        steps = wl.ladder()
        rss = wl.server.peak_rss_mb()
        wl.parity()
        wl.stop()
        disk = dir_bytes(wl.path) / wl.facts_after
        summaries = [_step_summary(step) for step in steps]
        latencies = [r.done - r.due
                     for r in _reads(steps[RATES.index(LATENCY_RATE)])]
        records = [r for s in steps for r in s["records"]]
        result: Dict[str, Any] = {
            "attempted": len(records) + wl.attempted,
            "failed": sum(not r.ok for r in records) + wl.failed,
            "config": {"people": wl.people, "facts": wl.db.size(),
                       "wal_sync": wl.wal_sync,
                       "admission_slots": wl.admission_slots,
                       "connections": CONNECTIONS, "rates": RATES,
                       "cycles": CYCLES, "step_seconds": wl.step_seconds,
                       "latency_rate": LATENCY_RATE,
                       "layer_rate": LAYER_RATE},
            "digests": wl.digests,
            "detail": {"setup_s": setups, "steps": summaries},
            "idle_prefixes": (),
        }
        if not trace:
            result["values"] = {
                "setup_s": quantile(setups, 0.5),
                "ops_per_s": _rate(steps[-1]),
                "latency_p50_ms": pct_ms(latencies, 0.5),
                "latency_p90_ms": pct_ms(latencies, 0.9),
                "rss_peak_mb": rss,
            }
            result["samples"] = {
                "setup_s": len(setups),
                "ops_per_s": len(steps[-1]["records"]),
                "latency_p50_ms": len(latencies),
                "latency_p90_ms": len(latencies), "rss_peak_mb": 1}
            return result
        result.update(_serve_layers(wl, steps, summaries, disk,
                                    untraced_rps))
        return result
    finally:
        wl.close()


def _serve_layers(wl: ServeOpen, steps: List[Dict[str, Any]],
                  summaries: List[Dict[str, Any]], disk: float,
                  untraced_rps: float) -> Dict[str, Any]:
    """Per-layer metrics from the client's records and ``--trace-out``."""
    server = _server_requests(wl.raw_trace)
    measured = steps[RATES.index(LAYER_RATE)]
    reads = [r for r in _reads(measured) if r.request_id in server]
    writes = [r.done - r.due for r in measured["records"]
              if r.kind == "facts" and r.ok]
    late = [r.sent - r.due for r in measured["records"]]
    engine = [server[r.request_id]["engine_ms"] for r in reads]
    traced_rps = _rate(steps[-1])
    values = {
        "serve.server_ms": mean([r.elapsed_ms for r in reads]),
        "serve.engine_ms": mean(engine),
        "serve.wait_ms": mean([r.elapsed_ms - e
                                for r, e in zip(reads, engine)]),
        "serve.wire_ms": mean([(r.done - r.sent) * 1e3 - r.elapsed_ms
                                for r in reads]),
        "serve.encode_ms": mean([_encode_ms(r.answers) for r in reads
                                  if r.answers is not None]),
        "serve.max_rps": max_rps(summaries),
        "loadgen.late_p95_ms": pct_ms(late, 0.95),
        "read.p50_ms": pct_ms([r.done - r.due for r in reads], 0.5),
        "read.p95_ms": pct_ms([r.done - r.due for r in reads], 0.95),
        "write.p50_ms": pct_ms(writes, 0.5),
        "write.p95_ms": pct_ms(writes, 0.95),
        "storage.disk_bytes_per_fact": disk,
        # Handler time outside the endpoint's own elapsed window.
        "trace.unattributed_ms": mean([
            server[r.request_id]["handler_ms"] - r.elapsed_ms
            for r in reads]),
        "trace.overhead_pct": (100.0 * (untraced_rps / traced_rps - 1.0)
                               if traced_rps else 0.0),
    }
    for s in summaries:
        values[f"serve.shed.{s['rate']}"] = s["shed"]
    docs = []
    for r in (r for s in steps for r in s["records"]):
        spans = server.get(r.request_id)
        if spans is None:
            continue
        for record in spans["records"]:
            record["tags"]["op_id"] = r.request_id
        docs.append(json.dumps({
            "schema_version": 1, "query": r.query, "method": "auto",
            "free": r.free, "answer": None,
            "answers": len(r.answers) if r.answers is not None else None,
            "total_ms": round((r.done - r.due) * 1e3, 6), "operators": [],
            "spans": spans["records"],
        }, sort_keys=True, separators=(",", ":")))
    return {"values": values,
            "samples": {name: len(reads) for name in values},
            "trace_docs": docs,
            # Engine layers run inside the server process, which the
            # benchmark does not instrument; they read 0 here.
            "idle_prefixes": ("core.", "cqa.", "fo.", "exec.", "columnar.",
                              "backend.", "db.", "incremental.",
                              "storage.")}

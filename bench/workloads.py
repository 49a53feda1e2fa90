"""The closed-loop workloads, their shared runner and result assembly.

Inputs are drawn from ``random.Random(seed)`` on the benchmark side and
handed to the program as facts and query text.  A workload object has:

``generate()``
    benchmark-side input generation (not timed);
``setup()``
    program work before the timed phase, every first-call cost
    included; run several times and timed, the median is ``setup_s``
    (``reset()`` drops the previous set-up's state first, untimed);
``op(i)``
    the i-th operation of the seeded sequence as an :class:`Op`
    (``None`` once the inputs are exhausted);
``finish()``
    end-of-run answer checks, returning ``(attempted, failed)``.

One client issues operations back to back (a closed loop).  Answer
checks run between operations, outside the timed calls.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import parser as parser_mod
from repro.core.parser import query_to_text
from repro.core.terms import Variable
from repro.cqa import engine as engine_mod
from repro.cqa.certain_answers import OpenQuery, certain_answers
from repro.db.database import Database
from repro.incremental import view_manager
from repro.parallel import release_database, shutdown_pools
from repro.serve.protocol import answers_digest
from repro.storage import PersistentDatabase
from repro.storage.stats import storage_stats
from repro.workloads.generators import (
    DatabaseParams,
    QueryParams,
    UpdateStreamParams,
    apply_update_stream,
    random_database,
    random_query,
    random_update_stream,
)
from repro.workloads.poll import random_poll_database

import tracing
from common import quantile

POLL_QA = "Lives(p | t), not Born(p | t), not Likes(p, t)"
LIVES_NOT_BORN = "Lives(p | t), not Born(p | t)"
MAYOR_TOWNS = "Mayor(t | p)"
POLL_QB = "Likes(p, t), not Born(p | t), not Lives(p | t)"

#: ingest-views checkpoints whenever the live WAL segment passes this
#: (about 600 batches), so a run completes several checkpoint cycles.
CHECKPOINT_BYTES = 256 << 10
#: Backends every answers-warm query is forced through in the traced run.
BACKENDS = ("compiled", "columnar", "sql", "parallel")
PARALLEL_JOBS = 2
#: Share of a traced run spent untraced, for ``trace.overhead_pct``.
UNTRACED_SHARE = 0.3


def people_towns(people: int) -> Dict[str, int]:
    """``random_poll_database`` sizing: one town per 20 people keeps the
    fact count near 3.9 per person (4,800 people: ~18.6k facts)."""
    return {"n_people": people, "n_towns": max(4, people // 20)}


class Op:
    """One operation of a workload's seeded sequence."""

    __slots__ = ("kind", "thunk", "check", "query", "method", "free", "rows",
                 "name")

    def __init__(self, kind: str, thunk: Callable[[], Any],
                 check: Callable[[Any], bool], query: str = "",
                 method: str = "auto", free: Sequence[str] = (),
                 rows: int = 0, name: str = ""):
        self.kind = kind
        self.name = name or kind
        self.thunk = thunk
        self.check = check
        self.query = query
        self.method = method
        self.free = tuple(free)
        self.rows = rows


class Read:
    """A certain-answer request: answers over ``free``, or Boolean
    certainty when ``free`` is ``None``."""

    def __init__(self, name: str, text: str,
                 free: Optional[Tuple[str, ...]]):
        self.name = name
        self.text = text
        self.free = free
        self.variables = tuple(Variable(v) for v in free or ())

    def engine(self) -> Any:
        # Looked up through the modules, so the traced run's wrappers apply.
        return engine_mod.CertaintyEngine(parser_mod.parse_query(self.text))

    def run(self, engine: Any, db: Any, options: Any = "auto",
            tracer: Any = None) -> Any:
        if self.free is None:
            return engine.certain(db, options, tracer=tracer)
        return engine.certain_answers(db, self.variables, options,
                                      tracer=tracer)


def digest(result: Any) -> str:
    if isinstance(result, bool):
        return f"bool:{result}"
    return answers_digest(result)


def ingest(path: Any, db: Database) -> None:
    """Load a generated database into a fresh store and checkpoint it."""
    shutil.rmtree(path, ignore_errors=True)
    store = PersistentDatabase(path)
    for schema in db.schemas.values():
        store.add_relation(schema)
    with store.batch():
        for name in db.relations():
            store.add_all(name, db.facts(name))
    store.checkpoint()
    store.close()


def dir_bytes(path: Any) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path)
               if entry.is_file())


def copy_database(db: Database) -> Database:
    out = Database(db.schemas.values())
    for name in db.relations():
        out.add_all(name, db.facts(name))
    return out


def _no_span(_name: str) -> Any:
    return contextlib.nullcontext()


# ----------------------------------------------------------------------
# answers-warm
# ----------------------------------------------------------------------


class AnswersWarm:
    """A read-only durable store above the SQL size gate; every cache fits.

    Seven ``auto`` requests per round.  An odd number of request kinds
    keeps the median latency inside one kind's distribution instead of
    on the boundary between two kinds, where it would jump from run to
    run.
    """

    primary = "read"
    window = 7  # one round
    idle_prefixes = ("serve.", "loadgen.")

    def __init__(self, seed: int, smoke: bool, work: Any):
        self.rng = random.Random(seed)
        self.people = 240 if smoke else 4800
        self.path = work / "answers-warm"
        self.reads = [
            Read("poll_qa(p)", POLL_QA, ("p",)),
            Read("poll_qa(p,t)", POLL_QA, ("p", "t")),
            Read("lives_not_born(p)", LIVES_NOT_BORN, ("p",)),
            Read("mayor_towns(t)", MAYOR_TOWNS, ("t",)),
            Read("poll_qb(p)", POLL_QB, ("p",)),
            Read("certain poll_qa", POLL_QA, None),
            Read("certain poll_qb", POLL_QB, None),
        ]
        self.store: Any = None
        self.store_tracer: Any = None
        self.tracer: Any = None
        self.engines: List[Any] = []
        self.failed_checks = 0
        self.attempted_checks = 0
        self.backend_ms: Dict[str, List[float]] = defaultdict(list)

    def generate(self) -> None:
        self.db = random_poll_database(rng=self.rng,
                                       **people_towns(self.people))
        # Reference answers: in-memory compiled and columnar must agree.
        self.reference = []
        for read in self.reads:
            engine = read.engine()
            compiled = read.run(engine, self.db, "compiled")
            columnar = read.run(engine, self.db, "columnar")
            self.attempted_checks += 1
            self.failed_checks += compiled != columnar
            self.reference.append(compiled)
        self.digests = {read.name: digest(ref)
                        for read, ref in zip(self.reads, self.reference)}

    def reset(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None

    def setup(self) -> None:
        ingest(self.path, self.db)
        self.store = PersistentDatabase(self.path, tracer=self.store_tracer)
        self.engines = [read.engine() for read in self.reads]
        for read, engine in zip(self.reads, self.engines):
            read.run(engine, self.store)  # warm-up: mirror, plans, columns

    def start_trace(self, probe: Any) -> None:
        self.tracer = probe.tracer

    def op(self, i: int) -> Optional[Op]:
        k = i % len(self.reads)
        read, engine, ref = self.reads[k], self.engines[k], self.reference[k]
        store, tracer = self.store, self.tracer
        return Op("read", lambda: read.run(engine, store, "auto", tracer),
                  lambda result: result == ref, query=read.text,
                  free=read.free or (), name=read.name)

    def after_op(self, done: int, probe: Any) -> None:
        """After each traced round, force every query through each backend
        (untraced calls, timed here; parallel pays partitioning each time)."""
        if probe is None or done % len(self.reads):
            return
        for read, engine, ref in zip(self.reads, self.engines, self.reference):
            for backend in BACKENDS:
                options: Any = backend
                if backend == "parallel":
                    options = {"method": "parallel", "jobs": PARALLEL_JOBS}
                t0 = time.perf_counter()
                result = read.run(engine, self.store, options)
                self.backend_ms[backend].append(
                    (time.perf_counter() - t0) * 1e3)
                if backend == "parallel":
                    release_database(self.store)
                self.attempted_checks += 1
                self.failed_checks += result != ref

    def finish(self) -> Tuple[int, int]:
        self.disk_bytes_per_fact = dir_bytes(self.path) / self.store.size()
        self.config = {"people": self.people, "facts": self.db.size(),
                       "wal_sync": self.store.storage_status()["sync"],
                       "reads_per_round": [r.name for r in self.reads]}
        return self.attempted_checks, self.failed_checks

    def layer_metrics(self) -> Dict[str, float]:
        out = {f"backend.{b}_ms": mean(self.backend_ms[b]) for b in BACKENDS}
        out["storage.disk_bytes_per_fact"] = self.disk_bytes_per_fact
        return out

    def close(self) -> None:
        self.reset()
        shutil.rmtree(self.path, ignore_errors=True)


# ----------------------------------------------------------------------
# queries-cold
# ----------------------------------------------------------------------


class QueriesCold:
    """2,000 distinct generated queries, each on its own small in-memory
    database, cycled: more queries than the plan cache (128) and the
    rewriting caches (512) hold, so the front end does the work.  Every
    run covers the whole population, so memory that builds up per
    database does not grow with how far a run gets."""

    primary = "read"
    window = 50
    idle_prefixes = ("serve.", "loadgen.", "backend.", "storage.", "db.",
                     "incremental.", "write.")
    #: Blocks per relation.  At 20, a rare draw whose plan is full of
    #: cartesian joins runs for seconds and hundreds of MB on its own,
    #: and that one draw sets the run's throughput and memory.
    BLOCKS = 10

    def __init__(self, seed: int, smoke: bool, work: Any):
        self.rng = random.Random(seed)
        self.n_queries = 40 if smoke else 2000
        self.n_warmup = 4 if smoke else 16
        self.tracer: Any = None
        self.kept: List[Tuple[int, Any]] = []
        self.failed_checks = 0

    def generate(self) -> None:
        rng = self.rng
        params = DatabaseParams(blocks_per_relation=self.BLOCKS,
                                domain_size=self.BLOCKS)
        seen = set()
        self.items: List[Tuple[str, Tuple[str, ...], Tuple[Variable, ...],
                               list]] = []
        self.dropped = 0
        while len(self.items) < self.n_queries + self.n_warmup:
            query = random_query(QueryParams(), rng)
            names = sorted(v.name for v in rng.choice(query.positives).vars)
            free = tuple(rng.sample(names, rng.randint(0, min(2, len(names)))))
            variables = tuple(Variable(v) for v in free)
            text = query_to_text(query)
            if (text, free) in seen or not OpenQuery(query, variables).in_fo:
                self.dropped += 1
                continue
            seen.add((text, free))
            db = random_database(query, params, rng)
            facts = [(db.schemas[name], sorted(db.facts(name), key=repr))
                     for name in sorted(db.schemas)]
            self.items.append((text, free, variables, facts))

    def reset(self) -> None:
        self.dbs: List[Database] = []

    def setup(self) -> None:
        for _text, _free, _vars, facts in self.items:
            db = Database()
            for schema, rows in facts:
                db.add_relation(schema)
                db.add_all(schema.name, rows)
            self.dbs.append(db)
        for j in range(self.n_queries, self.n_queries + self.n_warmup):
            self._op(j, j).thunk()

    def start_trace(self, probe: Any) -> None:
        self.tracer = probe.tracer

    def _op(self, i: int, j: int) -> Op:
        text, free, variables, _ = self.items[j]
        db, tracer = self.dbs[j], self.tracer

        def run() -> Any:
            engine = engine_mod.CertaintyEngine(parser_mod.parse_query(text))
            return engine.certain_answers(db, variables, "auto", tracer=tracer)

        def keep(result: Any) -> bool:
            # Every 10th query of the first pass is re-checked after the
            # loop, so the check does not warm caches the loop measures.
            if i == j and j % 10 == 0:
                self.kept.append((j, result))
            return True

        return Op("read", run, keep, query=text, free=free)

    def op(self, i: int) -> Optional[Op]:
        return self._op(i, i % self.n_queries)

    def after_op(self, done: int, probe: Any) -> None:
        pass

    def finish(self) -> Tuple[int, int]:
        lines = []
        for j, result in self.kept:
            text, _free, variables, _ = self.items[j]
            expected = certain_answers(
                OpenQuery(parser_mod.parse_query(text), variables),
                self.dbs[j], "interpreted")
            self.failed_checks += result != expected
            lines.append(f"{j}:{digest(expected)}")
        self.digests = {
            "rechecked": len(self.kept),
            "rechecked_sha256": hashlib.sha256(
                "\n".join(lines).encode()).hexdigest(),
        }
        self.config = {"queries": self.n_queries, "warmup": self.n_warmup,
                       "dropped_draws": self.dropped,
                       "blocks_per_relation": self.BLOCKS}
        return len(self.kept), self.failed_checks

    def layer_metrics(self) -> Dict[str, float]:
        return {}

    def close(self) -> None:
        self.reset()


# ----------------------------------------------------------------------
# ingest-views
# ----------------------------------------------------------------------


class IngestViews:
    """Committed fact batches on a large durable store with two
    registered views; every 17th operation is a read of poll_qa(p)
    that must equal the view's answers."""

    primary = "write"
    idle_prefixes = ("serve.", "loadgen.", "backend.")
    READ_EVERY = 17
    window = READ_EVERY  # 16 batches and one read

    def __init__(self, seed: int, smoke: bool, work: Any):
        self.rng = random.Random(seed)
        self.people = 480 if smoke else 19200
        self.n_batches = 3000 if smoke else 8000
        self.path = work / "ingest-views"
        self.read = Read("poll_qa(p)", POLL_QA, ("p",))
        self.store: Any = None
        self.store_tracer: Any = None
        self.tracer: Any = None
        self.span: Callable[[str], Any] = _no_span
        self.written = 0
        self.attempted_checks = 0
        self.failed_checks = 0

    def generate(self) -> None:
        self.db = random_poll_database(rng=self.rng,
                                       **people_towns(self.people))
        self.batches = random_update_stream(
            self.db,
            UpdateStreamParams(n_batches=self.n_batches, batch_size=20,
                               delete_fraction=0.4),
            self.rng)

    def reset(self) -> None:
        if self.store is not None:
            self.store.close()
            self.store = None

    def setup(self) -> None:
        ingest(self.path, self.db)
        self.store = PersistentDatabase(
            self.path, sync="always", auto_checkpoint_bytes=CHECKPOINT_BYTES,
            tracer=self.store_tracer)
        p = [Variable("p")]
        self.views = [
            self.store.register_view(parser_mod.parse_query(POLL_QA), p),
            self.store.register_view(parser_mod.parse_query(LIVES_NOT_BORN), p),
        ]
        self.engine = self.read.engine()
        warm = self.read.run(self.engine, self.store)  # builds the mirror
        self.attempted_checks += 1
        self.failed_checks += warm != self.views[0].answers
        self.checkpoints_before = storage_stats()["checkpoints"]

    def start_trace(self, probe: Any) -> None:
        self.tracer = probe.tracer
        self.span = probe.tracer.span
        view_manager(self.store, tracer=probe.tracer)

    def op(self, i: int) -> Optional[Op]:
        store, tracer = self.store, self.tracer
        if (i + 1) % self.READ_EVERY == 0:
            view, read, engine = self.views[0], self.read, self.engine
            return Op("read", lambda: read.run(engine, store, "auto", tracer),
                      lambda result: result == view.answers,
                      query=read.text, free=read.free)
        b = i - (i + 1) // self.READ_EVERY
        if b >= len(self.batches):
            return None
        batch, span = self.batches[b], self.span

        def write() -> None:
            store.begin_batch()
            try:
                with span("db.apply"):
                    for insert, relation, row in batch:
                        if insert:
                            store.add(relation, row)
                        else:
                            store.discard(relation, row)
            finally:
                with span("storage.commit"):
                    store.commit()
            self.written = b + 1

        return Op("write", write, lambda _: True, method="write",
                  rows=len(batch))

    def after_op(self, done: int, probe: Any) -> None:
        pass

    def finish(self) -> Tuple[int, int]:
        """Reopen the store and compare it with an in-memory replica
        that applied the same committed batches."""
        self.disk_bytes_per_fact = dir_bytes(self.path) / self.store.size()
        sync = self.store.storage_status()["sync"]
        checkpoints = storage_stats()["checkpoints"] - self.checkpoints_before
        self.store.close()
        self.store = None
        replica = copy_database(self.db)
        apply_update_stream(replica, self.batches[:self.written])
        reopened = PersistentDatabase(self.path)
        self.attempted_checks += 1
        self.failed_checks += any(
            reopened.facts(name) != replica.facts(name)
            for name in replica.relations())
        self.digests = {}
        for read in (self.read, Read("lives_not_born(p)", LIVES_NOT_BORN,
                                     ("p",))):
            engine = read.engine()
            durable = read.run(engine, reopened, "compiled")
            expected = read.run(engine, replica, "compiled")
            self.attempted_checks += 1
            self.failed_checks += durable != expected
            self.digests[read.name] = digest(durable)
        reopened.close()
        self.config = {"people": self.people, "facts": self.db.size(),
                       "wal_sync": sync, "batch_size": 20,
                       "delete_fraction": 0.4,
                       "batches_committed": self.written,
                       "auto_checkpoint_bytes": CHECKPOINT_BYTES,
                       "checkpoints": checkpoints}
        return self.attempted_checks, self.failed_checks

    def layer_metrics(self) -> Dict[str, float]:
        return {"storage.disk_bytes_per_fact": self.disk_bytes_per_fact}

    def close(self) -> None:
        self.reset()
        shutil.rmtree(self.path, ignore_errors=True)


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------


def window_rate(elapsed: Sequence[float], window: int) -> Tuple[float, int]:
    """Operations per second as the median over consecutive windows of
    ``window`` operations, and the number of windows.  A window slowed
    by something outside the program (another tenant, a collection
    pause) does not move the median the way it moves a plain ratio."""
    rates = [window / sum(elapsed[i:i + window])
             for i in range(0, len(elapsed) - window + 1, window)]
    if not rates:
        return (len(elapsed) / sum(elapsed) if elapsed else 0.0), 0
    return statistics.median(rates), len(rates)


class Phase:
    """Timings of one timed loop."""

    def __init__(self) -> None:
        self.latencies: Dict[str, List[float]] = defaultdict(list)
        self.by_name: Dict[str, List[float]] = defaultdict(list)
        self.elapsed: List[float] = []  # every op, in order
        self.ops = 0
        self.failed = 0
        self.next = 0


def closed_loop(wl: Any, seconds: float, probe: Any, start: int) -> Phase:
    phase = Phase()
    i = start
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        op = wl.op(i)
        if op is None:
            break
        elapsed: Optional[float] = None
        try:
            if probe is None:
                t0 = time.perf_counter()
                result = op.thunk()
                elapsed = time.perf_counter() - t0
            else:
                result, elapsed = probe.run_op(i, op)
            ok = op.check(result)
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            ok = False
        phase.ops += 1
        phase.failed += not ok
        if elapsed is not None:
            phase.elapsed.append(elapsed)
            phase.latencies[op.kind].append(elapsed)
            phase.by_name[op.name].append(elapsed)
        i += 1
        wl.after_op(i, probe)
    phase.next = i
    return phase


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def pct_ms(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile of a sample of seconds, in ms (0 when empty)."""
    return quantile(values, q) * 1e3 if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_detail(latencies: Dict[str, List[float]]
                   ) -> Dict[str, Dict[str, float]]:
    return {
        kind: {"samples": len(v), "p50_ms": pct_ms(v, 0.5),
               "p90_ms": pct_ms(v, 0.9), "p95_ms": pct_ms(v, 0.95),
               "max_ms": max(v) * 1e3}
        for kind, v in latencies.items() if v
    }


CLOSED = {"answers-warm": AnswersWarm, "queries-cold": QueriesCold,
          "ingest-views": IngestViews}


def run_closed(workload: str, seed: int, seconds: float, trace: bool,
               smoke: bool, work: Any) -> Dict[str, Any]:
    wl = CLOSED[workload](seed, smoke, work)
    probe = None
    if trace:
        probe = tracing.Probe()
        probe.install()
        wl.store_tracer = probe.tracer
    try:
        wl.generate()
        # The inputs live for the whole run: keep collections (in set-up
        # and in the timed loop) from rescanning them.
        gc.collect()
        gc.freeze()
        setups = []
        for _ in range(1 if smoke else 3):
            wl.reset()
            gc.collect()
            t0 = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - t0)
        gc.collect()
        gc.freeze()
        if trace:
            untraced = closed_loop(wl, seconds * UNTRACED_SHARE, None, 0)
            probe.begin()
            wl.start_trace(probe)
            phase = closed_loop(wl, seconds * (1 - UNTRACED_SHARE), probe,
                                untraced.next)
        else:
            phase = closed_loop(wl, seconds, None, 0)
        rss = peak_rss_mb()  # before the checks, which are not the workload
        checks_attempted, checks_failed = wl.finish()
    finally:
        if probe is not None:
            probe.uninstall()
        wl.close()
        shutdown_pools()
        for child in multiprocessing.active_children():
            child.join(timeout=30)
    result: Dict[str, Any] = {
        "attempted": phase.ops + checks_attempted,
        "failed": phase.failed + checks_failed,
        "config": wl.config,
        "digests": wl.digests,
        "detail": {"setup_s": setups, "ops": phase.ops,
                   "latency": latency_detail(phase.latencies),
                   "latency_by_name": latency_detail(phase.by_name)},
        "idle_prefixes": wl.idle_prefixes,
    }
    primary = phase.latencies.get(wl.primary, [])
    rate, windows = window_rate(phase.elapsed, wl.window)
    if not trace:
        result["values"] = {
            "setup_s": quantile(setups, 0.5),
            "ops_per_s": rate,
            "latency_p50_ms": pct_ms(primary, 0.5),
            "latency_p90_ms": pct_ms(primary, 0.9),
            "rss_peak_mb": rss,
        }
        result["samples"] = {"setup_s": len(setups), "ops_per_s": windows,
                             "latency_p50_ms": len(primary),
                             "latency_p90_ms": len(primary),
                             "rss_peak_mb": 1}
        return result
    values = probe.metrics()
    values.update(wl.layer_metrics())
    reads = untraced.latencies.get("read", [])
    writes = untraced.latencies.get("write", [])
    untraced_rate = window_rate(untraced.elapsed, wl.window)[0]
    values.update({
        "trace.overhead_pct": 100.0 * (untraced_rate / rate - 1.0)
        if rate else 0.0,
        "read.p50_ms": pct_ms(reads, 0.5),
        "read.p95_ms": pct_ms(reads, 0.95),
        "write.p50_ms": pct_ms(writes, 0.5),
        "write.p95_ms": pct_ms(writes, 0.95),
    })
    result["values"] = values
    result["samples"] = {name: probe.n_ops for name in values}
    result["trace_docs"] = probe.docs
    result["detail"]["untraced_latency"] = latency_detail(untraced.latencies)
    result["attempted"] += untraced.ops
    result["failed"] += untraced.failed
    return result

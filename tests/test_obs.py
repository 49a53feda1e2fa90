"""Tests for the observability layer (:mod:`repro.obs`).

Covers the span tracer (nesting, counters, JSONL round-trip, the no-op
default), per-operator plan profiling and its renderers, trace-on/off
answer parity for every execution method (the tracer must be a pure
observer), the unified ``EngineMetrics`` API and its one counter
registry, the worker-counter merge bugfix, the JSON-Schema-subset
validator, the pinned trace document schema, and the new CLI surfaces
(``plan --analyze``, ``certain/answers --trace [--json] [--trace-out]``).
"""

from __future__ import annotations

import json
import random
import time

import pytest

from repro.cli import main
from repro.core.parser import parse_query
from repro.core.terms import Variable
from repro.cqa.certain_answers import OpenQuery, certain_answers
from repro.cqa.engine import CertaintyEngine
from repro.db.io import save_database
from repro.fo.compile import plan_cache
from repro.fo.plan import Executor, Scan
from repro.incremental import ViewManager
from repro.obs import (
    NULL_TRACER,
    EngineMetrics,
    NullTracer,
    PlanProfile,
    Tracer,
    collect_metrics,
    profile_tree,
    read_jsonl,
    render_profile,
    render_spans,
    reset_metrics,
    trace_payload,
    validate,
)
from repro.obs.metrics import counters
from repro.obs.schema import SchemaError, check
from repro.parallel import (
    parallel_certain_answers,
    parallel_stats,
    shutdown_pools,
)
from repro.parallel.pool import fork_context
from repro.workloads.poll import paper_flavoured_poll_database, random_poll_database
from repro.workloads.queries import poll_qa

from conftest import db_from

p, x = Variable("p"), Variable("x")

needs_fork = pytest.mark.skipif(
    fork_context() is None, reason="platform has no fork start method"
)

QA = "Lives(p | t), not Born(p | t), not Likes(p, t)"


@pytest.fixture(autouse=True)
def _clean_pools():
    yield
    shutdown_pools()


@pytest.fixture
def poll_db():
    return paper_flavoured_poll_database()


@pytest.fixture
def qa_open():
    return OpenQuery(parse_query(QA), [p])


@pytest.fixture
def poll_file(tmp_path):
    path = tmp_path / "poll.json"
    save_database(paper_flavoured_poll_database(), path)
    return str(path)


# ----------------------------------------------------------------------
# Tracer / Span
# ----------------------------------------------------------------------


class TestTracer:
    def test_span_nesting_and_depths(self):
        tracer = Tracer()
        with tracer.span("outer", kind="test") as outer:
            outer.count("ticks", 2)
            with tracer.span("inner"):
                tracer.count("ticks")  # attributes to innermost (inner)
            tracer.event("point", reason="why")
        assert len(tracer.roots) == 1
        forest = list(tracer.iter_spans())
        assert [(s.name, d) for s, _, d in forest] == [
            ("outer", 0), ("inner", 1), ("point", 1),
        ]
        outer_span, inner_span, point = [s for s, _, _ in forest]
        assert outer_span.counters == {"ticks": 2}
        assert inner_span.counters == {"ticks": 1}
        assert outer_span.tags == {"kind": "test"}
        assert point.tags == {"reason": "why"}
        assert point.duration_ms == 0.0
        parents = [par.span_id if par else None for _, par, _ in forest]
        assert parents == [None, outer_span.span_id, outer_span.span_id]
        assert outer_span.duration_ms >= inner_span.duration_ms

    def test_record_external_duration(self):
        tracer = Tracer()
        span = tracer.record("worker", 0.25, worker=3)
        assert abs(span.duration_ms - 250.0) < 1.0
        assert tracer.roots == [span]

    def test_mismatched_exit_tolerated(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        outer.__exit__(None, None, None)  # inner leaked; stack unwinds
        assert tracer.current() is None
        with tracer.span("next"):
            pass
        assert [s.name for s in tracer.roots] == ["outer", "next"]

    def test_to_records_shape(self):
        tracer = Tracer()
        with tracer.span("a", db=object()):  # non-primitive tag coerced
            tracer.count("n", 5)
        (record,) = tracer.to_records()
        assert record["name"] == "a"
        assert record["parent"] is None and record["depth"] == 0
        assert record["counters"] == {"n": 5}
        assert isinstance(record["tags"]["db"], str)
        json.dumps(record)  # fully serializable

    def test_jsonl_round_trip_and_append(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert tracer.write_jsonl(str(path)) == 2
        assert read_jsonl(str(path)) == tracer.to_records()
        # Appends, never truncates.
        assert tracer.write_jsonl(str(path)) == 2
        assert len(read_jsonl(str(path))) == 4

    def test_render_spans_indents(self):
        tracer = Tracer()
        with tracer.span("outer", method="compiled"):
            with tracer.span("inner"):
                pass
        text = render_spans(tracer)
        lines = text.splitlines()
        assert lines[0].startswith("outer") and "method=compiled" in lines[0]
        assert lines[1].startswith("  inner")


class TestNullTracer:
    def test_all_noops(self, tmp_path):
        assert NULL_TRACER.enabled is False
        assert isinstance(NULL_TRACER, NullTracer)
        with NULL_TRACER.span("x", tag=1) as span:
            span.count("n")
            NULL_TRACER.count("n")
        NULL_TRACER.event("e")
        NULL_TRACER.record("r", 1.0)
        NULL_TRACER.add_profile(None, None)
        assert NULL_TRACER.current() is None
        assert NULL_TRACER.to_records() == []
        assert list(NULL_TRACER.iter_spans()) == []
        assert NULL_TRACER.write_jsonl(str(tmp_path / "x.jsonl")) == 0
        assert not (tmp_path / "x.jsonl").exists()
        assert NULL_TRACER.roots == [] and NULL_TRACER.profiles == []


# ----------------------------------------------------------------------
# PlanProfile / renderers
# ----------------------------------------------------------------------


class TestPlanProfile:
    def _compiled(self, qa_open, db):
        from repro.cqa.certain_answers import _guarded_open_rewriting

        formula = _guarded_open_rewriting(qa_open)
        return plan_cache.get_or_compile(formula, db, qa_open.free)

    def test_rows_profile_counts_operators(self, qa_open, poll_db):
        compiled = self._compiled(qa_open, poll_db)
        profile = PlanProfile()
        rows = compiled.rows(poll_db, profile=profile)
        root = profile.stats_for(compiled.plan)
        assert root.calls == 1
        assert root.rows_out == len(rows)
        assert root.seconds > 0.0
        assert len(profile) >= 1
        # Scans report index usage on this indexed workload.
        tree = profile_tree(compiled.plan, profile)

        def any_node(node, pred):
            return pred(node) or any(any_node(c, pred) for c in node["children"])

        assert any_node(tree, lambda n: n["op"] == "Scan" and n["index_hits"] > 0)

    def test_profile_accumulates_and_memoizes(self, qa_open, poll_db):
        compiled = self._compiled(qa_open, poll_db)
        profile = PlanProfile()
        compiled.rows(poll_db, profile=profile)
        first_calls = profile.stats_for(compiled.plan).calls
        compiled.rows(poll_db, profile=profile)
        assert profile.stats_for(compiled.plan).calls == first_calls + 1

    def test_render_profile_one_line_per_operator(self, qa_open, poll_db):
        from repro.fo.plan import plan_nodes

        compiled = self._compiled(qa_open, poll_db)
        profile = PlanProfile()
        compiled.rows(poll_db, profile=profile)
        text = render_profile(compiled.plan, profile)
        n_nodes = sum(1 for _ in plan_nodes(compiled.plan))
        assert len(text.splitlines()) == n_nodes
        assert "time=" in text and "rows=" in text

    def test_profile_tree_self_time_bounded(self, qa_open, poll_db):
        compiled = self._compiled(qa_open, poll_db)
        profile = PlanProfile()
        compiled.rows(poll_db, profile=profile)

        def walk(node):
            assert 0.0 <= node["self_ms"] <= node["time_ms"] + 1e-9
            for child in node["children"]:
                walk(child)

        walk(profile_tree(compiled.plan, profile))

    def test_boolean_probe_profile(self, poll_db):
        engine = CertaintyEngine(parse_query(QA))
        tracer = Tracer()
        assert engine.certain(poll_db, "compiled", tracer=tracer) is True
        ((plan, profile, tags),) = tracer.profiles
        assert tags["method"] == "compiled" and tags["phase"] == "probe"
        root = profile.stats_for(plan)
        assert root.calls == 1 and root.rows_out == 1  # True as 1
        total = sum(
            profile.stats_for(node).probe_calls
            for node in _all_nodes(plan)
        )
        assert total > 0  # the probe fast path actually ran


def _all_nodes(plan):
    yield plan
    for child in plan.children():
        yield from _all_nodes(child)


# ----------------------------------------------------------------------
# Parity: tracing is a pure observer
# ----------------------------------------------------------------------


class TestTracingParity:
    SERIAL_METHODS = ("brute", "interpreted", "rewriting", "compiled", "sql")

    @pytest.mark.parametrize("method", SERIAL_METHODS)
    def test_answers_identical_with_and_without_tracer(
        self, method, qa_open, poll_db
    ):
        plain = certain_answers(qa_open, poll_db, method)
        tracer = Tracer()
        traced = certain_answers(qa_open, poll_db, method, tracer=tracer)
        assert traced == plain
        assert tracer.roots, f"method {method} produced no spans"

    @pytest.mark.parametrize("method", SERIAL_METHODS)
    def test_boolean_identical_with_and_without_tracer(
        self, method, poll_db
    ):
        engine = CertaintyEngine(parse_query(QA))
        plain = engine.certain(poll_db, method)
        tracer = Tracer()
        assert engine.certain(poll_db, method, tracer=tracer) == plain
        assert tracer.roots

    @needs_fork
    def test_parallel_identical_with_and_without_tracer(self, qa_open, rng):
        db = random_poll_database(40, 5, rng=rng)
        plain = parallel_certain_answers(qa_open, db, jobs=2, min_facts=0)
        tracer = Tracer()
        traced = parallel_certain_answers(
            qa_open, db, jobs=2, min_facts=0, tracer=tracer
        )
        assert traced == plain
        names = {s.name for s, _, _ in tracer.iter_spans()}
        assert "worker" in names and "merge" in names

    def test_parallel_fallback_event_recorded(self, qa_open, poll_db):
        tracer = Tracer()
        certain_answers(qa_open, poll_db, {"method": "parallel", "jobs": 1},
                        tracer=tracer)
        events = [s for s, _, _ in tracer.iter_spans()
                  if s.name == "parallel-fallback"]
        assert events and events[0].tags["reason"] == "jobs=1"


# ----------------------------------------------------------------------
# EngineMetrics and the counter registry
# ----------------------------------------------------------------------


class TestEngineMetrics:
    def test_collect_shape(self):
        metrics = collect_metrics()
        assert isinstance(metrics, EngineMetrics)
        doc = metrics.to_dict()
        assert doc["schema_version"] == 1
        assert {"hits", "misses", "size"} <= set(doc["plan_cache"])
        assert {"runs", "serial_fallbacks", "worker_plan_cache",
                "worker_rows"} <= set(doc["parallel"])
        assert {"views_registered", "commits_seen"} <= set(doc["views"])
        json.loads(metrics.to_json())

    def test_engine_metrics_method(self):
        engine = CertaintyEngine(parse_query(QA))
        db = paper_flavoured_poll_database()
        before = engine.metrics().plan_cache["hits"]
        engine.certain(db, "compiled")
        engine.certain(db, "compiled")
        assert engine.metrics().plan_cache["hits"] >= before + 1

    def test_one_registry_resets_every_section(self):
        # plan_cache is the plan cache's own counters; the other four
        # sections live in the registry that reset_metrics() zeroes.
        reset_metrics()
        zero = collect_metrics().to_dict()
        assert set(zero) == {"schema_version", "plan_cache", "parallel",
                             "views", "columnar", "storage"}
        registry = ("parallel", "views", "columnar", "storage")
        for _ in range(2):  # the second round catches a shared template
            for section in registry:
                live = counters(section)
                for key, value in live.items():
                    if type(value) is dict:
                        value["dirty"] = 1
                    else:
                        live[key] = value + 1
            dirty = collect_metrics().to_dict()
            assert all(dirty[section] != zero[section]
                       for section in registry)
            reset_metrics()
            after = collect_metrics().to_dict()
            for section in registry:
                assert after[section] == zero[section]
            assert after["parallel"]["fallback_reasons"] == {}
            assert "dirty" not in after["storage"]["pushdown"]


# ----------------------------------------------------------------------
# Worker-counter merge (the --jobs --stats bugfix)
# ----------------------------------------------------------------------


@needs_fork
class TestWorkerCounterMerge:
    def test_worker_plan_cache_and_rows_merged(self, qa_open, rng):
        db = random_poll_database(40, 5, rng=rng)
        reset_metrics()
        answers = parallel_certain_answers(qa_open, db, jobs=2, min_facts=0)
        stats = parallel_stats()
        cache = stats["worker_plan_cache"]
        # Workers compiled/executed in their own processes; their
        # counters must now be visible in the parent.
        assert cache["hits"] + cache["misses"] > 0
        assert stats["worker_rows"] >= len(answers)

    def test_no_double_counting_on_warm_pool(self, qa_open, rng):
        db = random_poll_database(40, 5, rng=rng)
        reset_metrics()
        parallel_certain_answers(qa_open, db, jobs=2, min_facts=0)
        first = dict(parallel_stats()["worker_plan_cache"])
        parallel_certain_answers(qa_open, db, jobs=2, min_facts=0)
        second = parallel_stats()["worker_plan_cache"]
        # The second (warm) run ships only deltas: misses cannot repeat.
        assert second["misses"] == first["misses"]


# ----------------------------------------------------------------------
# Schema validator + pinned trace schema
# ----------------------------------------------------------------------


class TestSchemaValidator:
    def test_type_checks(self):
        assert validate(1, {"type": "integer"}) == []
        assert validate(True, {"type": "integer"})  # bool is NOT integer
        assert validate(True, {"type": "boolean"}) == []
        assert validate(1.5, {"type": "number"}) == []
        assert validate(1, {"type": "number"}) == []
        assert validate(None, {"type": ["integer", "null"]}) == []
        assert validate("x", {"type": ["integer", "null"]})

    def test_object_keywords(self):
        schema = {
            "type": "object",
            "required": ["a"],
            "properties": {"a": {"type": "integer"}},
            "additionalProperties": False,
        }
        assert validate({"a": 1}, schema) == []
        assert any("missing required" in e for e in validate({}, schema))
        assert any("unexpected property" in e
                   for e in validate({"a": 1, "b": 2}, schema))
        assert any("expected type" in e for e in validate({"a": "x"}, schema))

    def test_items_enum_minimum_anyof(self):
        assert validate([1, 2], {"type": "array",
                                 "items": {"type": "integer"}}) == []
        assert validate([1, "x"], {"type": "array",
                                   "items": {"type": "integer"}})
        assert validate("a", {"enum": ["a", "b"]}) == []
        assert validate("c", {"enum": ["a", "b"]})
        assert validate(-1, {"type": "integer", "minimum": 0})
        assert validate(0, {"type": "integer", "minimum": 0}) == []
        any_of = {"anyOf": [{"type": "string"}, {"type": "null"}]}
        assert validate(None, any_of) == []
        assert validate(3, any_of)

    def test_ref_resolution(self):
        schema = {
            "$defs": {"node": {
                "type": "object",
                "properties": {
                    "children": {"type": "array",
                                 "items": {"$ref": "#/$defs/node"}},
                },
            }},
            "$ref": "#/$defs/node",
        }
        assert validate({"children": [{"children": []}]}, schema) == []
        errors = validate({"children": [5]}, schema)
        assert errors and "[0]" in errors[0]
        with pytest.raises(SchemaError, match="dangling"):
            validate({}, {"$ref": "#/nowhere"})

    def test_check_raises(self):
        with pytest.raises(SchemaError):
            check(5, {"type": "string"})
        check("ok", {"type": "string"})


class TestTraceDocumentSchema:
    def _schema(self):
        import pathlib

        path = (pathlib.Path(__file__).resolve().parent.parent
                / "docs" / "trace.schema.json")
        return json.loads(path.read_text())

    def test_boolean_payload_validates(self, poll_db):
        engine = CertaintyEngine(parse_query(QA))
        tracer = Tracer()
        answer = engine.certain(poll_db, "compiled", tracer=tracer)
        payload = trace_payload(QA, "compiled", tracer, answer=answer)
        assert validate(payload, self._schema()) == []

    def test_answers_payload_validates(self, qa_open, poll_db):
        tracer = Tracer()
        answers = certain_answers(qa_open, poll_db, "compiled",
                                  tracer=tracer)
        payload = trace_payload(QA, "compiled", tracer, free=["p"],
                                answers=len(answers))
        assert validate(payload, self._schema()) == []
        assert payload["operators"], "compiled method must attach a profile"
        assert payload["total_ms"] >= 0.0

    def test_schema_rejects_corrupted_payload(self, qa_open, poll_db):
        tracer = Tracer()
        certain_answers(qa_open, poll_db, "compiled", tracer=tracer)
        payload = trace_payload(QA, "compiled", tracer)
        payload["schema_version"] = 99
        assert validate(payload, self._schema())
        del payload["schema_version"]
        assert validate(payload, self._schema())


# ----------------------------------------------------------------------
# Incremental-view tracing
# ----------------------------------------------------------------------


class TestViewTracing:
    def test_view_maintain_span(self):
        db = db_from({
            "P/2/1": [(1, "a"), (1, "b")],
            "N/2/1": [("c", "a")],
        })
        tracer = Tracer()
        manager = ViewManager(db, tracer=tracer)
        query = parse_query("P(x | y), not N('c' | y)")
        view = manager.register_view(query, [x])
        db.discard("N", ("c", "a"))
        spans = [s for s, _, _ in tracer.iter_spans()
                 if s.name == "view-maintain"]
        assert spans
        span = spans[-1]
        assert span.counters["delta_size"] == 1
        assert span.counters["deltas_applied"] == 1
        assert span.counters["rows_touched"] >= 1
        assert view.answers == {(1,)}
        events = [s for s, _, _ in tracer.iter_spans()
                  if s.name == "view-delta"]
        assert events and events[0].tags["inserted"] == 1

    def test_untraced_manager_unchanged(self):
        db = db_from({"P/2/1": [(1, "a")], "N/2/1": []})
        manager = ViewManager(db)
        assert manager.tracer is NULL_TRACER


# ----------------------------------------------------------------------
# Disabled-tracing overhead
# ----------------------------------------------------------------------


class _BareExecutor(Executor):
    """The pre-instrumentation executor body, for A/B overhead timing."""

    def run(self, plan):
        if type(plan) is Scan:
            key = ("scan", plan.atom.relation,
                   tuple(sorted(plan.consts.items())),
                   plan.eq_checks, plan.proj)
        else:
            key = id(plan)
        cached = self._memo.get(key)
        if cached is None:
            cached = self._dispatch(plan)
            self._memo[key] = cached
        return cached


class TestDisabledOverhead:
    def test_noop_overhead_below_five_percent(self):
        """Executor with profile=None must track the pre-instrumentation
        executor within 5% on the bench_plan smoke grid workload.

        Interleaved min-of-N timing with retries: min-of-N discards
        scheduler noise, interleaving discards clock drift, and a small
        absolute floor keeps sub-millisecond jitter from failing runs
        on loaded CI hosts.
        """
        db = random_poll_database(150, 25, conflict_rate=0.5,
                                  rng=random.Random(71))
        open_query = OpenQuery(poll_qa(), [p])
        from repro.cqa.certain_answers import _guarded_open_rewriting

        formula = _guarded_open_rewriting(open_query)
        compiled = plan_cache.get_or_compile(formula, db, open_query.free)
        plan, constants = compiled.plan, compiled.constants

        expected = _BareExecutor(db, None, constants).run(plan)
        assert Executor(db, None, constants).run(plan) == expected

        def attempt(repeat=7):
            best_bare = best_instr = None
            for _ in range(repeat):
                t0 = time.perf_counter()
                _BareExecutor(db, None, constants).run(plan)
                bare = time.perf_counter() - t0
                t0 = time.perf_counter()
                Executor(db, None, constants).run(plan)
                instr = time.perf_counter() - t0
                best_bare = bare if best_bare is None else min(best_bare, bare)
                best_instr = (instr if best_instr is None
                              else min(best_instr, instr))
            return best_bare, best_instr

        last = None
        for _ in range(5):
            bare, instr = attempt()
            last = (bare, instr)
            if instr <= bare * 1.05 or instr - bare <= 0.0005:
                return
        bare, instr = last
        pytest.fail(
            f"disabled-tracing overhead too high: bare={bare * 1e3:.3f}ms "
            f"instrumented(off)={instr * 1e3:.3f}ms "
            f"({(instr / bare - 1) * 100:.1f}%)"
        )


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------


class TestCliTracing:
    def test_plan_analyze_text(self, capsys, poll_file):
        assert main(["plan", QA, "--free", "p", "--analyze",
                     "--db", poll_file]) == 0
        out = capsys.readouterr().out
        assert "executed on" in out
        assert "time=" in out and "rows=" in out
        assert "Scan Lives" in out

    def test_plan_analyze_json(self, capsys, poll_file):
        assert main(["plan", QA, "--free", "p", "--analyze",
                     "--db", poll_file, "--json"]) == 0
        tree = json.loads(capsys.readouterr().out)
        assert tree["cols"] == ["p"]
        assert tree["rows_out"] >= 1
        assert tree["children"]

    def test_plan_analyze_requires_db(self, poll_file):
        with pytest.raises(SystemExit, match="--analyze requires --db"):
            main(["plan", QA, "--analyze"])
        with pytest.raises(SystemExit, match="--json requires --analyze"):
            main(["plan", QA, "--json"])

    def test_certain_trace_text(self, capsys, poll_file):
        assert main(["certain", QA, "--db", poll_file, "--trace"]) == 0
        out = capsys.readouterr().out
        assert "CERTAINTY = True" in out
        assert "trace:" in out and "certain " in out
        assert "operators" in out

    def test_certain_trace_json_validates(self, capsys, poll_file):
        assert main(["certain", QA, "--db", poll_file, "--trace",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        schema = TestTraceDocumentSchema()._schema()
        assert validate(payload, schema) == []
        assert payload["answer"] is True

    def test_answers_trace_json_validates(self, capsys, poll_file):
        assert main(["answers", QA, "--free", "p", "--db", poll_file,
                     "--trace", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        schema = TestTraceDocumentSchema()._schema()
        assert validate(payload, schema) == []
        assert payload["answers"] == 1 and payload["free"] == ["p"]

    def test_json_requires_trace(self, poll_file):
        with pytest.raises(SystemExit, match="--json requires --trace"):
            main(["certain", QA, "--db", poll_file, "--json"])

    def test_trace_out_writes_jsonl(self, capsys, tmp_path, poll_file):
        out_file = tmp_path / "spans.jsonl"
        assert main(["certain", QA, "--db", poll_file,
                     "--trace-out", str(out_file)]) == 0
        records = read_jsonl(str(out_file))
        assert records and records[0]["name"] == "certain"
        err = capsys.readouterr().err
        assert "span records" in err

    @pytest.mark.parametrize("command, span", [
        ("certain", "certain"),
        ("answers", "certain-answers"),
        ("watch", "view-maintain"),
        ("analyze", "analyze.rules"),
    ])
    def test_trace_out_alone_writes_jsonl(self, capsys, tmp_path, poll_file,
                                          command, span):
        # --trace-out without --trace: the CLI makes the tracer and
        # writes the file itself.
        stream = tmp_path / "ops.txt"
        stream.write_text("+ Likes 'dan' 'mons'\n")
        extra = {
            "certain": [],
            "answers": ["--free", "p"],
            "watch": ["--free", "p", "--stream", str(stream)],
            "analyze": ["--free", "p"],
        }[command]
        out_file = tmp_path / f"{command}.jsonl"
        assert main([command, QA, "--db", poll_file, *extra,
                     "--trace-out", str(out_file)]) == 0
        assert "span records" in capsys.readouterr().err
        assert out_file.stat().st_size > 0
        assert span in {r["name"] for r in read_jsonl(str(out_file))}

    def test_watch_trace_out(self, capsys, tmp_path, poll_file):
        stream = tmp_path / "ops.txt"
        stream.write_text("+ Likes 'dan' 'mons'\n")
        out_file = tmp_path / "watch.jsonl"
        assert main(["watch", QA, "--db", poll_file, "--free", "p",
                     "--stream", str(stream),
                     "--trace-out", str(out_file)]) == 0
        capsys.readouterr()
        records = read_jsonl(str(out_file))
        assert any(r["name"] == "view-maintain" for r in records)

    def test_stats_payload_has_schema_version(self, capsys, poll_file):
        assert main(["certain", QA, "--db", poll_file, "--stats"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["schema_version"] == 1
        assert {"plan_cache", "parallel", "views"} <= set(payload)

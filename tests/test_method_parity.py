"""Cross-method parity: every certain-answer strategy agrees.

Runs the full 7-method matrix — brute force, the interpreted
Algorithm 1, the tuple-at-a-time rewriting evaluator, the compiled
plan, the SQL backend, the columnar vectorized executor, and the
sharded parallel executor — on generated workloads and asserts
identical answer sets.  Databases are kept small enough for the
exponential brute-force oracle; the parallel path runs with
``min_facts=0`` so real partitioning, forked workers, and merging are
exercised even at these sizes.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.terms import Variable
from repro.cqa.certain_answers import (
    OpenQuery,
    certain_answers,
    cross_validate_answers,
)
from repro.parallel import parallel_certain_answers, shutdown_pools
from repro.parallel.pool import fork_context
from repro.workloads.poll import (
    adversarial_poll_database,
    random_poll_database,
)
from repro.workloads.queries import poll_q1, poll_qa, poll_qb

p, t = Variable("p"), Variable("t")

needs_fork = pytest.mark.skipif(
    fork_context() is None, reason="platform has no fork start method"
)

OPEN_QUERIES = {
    "qa(p)": lambda: OpenQuery(poll_qa(), [p]),
    "qb(p)": lambda: OpenQuery(poll_qb(), [p]),
    "q1(t)": lambda: OpenQuery(poll_q1(), [t]),
}


@pytest.fixture(autouse=True, scope="module")
def _clean_pools():
    yield
    shutdown_pools()


def assert_parity(open_query, db, parallel_jobs=2):
    results = cross_validate_answers(open_query, db,
                                     parallel_jobs=parallel_jobs)
    if open_query.in_fo:
        assert set(results) == {"brute", "interpreted", "rewriting",
                                "compiled", "sql", "columnar", "parallel"}
    reference = results["brute"]
    for method, answers in results.items():
        assert answers == reference, (
            f"{method} disagrees with brute force: "
            f"{sorted(answers ^ reference, key=repr)}"
        )


@needs_fork
@pytest.mark.parametrize("name", sorted(OPEN_QUERIES))
@given(seed=st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_random_poll_parity(name, seed):
    db = random_poll_database(
        n_people=6, n_towns=3, conflict_rate=0.5, rng=random.Random(seed)
    )
    assert_parity(OPEN_QUERIES[name](), db)


@needs_fork
@given(seed=st.integers(0, 10**6), certain=st.floats(0.0, 1.0))
@settings(max_examples=10, deadline=None)
def test_adversarial_poll_parity(seed, certain):
    db = adversarial_poll_database(
        n_people=5, n_towns=4, certain_fraction=certain,
        rng=random.Random(seed),
    )
    assert_parity(OpenQuery(poll_qa(), [p]), db)


def test_columnar_matches_compiled_beyond_brute_sizes():
    # The vectorized backend against the serial compiled plan, at a
    # size where dictionary encoding and batch joins do real work.
    db = adversarial_poll_database(800, 12, rng=random.Random(5))
    oq = OpenQuery(poll_qa(), [p])
    serial = certain_answers(oq, db, "compiled")
    assert certain_answers(oq, db, "columnar") == serial


@given(seed=st.integers(0, 10**6))
@settings(max_examples=10, deadline=None)
def test_boolean_probe_parity(seed):
    # Boolean certainty under method="columnar" delegates to the row
    # executor's short-circuit probe path; the answer must match the
    # brute-force oracle and the compiled probe.
    from repro.cqa.engine import CertaintyEngine

    db = random_poll_database(
        n_people=5, n_towns=3, conflict_rate=0.6, rng=random.Random(seed)
    )
    engine = CertaintyEngine(poll_qa())
    expected = engine.certain(db, "brute")
    assert engine.certain(db, "columnar") == expected
    assert engine.certain(db, "compiled") == expected


@needs_fork
def test_parallel_matches_compiled_beyond_brute_sizes():
    # Larger than the brute-force oracle can take: compare the parallel
    # path against the serial compiled plan directly, with enough jobs
    # and shards that several are empty or tiny.
    db = adversarial_poll_database(800, 12, rng=random.Random(5))
    oq = OpenQuery(poll_qa(), [p])
    serial = certain_answers(oq, db, "compiled")
    for jobs in (2, 3):
        par = parallel_certain_answers(oq, db, jobs=jobs, min_facts=0,
                                       shard_factor=4)
        assert par == serial


@needs_fork
def test_two_free_variables_parity():
    db = random_poll_database(6, 3, conflict_rate=0.5,
                              rng=random.Random(99))
    assert_parity(OpenQuery(poll_qa(), [p, t]), db)


@needs_fork
@given(seed=st.integers(0, 10**6))
@settings(max_examples=5, deadline=None)
def test_store_backed_parity(seed, tmp_path_factory):
    # The same matrix on a WAL-backed store: method="sql" runs through
    # the delta-maintained sqlite mirror instead of a per-call load,
    # and every answer set must still match the brute-force oracle.
    from repro.storage import PersistentDatabase, storage_stats

    db = random_poll_database(
        n_people=6, n_towns=3, conflict_rate=0.5, rng=random.Random(seed)
    )
    directory = tmp_path_factory.mktemp("store")
    store = PersistentDatabase(directory / "db")
    for schema in db.schemas.values():
        store.add_relation(schema)
    with store.batch():
        for name in db.relations():
            store.add_all(name, db.facts(name))
    try:
        native_before = storage_stats()["pushdown"]["native_sql"]
        assert_parity(OpenQuery(poll_qa(), [p]), store)
        # The mirror ran the compiled plan natively, as one SELECT.
        assert storage_stats()["pushdown"]["native_sql"] > native_before
    finally:
        store.close()


@needs_fork
def test_store_reopen_is_invisible_to_sql_method(tmp_path_factory):
    # Closing and reopening the store (a fresh in-memory mirror, value
    # dictionary and statement cache) must not change any answer.
    from repro.storage import PersistentDatabase, storage_stats

    db = random_poll_database(6, 3, conflict_rate=0.5,
                              rng=random.Random(11))
    directory = tmp_path_factory.mktemp("store")
    store = PersistentDatabase(directory / "db")
    for schema in db.schemas.values():
        store.add_relation(schema)
    with store.batch():
        for name in db.relations():
            store.add_all(name, db.facts(name))
    oq = OpenQuery(poll_qa(), [p])
    expected = certain_answers(oq, store, "compiled")
    assert certain_answers(oq, store, "sql") == expected
    store.checkpoint()
    store.close()

    store = PersistentDatabase(directory / "db")
    try:
        rebuilds_before = storage_stats()["pushdown"]["mirror_rebuilds"]
        assert certain_answers(oq, store, "sql") == expected
        assert certain_answers(oq, store, "compiled") == expected
        # The reopened store builds its mirror exactly once.
        assert (storage_stats()["pushdown"]["mirror_rebuilds"]
                == rebuilds_before + 1)
    finally:
        store.close()


# ----------------------------------------------------------------------
# One dispatch path: Boolean certainty is the free=() call
# ----------------------------------------------------------------------


def _copy_into_store(db, path):
    from repro.storage import PersistentDatabase

    store = PersistentDatabase(path)
    for schema in db.schemas.values():
        store.add_relation(schema)
    with store.batch():
        for name in db.relations():
            store.add_all(name, db.facts(name))
    return store


@pytest.fixture(scope="module", params=["memory", "store"])
def corpus_databases(request, tmp_path_factory):
    """(name, query, database) for every corpus query, in memory or on
    a persistent store."""
    from repro.workloads.generators import random_small_database
    from repro.workloads.queries import all_named_queries

    rng = random.Random(2018)
    cases = []
    for name, query in all_named_queries():
        db = random_small_database(query, rng, domain_size=3)
        if request.param == "store":
            db = _copy_into_store(db, tmp_path_factory.mktemp(name) / "db")
        cases.append((name, query, db))
    yield cases
    if request.param == "store":
        for _, _, db in cases:
            db.close()


@pytest.mark.parametrize("method", [
    "brute", "interpreted", "rewriting", "compiled", "sql", "parallel",
    "columnar",
])
def test_certain_is_the_boolean_certain_answers_call(method,
                                                     corpus_databases):
    from repro.cqa.engine import CertaintyEngine
    from repro.cqa.rewriting import NotInFO
    from repro.parallel import parallel_stats

    options = ({"method": "parallel", "jobs": 2} if method == "parallel"
               else method)
    for name, query, db in corpus_databases:
        engine = CertaintyEngine(query)
        if method != "brute" and not engine.in_fo:
            # Both entry points refuse with the same coded diagnostics.
            with pytest.raises(NotInFO) as boolean:
                engine.certain(db, options)
            with pytest.raises(NotInFO) as open_form:
                engine.certain_answers(db, (), options)
            assert str(boolean.value) == str(open_form.value)
            assert boolean.value.diagnostics
            continue
        before = parallel_stats()["fallback_reasons"].get("boolean", 0)
        answer = engine.certain(db, options)
        assert answer == (() in engine.certain_answers(db, (), options)), name
        if method == "parallel":
            reasons = parallel_stats()["fallback_reasons"]
            assert reasons["boolean"] == before + 2, name


def test_boolean_sql_on_in_memory_database():
    # free=() used to reach the open formula-SQL path, which emitted a
    # SELECT with no columns; it now takes the Boolean probe path.
    db = random_poll_database(6, 3, conflict_rate=0.5,
                              rng=random.Random(3))
    oq = OpenQuery(poll_qa(), ())
    assert certain_answers(oq, db, "sql") == certain_answers(oq, db, "brute")


#: A generated query whose rewriting, as formula SQL, nests past
#: sqlite's parser stack ("parser stack overflow" on any database).
#: method="sql" compiles the plan IR instead, in memory as on a store.
DEEP_QUERY = ("P0(v2 | 1), P1(v1, v3 | v1), P2(v1 | v2, v1), "
              "not N0(v1), not N1(v3 | v1)")


@pytest.mark.parametrize("free", [(), ("v2",)], ids=["certain", "answers"])
@pytest.mark.parametrize("facts", [
    {"P0/2/1": [(1, 2), (1, 1), (2, 1)], "P1/3/2": [(1, 2, 1), (2, 1, 2)],
     "P2/3/1": [(2, 1, 1), (1, 2, 1)], "N0/1/1": [(2,)],
     "N1/2/1": [(1, 2)]},
    {"P0/2/1": [], "P1/3/2": [], "P2/3/1": [], "N0/1/1": [], "N1/2/1": []},
], ids=["tiny", "empty"])
def test_sql_on_in_memory_database_runs_deep_rewritings(free, facts):
    from conftest import db_from
    from repro.core.parser import parse_query
    from repro.cqa.engine import CertaintyEngine

    query = parse_query(DEEP_QUERY)
    db = db_from(facts)
    if not free:
        engine = CertaintyEngine(query)
        assert engine.certain(db, "sql") == engine.certain(db, "compiled")
        return
    oq = OpenQuery(query, [Variable(name) for name in free])
    expected = certain_answers(oq, db, "compiled")
    assert certain_answers(oq, db, "sql") == expected
    assert expected == certain_answers(oq, db, "brute")


@pytest.mark.parametrize("free", [(p,), ()], ids=["open", "boolean"])
@pytest.mark.parametrize("where", ["memory", "store"])
def test_auto_rewrites_and_compiles_once(free, where, monkeypatch,
                                         tmp_path):
    # Routing and execution share one compiled plan: a single rewriting
    # lookup and a single plan-cache lookup per auto call.
    import importlib

    from repro.fo.compile import PlanCache

    module = importlib.import_module("repro.cqa.certain_answers")
    oq = OpenQuery(poll_qa(), free)
    db = random_poll_database(6, 3, conflict_rate=0.5,
                              rng=random.Random(8))
    expected = certain_answers(oq, db, "brute")
    if where == "store":
        db = _copy_into_store(db, tmp_path / "db")
    calls = {"rewrite": 0, "compile": 0}
    rewrite = module._guarded_open_rewriting
    compile_ = PlanCache.get_or_compile

    def counted_rewrite(open_query):
        calls["rewrite"] += 1
        return rewrite(open_query)

    def counted_compile(self, *args, **kwargs):
        calls["compile"] += 1
        return compile_(self, *args, **kwargs)

    monkeypatch.setattr(module, "_guarded_open_rewriting", counted_rewrite)
    monkeypatch.setattr(PlanCache, "get_or_compile", counted_compile)
    try:
        assert certain_answers(oq, db, "auto") == expected
    finally:
        if where == "store":
            db.close()
    assert calls == {"rewrite": 1, "compile": 1}

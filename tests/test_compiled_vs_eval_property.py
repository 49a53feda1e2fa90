"""Property tests: the plan compiler agrees with the tuple-at-a-time
evaluator and the SQL backend.

Two layers: hypothesis-generated arbitrary FO sentences (exercising the
total lowering, including the active-domain fallbacks), and randomized
sjfBCQ¬ workloads whose consistent rewritings exercise the guarded
shapes the compiler is optimized for — with negated atoms, constants,
repeated variables and empty relations all in scope, checked Boolean
and open, in memory and on a persistent store, one-shot and as an
incrementally maintained view.
"""

from __future__ import annotations

import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.analysis.verifier import plan_uses_adom
from repro.columnar import columnar_rows
from repro.core.atoms import RelationSchema, atom
from repro.core.parser import parse_query
from repro.core.terms import Constant, Variable
from repro.cqa.certain_answers import (
    OpenQuery,
    _guarded_open_rewriting,
    certain_answers,
    cross_validate_answers,
)
from repro.cqa.engine import CertaintyEngine
from repro.db.database import Database
from repro.db.sqlite_backend import run_sentence_sql
from repro.fo.compile import compile_formula
from repro.fo.eval import Evaluator
from repro.fo.formula import (
    AtomF,
    Eq,
    free_variables,
    make_and,
    make_exists,
    make_forall,
    make_not,
    make_or,
)
from repro.storage import PersistentDatabase
from repro.workloads.generators import (
    QueryParams,
    UpdateStreamParams,
    apply_update_stream,
    random_query,
    random_small_database,
    random_update_stream,
)
from repro.workloads.queries import poll_qa, q3, q_hall

from conftest import db_from

x, y, z = Variable("x"), Variable("y"), Variable("z")
VARS = (x, y, z)

leaf = st.one_of(
    st.builds(
        lambda a, b: AtomF(atom("R", [a], [b])),
        st.sampled_from(VARS), st.sampled_from(VARS),
    ),
    st.builds(lambda a: AtomF(atom("S", [a])), st.sampled_from(VARS)),
    st.builds(
        Eq, st.sampled_from(VARS),
        st.one_of(st.sampled_from(VARS), st.just(Constant(1))),
    ),
)


def _quantify(child):
    return st.builds(
        lambda vs, f, is_exists: (make_exists if is_exists else make_forall)(
            vs, f),
        st.lists(st.sampled_from(VARS), min_size=1, max_size=2, unique=True),
        child,
        st.booleans(),
    )


formulas = st.recursive(
    leaf,
    lambda child: st.one_of(
        st.builds(lambda a, b: make_and([a, b]), child, child),
        st.builds(lambda a, b: make_or([a, b]), child, child),
        st.builds(make_not, child),
        _quantify(child),
    ),
    max_leaves=6,
)

rows2 = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=4)
rows1 = st.lists(st.tuples(st.integers(0, 2)), max_size=3)


#: ``R(x | y) ∧ R(y | x)``: two copies of one atom whose shared column
#: sits at different atom positions, so the compiler must keep the
#: semi-join between them (``repro.fo.compile._keeps_all``).
SWAPPED_SELF_JOIN = make_and([AtomF(atom("R", [x], [y])),
                              AtomF(atom("R", [y], [x]))])


def _db(r_rows, s_rows) -> Database:
    db = Database([RelationSchema("R", 2, 1), RelationSchema("S", 1, 1)])
    for row in r_rows:
        db.add("R", row)
    for row in s_rows:
        db.add("S", row)
    return db


@given(formulas, rows2, rows1)
@example(SWAPPED_SELF_JOIN, [(0, 1), (1, 2)], [])
@settings(max_examples=80, deadline=None)
def test_compiled_sentence_matches_evaluator_and_sql(formula, r_rows, s_rows):
    db = _db(r_rows, s_rows)
    closed = make_exists(sorted(free_variables(formula)), formula)
    expected = Evaluator(closed, db).evaluate()
    assert compile_formula(closed).holds(db) == expected
    assert run_sentence_sql(closed, db) == expected


@given(formulas, rows2, rows1)
@example(SWAPPED_SELF_JOIN, [(0, 1), (1, 2), (2, 1)], [])
@settings(max_examples=60, deadline=None)
def test_compiled_open_formula_matches_evaluator(formula, r_rows, s_rows):
    db = _db(r_rows, s_rows)
    free = tuple(sorted(free_variables(formula)))
    compiled = compile_formula(formula, free)
    evaluator = Evaluator(formula, db)
    expected = {
        values
        for values in itertools.product(evaluator.adom, repeat=len(free))
        if evaluator.evaluate(dict(zip(free, values)))
    }
    assert compiled.rows(db) == expected
    assert columnar_rows(compiled, db) == expected


QUERY_PARAM_GRID = (
    QueryParams(n_positive=2, n_negative=1, max_arity=2, n_variables=3),
    QueryParams(n_positive=2, n_negative=2, max_arity=3, n_variables=3,
                constant_probability=0.3),
    QueryParams(n_positive=3, n_negative=1, max_arity=2, n_variables=4),
    QueryParams(),
)

#: The plan backends re-run on a persistent store, where ``sql`` keeps
#: its mirror in step through the store's changelog.
STORE_METHODS = ("compiled", "columnar", "sql")

#: A short update stream for the registered-view pass.
VIEW_UPDATES = UpdateStreamParams(n_batches=4, batch_size=3)

#: Enough generated queries that the sweep reaches the shapes that
#: once broke: rewritings too deep for formula SQL under ``sql``, and
#: open queries in FO whose Boolean form is not (registered views).
QUERIES_PER_SEED = 20


def _copy_into_store(db: Database, path) -> PersistentDatabase:
    store = PersistentDatabase(path, sync="off")
    for schema in db.schemas.values():
        store.add_relation(schema)
    with store.batch():
        for name in db.relations():
            store.add_all(name, db.facts(name))
    return store


@pytest.mark.parametrize("seed", range(8))
def test_random_workload_cross_validation(seed, tmp_path):
    """Every strategy (brute included) agrees on random FO workloads.

    Per generated query with 0-2 random free variables whose open form
    is in FO: Boolean certainty and the open answers on five small
    databases; on the last one, the plan backends again on a persistent
    store, and a view registered through the engine against brute force
    along an update stream.
    """
    rng = random.Random(0xBEEF00 + seed)
    params = QUERY_PARAM_GRID[seed % len(QUERY_PARAM_GRID)]
    checked = 0
    while checked < QUERIES_PER_SEED:
        query = random_query(params, rng)
        variables = sorted(query.vars, key=lambda v: v.name)
        free = rng.sample(variables, rng.randint(0, min(2, len(variables))))
        open_query = OpenQuery(query, free)
        if not open_query.in_fo:
            continue
        checked += 1
        engine = CertaintyEngine(query)
        for _ in range(5):
            db = random_small_database(query, rng, domain_size=3)
            cv = engine.cross_validate(db)
            assert cv.consistent, (query, db, cv.results)
            results = cross_validate_answers(open_query, db)
            assert len(set(results.values())) == 1, (open_query, db, results)
        expected = results["brute"]
        store = _copy_into_store(db, tmp_path / f"store{checked}")
        try:
            for method in STORE_METHODS:
                got = certain_answers(open_query, store, method)
                assert got == expected, (open_query, method, db)
        finally:
            store.close()
        view = engine.register_view(db, free)
        for batch in random_update_stream(db, VIEW_UPDATES, rng):
            apply_update_stream(db, [batch])
            assert view.answers == certain_answers(open_query, db, "brute"), (
                open_query, db)


#: Generated queries with (query, free) pairs whose guarded rewriting
#: compiles to a plan with an Adom* node, keyed by sweep index.  Found
#: by drawing 600 queries with
#: ``random_query(QueryParams(), random.Random(20))`` and compiling
#: every in-FO pair with at most two free variables: 13 of its 4,190
#: pairs, listed in ``ADOM_PAIRS``, use the active domain.  Every one of
#: these queries repeats a variable inside an atom.
ADOM_QUERIES = {
    2: "P0(v2 | v0), P1(v2 | v0), P2(1), not N0(v2, v0), "
       "not N1(v0, v0 | v2)",
    112: "P0(v2 | v2), P1(v0, v3), P2(v2, v3, v0), not N0(v0, v0 | v2), "
         "not N1(v0, v0)",
    140: "P0(v3 | v2), P1(v3 | v2, v1), P2(v3, v2, v3), not N0(v2, v2 | 1), "
         "not N1(v2 | v3, v2)",
    154: "P0(v2, v1, v0), P1(v1), P2(v0 | v1), not N0(v2 | v0, v2), "
         "not N1(v1 | v1)",
    211: "P0(v1), P1(v2 | v3), P2(v1, v3, v2), not N0(v1 | v1, v2), "
         "not N1(v2, v2, v3)",
    396: "P0(v2, v0 | v1), P1(v0), P2(v2 | v2, v1), not N0(v2, v1 | v0), "
         "not N1(v1 | v2)",
    488: "P0(v3 | v1, v3), P1(v1, v1), P2(v3, v2, v2), not N0(v1), "
         "not N1(v2 | v3, v2)",
    505: "P0(v1, v0), P1(v1 | v1), P2(v1, v2 | v0), not N0(v0, v2 | v1), "
         "not N1(v2 | v0, v0)",
    581: "P0(v3), P1(v0, v2, v2), P2(v2 | 1), not N0(v3, v3, v3), "
         "not N1(v0 | v2)",
}
ADOM_PAIRS = (
    (2, ()), (112, ()), (112, ("v3",)), (140, ()), (140, ("v1",)),
    (154, ("v1",)), (211, ("v3",)), (396, ("v0",)), (488, ()),
    (488, ("v1",)), (505, ("v0",)), (581, ()), (581, ("v3",)),
)


#: The one update batch the Adom* store pass applies.
ADOM_BATCH = UpdateStreamParams(n_batches=1, batch_size=8,
                                fresh_value_rate=0.5)


@pytest.mark.parametrize(
    "index,free_names", ADOM_PAIRS,
    ids=[f"q{i}-{'-'.join(free) or 'boolean'}" for i, free in ADOM_PAIRS])
def test_adom_plan_cross_validation(index, free_names, tmp_path):
    """Adom*-bearing plans agree with brute force on every backend: in
    memory, on a store (where sql and columnar hand the plan to the row
    executor) before and after an update batch, and as a registered
    view, which re-executes the plan on every commit."""
    text = ADOM_QUERIES[index]
    query = parse_query(text)
    free = [Variable(name) for name in free_names]
    open_query = OpenQuery(query, free)
    # Fails once the compiler stops emitting Adom* for these shapes.
    assert plan_uses_adom(
        compile_formula(_guarded_open_rewriting(open_query), free).plan)
    rng = random.Random(text + "|" + ",".join(free_names))
    for _ in range(3):
        db = random_small_database(query, rng, domain_size=3)
        results = cross_validate_answers(open_query, db)
        assert len(set(results.values())) == 1, (open_query, db, results)

    store = _copy_into_store(db, tmp_path / "store")
    try:
        # The batch brings fresh values, so the runs after it see an
        # active domain that a commit moved.
        for batch in [None] + random_update_stream(db, ADOM_BATCH, rng):
            if batch is not None:
                apply_update_stream(db, [batch])
                apply_update_stream(store, [batch])
            expected = certain_answers(open_query, db, "brute")
            for method in STORE_METHODS:
                got = certain_answers(open_query, store, method)
                assert got == expected, (open_query, method, db)
    finally:
        store.close()

    view = CertaintyEngine(query).register_view(db, free)
    for batch in random_update_stream(db, VIEW_UPDATES, rng):
        apply_update_stream(db, [batch])
        assert view.answers == certain_answers(open_query, db, "brute"), (
            open_query, db)


@pytest.mark.parametrize("make_query,free_names", [
    (q3, ["x"]),
    (poll_qa, ["p"]),
    (poll_qa, ["p", "t"]),
    (lambda: q_hall(2), ["x"]),
])
def test_random_certain_answers_cross_validation(make_query, free_names, rng):
    query = make_query()
    open_query = OpenQuery(query, [Variable(n) for n in free_names])
    for _ in range(6):
        db = random_small_database(query, rng, domain_size=3,
                                   facts_per_relation=3)
        results = cross_validate_answers(open_query, db)
        assert "compiled" in results
        values = set(map(frozenset, results.values()))
        assert len(values) == 1, (query, db, results)


def test_empty_relations_and_constants():
    """Compiled path on empty relations and constant-only candidates."""
    engine = CertaintyEngine(q3())
    assert not engine.certain(db_from({"P/2/1": [], "N/2/1": []}), "compiled")
    db = db_from({"P/2/1": [(1, "a")], "N/2/1": [("c", "a"), ("c", "b")]})
    cv = engine.cross_validate(db)
    assert cv.consistent

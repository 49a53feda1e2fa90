"""Property tests: incremental views agree with full recompute (and
with brute force) over randomized insert/discard sequences.

Extends the strategies of ``test_compiled_vs_eval_property``: the same
hypothesis formula generator drives arbitrary FO views through update
streams, and randomized sjfBCQ¬ workloads cross-validate maintained
certain answers against fresh compiled runs and repair enumeration —
including the deletions that *flip a query certain* (retraction-induced
insertions through anti-join/difference state).
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from repro.core.atoms import atom
from repro.core.classify import Verdict, classify
from repro.core.terms import Constant, Variable
from repro.cqa.brute_force import is_certain_brute_force
from repro.cqa.certain_answers import OpenQuery, certain_answers
from repro.cqa.engine import CertaintyEngine
from repro.fo.compile import compile_formula
from repro.fo.formula import AtomF, free_variables, make_and, make_not
from repro.incremental import ViewManager
from repro.workloads.generators import (
    QueryParams,
    random_query,
    random_small_database,
)
from repro.workloads.queries import poll_qa, q3

from test_compiled_vs_eval_property import _db, formulas, rows1, rows2

# One update op: (insert?, relation, row); rows are truncated to the
# relation's arity when applied.
ops_lists = st.lists(
    st.tuples(
        st.booleans(),
        st.sampled_from(("R", "S")),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
    ),
    max_size=12,
)


#: ``R(x | x) ∧ ¬R(x | 1)`` compiles to ``AntiJoin on [x](Scan R(x, x),
#: Scan R(x, 1))``: one scan with an equality check, one with a constant.
#: The formula strategy puts no constant inside an atom, so pin them.
#: The last op inserts a row that passes neither scan's pattern.
_x = Variable("x")
CHECKED_SCANS = make_and([AtomF(atom("R", [_x], [_x])),
                          make_not(AtomF(atom("R", [_x], [Constant(1)])))])
CHECKED_SCAN_ROWS = [(0, 0), (1, 1), (2, 1)]
CHECKED_SCAN_OPS = [(False, "R", (1, 1)), (True, "R", (1, 1)),
                    (True, "R", (0, 1)), (False, "R", (0, 0)),
                    (True, "R", (0, 0)), (False, "R", (0, 1)),
                    (True, "R", (0, 2))]


def _apply(db, insert, relation, row):
    row = row if relation == "R" else row[:1]
    if insert:
        db.add(relation, row)
    else:
        db.discard(relation, row)


def _recompute(compiled, free, db):
    return compiled.rows(db) if free else compiled.holds(db)


def _observe(view, free):
    return view.answers if free else view.holds


@given(formulas, rows2, rows1, ops_lists)
@example(CHECKED_SCANS, CHECKED_SCAN_ROWS, [], CHECKED_SCAN_OPS)
@settings(max_examples=60, deadline=None)
def test_view_matches_recompute_per_mutation(formula, r_rows, s_rows, ops):
    """Single-op commits: after every mutation the maintained answers
    equal a fresh plan execution."""
    db = _db(r_rows, s_rows)
    free = tuple(sorted(free_variables(formula)))
    view = ViewManager(db).register_formula(formula, free)
    compiled = compile_formula(formula, free or None)
    assert _observe(view, free) == _recompute(compiled, free, db)
    for insert, relation, row in ops:
        _apply(db, insert, relation, row)
        assert _observe(view, free) == _recompute(compiled, free, db), (
            formula, ("+" if insert else "-", relation, row))


@given(formulas, rows2, rows1, ops_lists, st.integers(1, 5))
@example(CHECKED_SCANS, CHECKED_SCAN_ROWS, [], CHECKED_SCAN_OPS, 3)
@settings(max_examples=40, deadline=None)
def test_view_matches_recompute_per_batch(formula, r_rows, s_rows, ops,
                                          batch_size):
    """Batched commits: ops are folded into net deltas before the view
    sees them (add-then-discard cancellation included)."""
    db = _db(r_rows, s_rows)
    free = tuple(sorted(free_variables(formula)))
    view = ViewManager(db).register_formula(formula, free)
    compiled = compile_formula(formula, free or None)
    for start in range(0, len(ops), batch_size):
        with db.batch():
            for insert, relation, row in ops[start:start + batch_size]:
                _apply(db, insert, relation, row)
        assert _observe(view, free) == _recompute(compiled, free, db)


@pytest.mark.parametrize("seed", range(4))
def test_random_boolean_stream_vs_brute_force(seed):
    """Random FO workloads under random update streams: the maintained
    Boolean view agrees with the compiled strategy at every step and
    with repair enumeration whenever that stays feasible."""
    rng = random.Random(0xD1F7A + seed)
    params = QueryParams(n_positive=2, n_negative=1, max_arity=2,
                         n_variables=3)
    query = random_query(params, rng)
    while classify(query).verdict is not Verdict.IN_FO:
        query = random_query(params, rng)
    db = random_small_database(query, rng, domain_size=3,
                               facts_per_relation=2)
    view = ViewManager(db).register_view(query)
    engine = CertaintyEngine(query)
    assert view.holds == engine.certain(db, "compiled")
    pool = sorted(set(db.active_domain()) | {0, 1, 2}, key=repr)
    schemas = [db.schemas[name] for name in db.relations()]
    for _ in range(20):
        schema = rng.choice(schemas)
        existing = sorted(db.facts(schema.name), key=repr)
        if existing and rng.random() < 0.45:
            db.discard(schema.name, rng.choice(existing))
        else:
            db.add(schema.name,
                   tuple(rng.choice(pool) for _ in range(schema.arity)))
        assert view.holds == engine.certain(db, "compiled"), (query, db)
        if db.repair_count() <= 400:
            assert view.holds == is_certain_brute_force(query, db), (query, db)


@pytest.mark.parametrize("make_query,free_names", [
    (q3, ["x"]),
    (poll_qa, ["p"]),
    (poll_qa, ["p", "t"]),
])
def test_open_view_stream_cross_validation(make_query, free_names, rng):
    """Maintained certain answers track the compiled recompute (and
    brute force on small instances) across mixed insert/discard streams;
    deletion-driven answer growth is asserted to actually occur."""
    query = make_query()
    free = [Variable(n) for n in free_names]
    open_query = OpenQuery(query, free)
    db = random_small_database(query, rng, domain_size=3,
                               facts_per_relation=3)
    view = ViewManager(db).register_view(query, free)
    assert view.answers == certain_answers(open_query, db, "compiled")
    pool = sorted(set(db.active_domain()) | {0, 1, 2}, key=repr)
    schemas = [db.schemas[name] for name in db.relations()]
    retraction_growth = 0
    for step in range(30):
        schema = rng.choice(schemas)
        existing = sorted(db.facts(schema.name), key=repr)
        before = view.answers
        deleted = bool(existing) and rng.random() < 0.5
        if deleted:
            db.discard(schema.name, rng.choice(existing))
        else:
            db.add(schema.name,
                   tuple(rng.choice(pool) for _ in range(schema.arity)))
        if deleted and view.answers - before:
            retraction_growth += 1
        assert view.answers == certain_answers(open_query, db, "compiled"), (
            query, db)
        if db.repair_count() <= 200:
            assert view.answers == certain_answers(open_query, db, "brute"), (
                query, db)
    # The streams are seeded so that certainty flips caused purely by
    # retraction show up; if this starts failing after a generator
    # change, re-seed rather than delete.
    if make_query is q3:
        assert retraction_growth > 0

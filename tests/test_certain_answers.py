"""Tests for non-Boolean certain answers (the free-variables extension)."""

import pytest

from repro.core.query import QueryError
from repro.core.terms import Variable
from repro.cqa.certain_answers import (
    OpenQuery,
    candidate_values,
    certain_answers,
    certain_answers_sql_query,
    cross_validate_answers,
    open_rewriting,
)
from repro.cqa.engine import CertaintyEngine
from repro.fo.formula import free_variables
from repro.workloads.generators import random_small_database
from repro.workloads.queries import poll_qa, q1, q3

from conftest import db_from

x, y = Variable("x"), Variable("y")
p, t = Variable("p"), Variable("t")


class TestOpenQuery:
    def test_free_vars_must_occur(self):
        with pytest.raises(QueryError):
            OpenQuery(q3(), [Variable("zzz")])

    def test_free_vars_must_be_distinct(self):
        with pytest.raises(QueryError):
            OpenQuery(q3(), [x, x])

    @pytest.mark.parametrize("free", [["p"], "p", [p, "t"]])
    def test_non_variable_members_rejected_by_repr(self, free):
        # Names are not answer variables: the error names the offending
        # members instead of failing on their missing ``.name``.
        db = db_from({"Lives/2/1": [("ann", "ghent")], "Born/2/1": [],
                      "Likes/2/2": []})
        engine = CertaintyEngine(poll_qa())
        with pytest.raises(QueryError, match="'p'|'t'"):
            engine.certain_answers(db, free)

    def test_grounded(self):
        oq = OpenQuery(q3(), [x])
        grounded = oq.grounded((7,))
        assert x not in grounded.vars

    def test_in_fo_uses_grounded_form(self):
        # q1 is cyclic, but grounding x makes it acyclic: with x frozen,
        # R's key is constant, so the R->S / S->R cycle breaks.
        oq = OpenQuery(q1(), [x])
        assert oq.in_fo

    def test_boolean_form_has_fewer_vars(self):
        oq = OpenQuery(poll_qa(), [p])
        assert oq.boolean_form.vars == {t}


class TestOpenRewriting:
    def test_free_variables_exposed(self):
        oq = OpenQuery(q3(), [x])
        formula = open_rewriting(oq)
        assert free_variables(formula) == {x}

    def test_sentence_when_no_free_vars(self):
        oq = OpenQuery(q3(), [])
        assert free_variables(open_rewriting(oq)) == frozenset()


class TestCandidates:
    def test_candidates_from_positive_columns(self):
        db = db_from({"P/2/1": [(1, "a"), (2, "b")], "N/2/1": [("c", "zz")]})
        oq = OpenQuery(q3(), [x])
        assert set(candidate_values(oq, db)) == {(1,), (2,)}

    def test_two_variable_product(self):
        db = db_from({"Lives/2/1": [("p1", "t1")], "Born/2/1": [],
                      "Likes/2/2": []})
        oq = OpenQuery(poll_qa(), [p, t])
        assert set(candidate_values(oq, db)) == {("p1", "t1")}


class TestAnswers:
    def test_worked_q3_example(self):
        # Block 1 can always avoid the blocked value, block 2 cannot.
        db = db_from({"P/2/1": [(1, "safe"), (2, "blocked")],
                      "N/2/1": [("c", "blocked")]})
        oq = OpenQuery(q3(), [x])
        for method in ("brute", "rewriting", "sql"):
            assert certain_answers(oq, db, method) == {(1,)}, method

    def test_empty_when_no_candidates(self):
        db = db_from({"P/2/1": [], "N/2/1": []})
        oq = OpenQuery(q3(), [x])
        assert certain_answers(oq, db) == frozenset()

    def test_non_fo_open_query_still_answerable_by_brute(self):
        # q1 with y free stays cyclic? Grounding y: R(x̲, c) and S(c̲, x):
        # S's key is ground, so the cycle breaks here too.
        oq = OpenQuery(q1(), [y])
        db = db_from({"R/2/1": [(1, 2)], "S/2/1": [(2, 1), (2, 3)]})
        answers = certain_answers(oq, db, "brute")
        assert isinstance(answers, frozenset)

    @pytest.mark.parametrize("make,free", [
        (q3, [x]),
        (poll_qa, [p]),
        (poll_qa, [p, t]),
        (q1, [x]),
    ])
    def test_strategies_agree(self, make, free, rng):
        oq = OpenQuery(make(), free)
        for _ in range(15):
            db = random_small_database(make(), rng, domain_size=3,
                                       facts_per_relation=4)
            results = cross_validate_answers(oq, db)
            assert len(set(results.values())) == 1, (
                {k: sorted(v) for k, v in results.items()}, db)

    def test_auto_method(self, rng):
        oq = OpenQuery(q3(), [x])
        db = random_small_database(q3(), rng, domain_size=3)
        assert certain_answers(oq, db, "auto") == \
            certain_answers(oq, db, "brute")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            certain_answers(OpenQuery(q3(), [x]), db_from({}), "magic")


class TestSqlQuery:
    def test_select_mentions_free_variables(self):
        db = db_from({"P/2/1": [(1, "a")], "N/2/1": []})
        sql = certain_answers_sql_query(OpenQuery(q3(), [x]), db)
        assert "SELECT DISTINCT" in sql
        assert "AS x" in sql

    def test_answers_decoded_to_python_values(self):
        db = db_from({"P/2/1": [(1, "a"), ("s", "b")], "N/2/1": []})
        oq = OpenQuery(q3(), [x])
        answers = certain_answers(oq, db, "sql")
        assert answers == {(1,), ("s",)}
        assert all(isinstance(a, (int, str)) for (a,) in answers)

"""Tests for the CertaintyEngine façade."""

import importlib

import pytest

import repro.lint
from repro.core.attack_graph import AttackGraph, attack_graph
from repro.core.terms import Variable
from repro.cqa import engine as engine_mod
from repro.cqa import rewriting as rewriting_mod
from repro.cqa.certain_answers import OpenQuery, certain_answers
from repro.cqa.engine import CertaintyEngine, CrossValidation, certain
from repro.cqa.rewriting import NotInFO
from repro.lint import lint_query
from repro.workloads.generators import random_small_database
from repro.workloads.queries import poll_qa, q1, q3

from conftest import db_from

# The package re-exports the function under the submodule's name.
certain_answers_mod = importlib.import_module("repro.cqa.certain_answers")


class TestDispatch:
    def test_auto_uses_rewriting_for_fo(self):
        db = db_from({"P/2/1": [(1, "a")], "N/2/1": []})
        engine = CertaintyEngine(q3())
        assert engine.in_fo
        assert engine.certain(db, "auto") == engine.certain(db, "rewriting")

    def test_auto_falls_back_to_brute(self):
        db = db_from({"R/2/1": [(1, 2)], "S/2/1": []})
        engine = CertaintyEngine(q1())
        assert not engine.in_fo
        assert engine.certain(db, "auto")

    def test_unknown_method_rejected(self):
        engine = CertaintyEngine(q3())
        with pytest.raises(ValueError):
            engine.certain(db_from({}), "magic")

    def test_rewriting_method_raises_for_cyclic(self):
        engine = CertaintyEngine(q1())
        with pytest.raises(NotInFO):
            engine.certain(db_from({"R/2/1": [], "S/2/1": []}), "rewriting")

    def test_rewriting_cached(self):
        engine = CertaintyEngine(q3())
        assert engine.rewriting is engine.rewriting

    def test_one_shot_helper(self):
        db = db_from({"P/2/1": [(1, "a")], "N/2/1": []})
        assert certain(q3(), db) == certain(q3(), db, "brute")


class TestCrossValidation:
    def test_all_methods_present_for_fo_query(self, rng):
        engine = CertaintyEngine(q3())
        db = random_small_database(q3(), rng, domain_size=3)
        cv = engine.cross_validate(db)
        assert set(cv.results) == {
            "brute", "interpreted", "rewriting", "compiled", "sql",
            "columnar",
        }
        assert cv.consistent
        assert cv.answer in (True, False)

    def test_only_brute_for_non_fo_query(self, rng):
        engine = CertaintyEngine(q1())
        db = random_small_database(q1(), rng, domain_size=3)
        cv = engine.cross_validate(db)
        assert set(cv.results) == {"brute"}

    def test_inconsistent_results_raise_on_answer(self):
        cv = CrossValidation({"a": True, "b": False})
        assert not cv.consistent
        with pytest.raises(AssertionError):
            _ = cv.answer

    def test_cross_validation_many_instances(self, rng):
        for make in (q3, poll_qa):
            engine = CertaintyEngine(make())
            for _ in range(15):
                db = random_small_database(make(), rng, domain_size=3)
                assert engine.cross_validate(db).consistent


class TestColdPath:
    """One cold call does each piece of query analysis once: no lint,
    and one attack graph per distinct query."""

    def test_one_cold_call(self, monkeypatch):
        attack_graph.cache_clear()
        for cached in (certain_answers_mod._grounding,
                       certain_answers_mod._classify_open,
                       certain_answers_mod._open_rewriting,
                       certain_answers_mod._guarded_open_rewriting_cached):
            cached.cache_clear()
        lints, built, picked = [], [], []

        def counting_lint(query, *args, **kwargs):
            lints.append(query)
            return lint_query(query, *args, **kwargs)

        for module in (engine_mod, certain_answers_mod, repro.lint):
            monkeypatch.setattr(module, "lint_query", counting_lint)
        real_init = AttackGraph.__init__

        def counting_init(self, query):
            built.append(query)
            real_init(self, query)

        monkeypatch.setattr(AttackGraph, "__init__", counting_init)
        real_pick = rewriting_mod.pick_eliminable_atom

        def recording_pick(query, graph=None):
            picked.append(query)
            return real_pick(query, graph)

        monkeypatch.setattr(rewriting_mod, "pick_eliminable_atom",
                            recording_pick)
        p = Variable("p")
        db = db_from({
            "Lives/2/1": [("ann", "ghent"), ("ann", "mons"),
                          ("bob", "ghent")],
            "Born/2/1": [("ann", "mons")],
            "Likes/2/2": [("bob", "ghent")],
        })
        q = poll_qa()
        answers = CertaintyEngine(q).certain_answers(db, (p,), "compiled")

        assert lints == []
        assert len(set(built)) == len(built), "a graph was built twice"
        classified = {OpenQuery(q, ()).boolean_form,
                      OpenQuery(q, (p,)).boolean_form}
        assert set(built) <= classified | set(picked)
        assert len(picked) > 1  # Algorithm 1 recursed
        assert answers == certain_answers(OpenQuery(q, (p,)), db, "brute")

    def test_lint_on_first_access(self):
        q = poll_qa()
        engine = CertaintyEngine(q)
        assert "lint" not in vars(engine)
        assert engine.lint == lint_query(q)
        assert engine.lint is engine.lint

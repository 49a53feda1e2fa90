"""Tests for the CertaintyEngine façade."""

import pytest

from repro.cqa.engine import CertaintyEngine, CrossValidation, certain
from repro.cqa.rewriting import NotInFO
from repro.workloads.generators import random_small_database
from repro.workloads.queries import poll_qa, q1, q3

from conftest import db_from


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

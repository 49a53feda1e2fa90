"""Unit tests for repro.core.query (sjfBCQ¬ and sjfBCQ¬≠)."""

import copy
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import repro
from repro.core.atoms import atom
from repro.core.parser import parse_query
from repro.core.query import Diseq, Query, QueryError
from repro.core.terms import Constant, PlaceholderConstant, Variable
from repro.cqa.certain_answers import OpenQuery
from repro.workloads.queries import (
    q1,
    q2,
    q3,
    q4,
    q_example32_weakly_guarded_not_guarded,
    q_hall,
)

x, y, z = Variable("x"), Variable("y"), Variable("z")


class TestConstruction:
    def test_self_join_rejected(self):
        with pytest.raises(QueryError):
            Query([atom("R", [x], [y]), atom("R", [y], [x])])

    def test_self_join_across_polarities_rejected(self):
        with pytest.raises(QueryError):
            Query([atom("R", [x], [y])], [atom("R", [y], [x])])

    def test_safety_violation_rejected(self):
        # y occurs negated but not positively.
        with pytest.raises(QueryError):
            Query([atom("R", [x])], [atom("N", [x], [y])])

    def test_safe_query_accepted(self):
        q = Query([atom("R", [x], [y])], [atom("N", [y], [x])])
        assert q.is_safe

    def test_diseq_safety_checked(self):
        d = Diseq([(z, Constant(1))])
        with pytest.raises(QueryError):
            Query([atom("R", [x], [y])], [], [d])

    def test_empty_query_allowed(self):
        q = Query()
        assert q.vars == frozenset()
        assert q.all_atoms_all_key

    def test_atoms_order(self):
        q = q1()
        assert [a.relation for a in q.atoms] == ["R", "S"]


class TestViews:
    def test_vars(self):
        assert q1().vars == {x, y}

    def test_positive_vars(self):
        q = q3()
        assert q.positive_vars == {x, y}

    def test_relations(self):
        assert q2().relations == ("R", "S", "T")

    def test_atom_for(self):
        assert q1().atom_for("S").relation == "S"

    def test_atom_for_missing(self):
        with pytest.raises(KeyError):
            q1().atom_for("Z")

    def test_is_positive_negative(self):
        q = q1()
        assert q.is_positive(q.atom_for("R"))
        assert q.is_negative(q.atom_for("S"))

    def test_non_all_key_count(self):
        assert q1().non_all_key_count == 2
        assert q2().non_all_key_count == 2  # R is all-key

    def test_all_atoms_all_key(self):
        q = Query([atom("R", [x, y])])
        assert q.all_atoms_all_key
        assert not q1().all_atoms_all_key


class TestGuardedness:
    def test_q4_not_weakly_guarded(self):
        assert not q4().has_weakly_guarded_negation

    def test_q1_guarded(self):
        # vars(S) = {x,y} ⊆ vars(R).
        assert q1().has_guarded_negation
        assert q1().has_weakly_guarded_negation

    def test_example32_weakly_guarded_not_guarded(self):
        q = q_example32_weakly_guarded_not_guarded()
        assert q.has_weakly_guarded_negation
        assert not q.has_guarded_negation

    def test_guarded_implies_weakly_guarded(self):
        for q in (q1(), q2(), q3(), q_hall(3)):
            if q.has_guarded_negation:
                assert q.has_weakly_guarded_negation

    def test_diseq_weak_guardedness(self):
        # x and y never co-occur positively: diseq (x,y) breaks WG.
        d = Diseq([(x, Constant(1)), (y, Constant(2))])
        q = Query([atom("R", [x]), atom("S", [y])], [], [d], check_safety=False)
        assert not q.has_weakly_guarded_negation
        q2_ = Query([atom("R", [x], [y])], [], [d], check_safety=False)
        assert q2_.has_weakly_guarded_negation


class TestSubstitution:
    def test_substitute_everywhere(self):
        q = q1().substitute({x: Constant(7)})
        assert x not in q.vars
        assert q.atom_for("R").key_terms == (Constant(7),)
        assert q.atom_for("S").value_terms == (Constant(7),)

    def test_substitute_diseqs(self):
        d = Diseq([(x, Constant(1))])
        q = Query([atom("R", [x], [y])], [], [d]).substitute({x: Constant(1)})
        assert q.diseqs[0].pairs == ((Constant(1), Constant(1)),)

    def test_without_positive(self):
        q = q1()
        r = q.without(q.atom_for("R"))
        assert r.positives == ()
        assert len(r.negatives) == 1

    def test_without_negative(self):
        q = q1()
        r = q.without(q.atom_for("S"))
        assert r.negatives == ()

    def test_with_diseq(self):
        d = Diseq([(x, Constant(1))])
        q = q1().with_diseq(d)
        assert d in q.diseqs

    def test_without_diseq(self):
        d = Diseq([(x, Constant(1))])
        q = q1().with_diseq(d).without_diseq(d)
        assert q.diseqs == ()


class TestDiseq:
    def test_needs_pairs(self):
        with pytest.raises(QueryError):
            Diseq([])

    def test_vars(self):
        d = Diseq([(x, Constant(1)), (Constant(2), y)])
        assert d.vars == {x, y}

    def test_ground_value_true(self):
        assert Diseq([(Constant(1), Constant(2))]).ground_value()

    def test_ground_value_false(self):
        d = Diseq([(Constant(1), Constant(1)), (Constant("a"), Constant("a"))])
        assert not d.ground_value()

    def test_ground_value_requires_ground(self):
        with pytest.raises(QueryError):
            Diseq([(x, Constant(1))]).ground_value()

    def test_substitute(self):
        d = Diseq([(x, y)]).substitute({x: Constant(1)})
        assert d.pairs == ((Constant(1), y),)

    def test_equality(self):
        assert Diseq([(x, y)]) == Diseq([(x, y)])
        assert Diseq([(x, y)]) != Diseq([(y, x)])


class TestEqualityAndRepr:
    def test_query_equality(self):
        assert q1() == q1()
        assert q1() != q2()

    def test_query_hashable(self):
        assert len({q1(), q1(), q2()}) == 2

    def test_repr_mentions_negation(self):
        assert "~" in repr(q1())


class TestHashContract:
    """Terms, schemas, atoms and queries cache their hash; equality and
    hashing must not notice."""

    TEXT = "R(x | y, 'c'), not S(y | x, 3)"

    def test_independently_built_objects_hash_equal(self):
        a, b = parse_query(self.TEXT), parse_query(self.TEXT)
        pairs = [(Variable("x"), Variable("x")),
                 (Constant("c"), Constant("c")),
                 (Constant(3), Constant(3)),
                 (a.positives[0].schema, b.positives[0].schema),
                 (a.positives[0], b.positives[0]),
                 (a.negatives[0], b.negatives[0]),
                 (a, b)]
        for left, right in pairs:
            assert left is not right
            assert left == right and hash(left) == hash(right)
        assert {a: "found"}[b] == "found"
        assert a != parse_query("R(x | y, 'c'), not S(y | x, 4)")

    def test_placeholders_for_one_variable_stay_unequal(self):
        p1, p2 = PlaceholderConstant(x), PlaceholderConstant(x)
        assert p1 == p1 and p1 != p2
        assert len({p1, p2}) == 2
        assert p1 != Constant(p1.value) and Constant(p1.value) != p1

    @pytest.mark.parametrize("clone", [
        copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
        ids=["deepcopy", "pickle"])
    def test_copies_keep_equality_and_hash(self, clone):
        q = OpenQuery(parse_query(self.TEXT), (x,)).boolean_form
        objects = [q, *q.atoms, *(t for a in q.atoms for t in a.terms)]
        hashes = [hash(obj) for obj in objects]
        copied = clone(q)
        copied_objects = [copied, *copied.atoms,
                          *(t for a in copied.atoms for t in a.terms)]
        assert copied_objects == objects
        assert [hash(obj) for obj in copied_objects] == hashes
        assert any(isinstance(t, PlaceholderConstant)
                   for t in copied_objects)

    def test_unpickled_in_another_interpreter_hashes_there(self, tmp_path):
        # A string hashes differently under another hash seed, so a
        # pickled query must not carry this interpreter's cached hash.
        q = parse_query(self.TEXT)
        hash(q)
        blob = tmp_path / "query.pickle"
        blob.write_bytes(pickle.dumps(q))
        check = (
            "import pickle, sys\n"
            "from repro.core.parser import parse_query\n"
            "q = pickle.loads(open(sys.argv[1], 'rb').read())\n"
            f"fresh = parse_query({self.TEXT!r})\n"
            "assert q == fresh and hash(q) == hash(fresh), 'stale hash'\n"
            "assert {fresh: 1}.get(q) == 1\n"
            "assert [hash(a) for a in q.atoms] == "
            "[hash(a) for a in fresh.atoms]\n"
        )
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        src = pathlib.Path(repro.__file__).parent.parent
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        result = subprocess.run([sys.executable, "-c", check, str(blob)],
                                env=env, capture_output=True, text=True,
                                timeout=60)
        assert result.returncode == 0, result.stderr

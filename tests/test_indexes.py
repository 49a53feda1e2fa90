"""Tests for the lazy column indexes on Database."""

import random

import pytest

from repro.db.database import Database
from repro.core.atoms import RelationSchema
from repro.cqa.rewriting import consistent_rewriting
from repro.fo.compile import plan_cache
from repro.workloads import random_poll_database
from repro.workloads.queries import poll_qa, poll_qb

from conftest import db_from


class TestIndex:
    def test_index_groups_rows(self):
        db = db_from({"R/2/1": [(1, "a"), (1, "b"), (2, "a")]})
        idx = db.index("R", (0,))
        assert idx[(1,)] == {(1, "a"), (1, "b")}
        assert idx[(2,)] == {(2, "a")}

    def test_multi_position_index(self):
        db = db_from({"R/3/1": [(1, "a", True), (1, "a", False),
                                (1, "b", True)]})
        idx = db.index("R", (0, 1))
        assert idx[(1, "a")] == {(1, "a", True), (1, "a", False)}

    def test_index_cached(self):
        db = db_from({"R/2/1": [(1, "a")]})
        assert db.index("R", (0,)) is db.index("R", (0,))

    def test_index_invalidated_on_add(self):
        db = db_from({"R/2/1": [(1, "a")]})
        before = db.index("R", (0,))
        db.add("R", (1, "b"))
        after = db.index("R", (0,))
        assert after is not before
        assert after[(1,)] == {(1, "a"), (1, "b")}

    def test_index_invalidated_on_discard(self):
        db = db_from({"R/2/1": [(1, "a"), (1, "b")]})
        db.index("R", (0,))
        db.discard("R", (1, "a"))
        assert db.index("R", (0,))[(1,)] == {(1, "b")}

    def test_duplicate_add_does_not_invalidate(self):
        db = db_from({"R/2/1": [(1, "a")]})
        before = db.index("R", (0,))
        db.add("R", (1, "a"))  # no-op
        assert db.index("R", (0,)) is before

    def test_index_invalidated_on_discard_all(self):
        db = db_from({"R/2/1": [(1, "a"), (1, "b"), (2, "a")]})
        before = db.index("R", (0,))
        db.discard_all("R", [(1, "a"), (2, "a"), (9, "z")])
        after = db.index("R", (0,))
        assert after is not before
        assert after == {(1,): frozenset({(1, "b")})}

    def test_lookup_not_stale_after_discard(self):
        # Regression: a lookup served from a pre-mutation index must not
        # resurrect discarded rows.
        db = db_from({"R/2/1": [(1, "a"), (1, "b")]})
        assert db.lookup("R", {0: 1}) == {(1, "a"), (1, "b")}
        db.discard("R", (1, "a"))
        assert db.lookup("R", {0: 1}) == {(1, "b")}
        db.discard_all("R", [(1, "b")])
        assert db.lookup("R", {0: 1}) == frozenset()

    def test_clear_relation_invalidates(self):
        db = db_from({"R/2/1": [(1, "a")]})
        db.index("R", (0,))
        db.clear_relation("R")
        assert db.index("R", (0,)) == {}
        assert db.relations() == ("R",)

    def test_lookup_not_stale_after_clear_relation(self):
        db = db_from({"R/2/1": [(1, "a"), (2, "b")]})
        assert db.lookup("R", {0: 2}) == {(2, "b")}
        db.clear_relation("R")
        assert db.lookup("R", {0: 2}) == frozenset()
        db.add("R", (2, "c"))
        assert db.lookup("R", {0: 2}) == {(2, "c")}

    def test_empty_relation_index(self):
        db = Database([RelationSchema("R", 2, 1)])
        assert db.index("R", (0,)) == {}


class TestLookup:
    def test_lookup_with_bindings(self):
        db = db_from({"R/3/1": [(1, "a", 9), (1, "b", 9), (2, "a", 7)]})
        assert db.lookup("R", {0: 1, 1: "a"}) == {(1, "a", 9)}
        assert db.lookup("R", {2: 9}) == {(1, "a", 9), (1, "b", 9)}

    def test_lookup_no_bindings_returns_all(self):
        db = db_from({"R/2/1": [(1, "a"), (2, "b")]})
        assert db.lookup("R", {}) == db.facts("R")

    def test_lookup_miss(self):
        db = db_from({"R/2/1": [(1, "a")]})
        assert db.lookup("R", {0: 99}) == frozenset()

    def test_lookup_agrees_with_scan(self, rng):
        db = Database([RelationSchema("R", 3, 1)])
        for _ in range(40):
            db.add("R", (rng.randint(0, 3), rng.randint(0, 3),
                         rng.randint(0, 3)))
        for _ in range(30):
            bindings = {
                i: rng.randint(0, 3)
                for i in range(3) if rng.random() < 0.5
            }
            expected = frozenset(
                row for row in db.facts("R")
                if all(row[i] == v for i, v in bindings.items())
            )
            assert db.lookup("R", bindings) == expected

    def test_lookup_after_interleaved_mutations(self, rng):
        db = Database([RelationSchema("R", 2, 1)])
        rows = set()
        for step in range(60):
            if rng.random() < 0.7 or not rows:
                row = (rng.randint(0, 4), rng.randint(0, 4))
                db.add("R", row)
                rows.add(row)
            else:
                row = rng.choice(sorted(rows))
                db.discard("R", row)
                rows.discard(row)
            value = rng.randint(0, 4)
            expected = frozenset(r for r in rows if r[0] == value)
            assert db.lookup("R", {0: value}) == expected

    def test_whole_row_lookup_is_a_membership_test(self, rng):
        db = Database([RelationSchema("R", 3, 1)])
        for _ in range(40):
            db.add("R", tuple(rng.randint(0, 3) for _ in range(3)))
        probes = [tuple(rng.randint(0, 3) for _ in range(3))
                  for _ in range(30)]
        # Bindings in any order name the same row.
        got = [db.lookup("R", dict(reversed(list(enumerate(row)))))
               for row in probes]
        assert not db._indexes
        assert all(isinstance(rows, frozenset) for rows in got)
        index = db.index("R", (0, 1, 2))
        assert got == [index.get(row, frozenset()) for row in probes]
        row = next(iter(db.facts("R")))
        db.discard("R", row)
        assert db.lookup("R", dict(enumerate(row))) == frozenset()


class TestPlanIndexes:
    @pytest.mark.parametrize("query", [poll_qa(), poll_qb()],
                             ids=["poll_qa", "poll_qb"])
    def test_compiled_probe_builds_no_whole_row_index(self, query):
        # Whole-row indexes hold one single-row set per fact and serve
        # only membership tests and full scans, which the fact set
        # answers directly.
        db = random_poll_database(n_people=200, n_towns=10,
                                  rng=random.Random(3))
        compiled = plan_cache.get_or_compile(consistent_rewriting(query), db)
        holds = compiled.holds(db)
        assert compiled.rows(db) == (frozenset({()}) if holds
                                     else frozenset())
        whole = [key for key in db._indexes
                 if len(key[1]) == db.schemas[key[0]].arity]
        assert whole == []

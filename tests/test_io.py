"""Tests for database JSON I/O."""

import json

import pytest

from repro.cli import main
from repro.db.io import (
    database_from_dict,
    database_to_dict,
    load_database_file,
    save_database,
)
from repro.workloads.poll import paper_flavoured_poll_database

from conftest import db_from


class TestRoundTrip:
    def test_simple(self, tmp_path):
        db = db_from({"R/2/1": [(1, 2), ("a", "b")], "S/1/1": [("t",)]})
        path = tmp_path / "db.json"
        save_database(db, path)
        loaded = load_database_file(path)
        assert loaded == db
        # A boolean is not a value (True == 1 would merge facts): it is
        # refused on the way out and on the way in.
        db.add("S", (True,))
        with pytest.raises(TypeError, match="True"):
            save_database(db, path)
        with pytest.raises(ValueError, match="True"):
            database_from_dict({"relations": {
                "S": {"arity": 1, "key": 1, "facts": [["t"], [True]]}}})

    def test_tuple_values(self, tmp_path):
        db = db_from({"R/2/1": [(("edge", "a", "b"), 1)]})
        path = tmp_path / "db.json"
        save_database(db, path)
        assert load_database_file(path) == db

    def test_poll_database(self, tmp_path):
        db = paper_flavoured_poll_database()
        path = tmp_path / "poll.json"
        save_database(db, path)
        loaded = load_database_file(path)
        assert loaded == db
        assert loaded.schemas["Likes"].is_all_key

    def test_empty_relation_preserved(self, tmp_path):
        db = db_from({"R/2/1": []})
        path = tmp_path / "db.json"
        save_database(db, path)
        loaded = load_database_file(path)
        assert loaded.relations() == ("R",)
        assert loaded.facts("R") == frozenset()


class TestDictFormat:
    def test_shape(self):
        db = db_from({"R/2/1": [(1, 2)]})
        data = database_to_dict(db)
        assert data["relations"]["R"]["arity"] == 2
        assert data["relations"]["R"]["key"] == 1
        assert data["relations"]["R"]["facts"] == [[1, 2]]

    def test_json_serializable(self):
        db = db_from({"R/2/1": [(("pair", 1, 2), "x")]})
        json.dumps(database_to_dict(db))

    def test_missing_relations_key_rejected(self):
        with pytest.raises(ValueError):
            database_from_dict({})

    def test_unsupported_values_rejected(self):
        db = db_from({"R/1/1": []})
        db.add("R", (3.14,))
        with pytest.raises(TypeError):
            database_to_dict(db)

    def test_deterministic_output(self):
        db = db_from({"R/2/1": [(2, 1), (1, 2)]})
        assert database_to_dict(db) == database_to_dict(db.copy())


class TestValueDomain:
    """A value is a string, an integer that is not a boolean, or a list
    of values; the JSON boundaries refuse anything else."""

    def test_boolean_beside_integer_refused(self):
        # True == 1 in Python: accepted, ("a", true) would merge into
        # ("a", 1), block a would hold one fact, and every method would
        # answer {a, b} for R(x | y), S(y), although the repair keeping
        # (a, true) refutes a.
        data = {"relations": {
            "R": {"arity": 2, "key": 1,
                  "facts": [["a", 1], ["a", True], ["b", 1]]},
            "S": {"arity": 1, "key": 1, "facts": [[1]]},
        }}
        with pytest.raises(ValueError, match="True"):
            database_from_dict(data)

    @pytest.mark.parametrize("value", [None, 1.5, {"k": 1}, [1, [False]]])
    def test_other_values_refused(self, value):
        data = {"relations": {
            "R": {"arity": 2, "key": 1, "facts": [["z", value]]}}}
        with pytest.raises(ValueError, match="unsupported value"):
            database_from_dict(data)

    def test_row_must_be_a_list(self):
        data = {"relations": {"R": {"arity": 2, "key": 1, "facts": ["ab"]}}}
        with pytest.raises(ValueError, match="JSON array"):
            database_from_dict(data)

    def test_cli_reports_a_refused_value(self, tmp_path, capsys):
        path = tmp_path / "db.json"
        path.write_text(json.dumps({"relations": {
            "R": {"arity": 2, "key": 1, "facts": [["a", 1.5]]},
            "S": {"arity": 1, "key": 1, "facts": []},
        }}))
        assert main(["certain", "R(x | y), S(y)", "--db", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unsupported value 1.5")

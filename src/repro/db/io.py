"""JSON serialization for databases.

Format::

    {
      "relations": {
        "R": {"arity": 2, "key": 1,
              "facts": [["ann", "mons"], ["ann", "paris"]]},
        ...
      }
    }

A value is a string, an integer, or a (nested) list of values — lists
become tuples on load, mirroring the structured constants used by the
reduction gadgets.  Booleans and ``null`` are refused: Python holds
``True == 1``, so a boolean would merge with an integer fact.  The
serve wire and the store's view manifests use this same codec.
"""

from __future__ import annotations

import json
import pathlib
from typing import IO, Any, Iterable, List, Tuple, Union

from ..core.atoms import RelationSchema
from .database import Database

PathLike = Union[str, pathlib.Path]


def value_from_json(value: Any) -> Any:
    """A decoded JSON value as a database value (lists become tuples);
    :class:`ValueError` names anything outside the domain."""
    kind = type(value)
    if kind is str or kind is int:
        return value
    if kind is list:
        return tuple(value_from_json(v) for v in value)
    raise ValueError(f"unsupported value {value!r}: a value is a string, "
                     "an integer or a list of values")


def value_to_json(value: Any) -> Any:
    """A database value as a JSON-ready value (tuples become lists)."""
    kind = type(value)
    if kind is str or kind is int:
        return value
    if kind is tuple:
        return [value_to_json(v) for v in value]
    raise TypeError(f"unsupported value in database: {value!r}")


def row_from_json(row: Any) -> Tuple:
    """A decoded JSON row (an array of values) as a database row."""
    if type(row) is not list:
        raise ValueError(f"a row must be a JSON array, got {row!r}")
    return value_from_json(row)


def rows_to_json(rows: Iterable[Tuple]) -> List[List[Any]]:
    """The canonical JSON form of a set of rows: converted values, sorted
    by ``repr`` (a total order that depends only on the set)."""
    return sorted(map(value_to_json, rows), key=repr)


def database_to_dict(db: Database) -> dict:
    """A JSON-ready dict for *db*."""
    relations = {}
    for name in db.relations():
        schema = db.schemas[name]
        relations[name] = {
            "arity": schema.arity,
            "key": schema.key_size,
            "facts": rows_to_json(db.facts(name)),
        }
    return {"relations": relations}


def database_from_dict(data: dict) -> Database:
    """Rebuild a database from :func:`database_to_dict` output."""
    if "relations" not in data:
        raise ValueError("database JSON needs a 'relations' key")
    db = Database()
    for name, spec in data["relations"].items():
        schema = RelationSchema(name, int(spec["arity"]), int(spec["key"]))
        db.add_relation(schema)
        for row in spec.get("facts", []):
            db.add(name, row_from_json(row))
    return db


def save_database(db: Database, path: PathLike) -> None:
    """Write *db* to a JSON file."""
    pathlib.Path(path).write_text(
        json.dumps(database_to_dict(db), indent=2, sort_keys=True) + "\n"
    )


def load_database_file(path: PathLike) -> Database:
    """Read a database from a JSON file."""
    return database_from_dict(json.loads(pathlib.Path(path).read_text()))


def dump_database(db: Database, fp: IO[str]) -> None:
    """Write *db* as JSON to an open file object."""
    json.dump(database_to_dict(db), fp, indent=2, sort_keys=True)


def parse_database(fp: IO[str]) -> Database:
    """Read a database from an open JSON file object."""
    return database_from_dict(json.load(fp))

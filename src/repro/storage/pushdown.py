"""SQL pushdown: certain answers as one query over a sqlite mirror.

The paper's practicality claim — a consistent first-order rewriting is
a single SQL query over the *inconsistent* database — runs natively
here: a store keeps ``mirror.sqlite`` delta-consistent by subscribing
to the same changelog the WAL rides, and :mod:`repro.storage.sqlgen`
compiles the verified plan IR straight to one parameterized SELECT
that sqlite executes end-to-end.  No per-call loading, no per-row
Python decode: answer rows come back as dictionary codes and land in
``array('q')`` columns (:meth:`ColumnarRelation.from_code_rows`).

Mirror layout (format ``2``):

* one INTEGER table per relation, columns ``c0..c{n-1}`` holding
  :class:`~repro.columnar.dictionary.ValueDictionary` codes, with a
  full-tuple ``WITHOUT ROWID`` primary key (key columns first, so the
  clustered index covers key-prefix lookups) plus a non-key suffix
  index;
* ``repro_dict`` — the persisted dictionary, verified (and replayed
  into the in-process dictionary) on attach so codes stay stable
  across process restarts;
* ``repro_adom`` — the refcounted active domain, maintained from the
  same deltas, which is what lets ``Adom*`` plans push down instead of
  re-deriving the domain per query;
* ``repro_meta`` — changelog clock + format marker.

Delta application, dictionary growth, adom refcounts and the clock
update share one sqlite transaction, so the file is never at an
in-between version: a crash rolls back to the previous clock and the
next attach rebuilds.

Any other database gets a private ``:memory:`` mirror on its first
``method="sql"`` call, kept in step by the same changelog
subscription, so ``sql`` runs the plan-IR compiler everywhere.

Routing: :func:`prefer_sql` is the cost gate ``method="auto"`` consults
*before* :func:`repro.columnar.prefer_columnar`.  SQL wins when the
database is a persistent store (plain in-memory databases are never
rerouted) holding at least :data:`SQL_MIN_FACTS` facts.
"""

from __future__ import annotations

import base64
import pathlib
import pickle
import sqlite3
import threading
from collections import Counter, OrderedDict
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from ..columnar.dictionary import columnar_store
from ..columnar.relation import ColumnarRelation
from ..db.changelog import Changelog
from ..db.database import Database
from ..fo.sql import decode_value, encode_value, table_name
from .sqlgen import ADOM_TABLE, compile_plan, plan_relations
from .stats import STATS

__all__ = ["SQLiteMirror", "sql_mirror", "mirror_capable", "prefer_sql",
           "native_sql_answers", "native_sql_holds", "SQL_MIN_FACTS",
           "SQL_STMT_CACHE_SIZE", "MIRROR_FORMAT"]

MIRROR_FILE = "mirror.sqlite"
_MIRROR_ATTR = "_sql_mirror"
#: Serializes lazy attaches: two server threads racing on a database's
#: first ``sql`` call must not both subscribe a mirror.
_ATTACH_LOCK = threading.Lock()
_META_TABLE = "repro_meta"
_DICT_TABLE = "repro_dict"
_INTERNAL_TABLES = frozenset((_META_TABLE, _DICT_TABLE, ADOM_TABLE))

#: Bumped whenever the on-disk layout changes; a mismatch (including
#: any pre-integer TEXT mirror) forces one full rebuild.
MIRROR_FORMAT = "2"

#: Below this many facts the per-query overhead of sqlite (statement
#: lookup, bulk decode) beats the in-memory executors, so ``auto``
#: keeps a store off the mirror.
SQL_MIN_FACTS = 4096

#: Compiled-statement LRU entries per mirror.
SQL_STMT_CACHE_SIZE = 64


def _dict_text(value: object) -> str:
    """Serialize one dictionary value for ``repro_dict``.

    :func:`repro.fo.sql.encode_value` covers the workload types; query
    constants of other types fall back to pickle under a ``p:`` sigil
    (``encode_value`` never emits it).
    """
    try:
        return encode_value(value)
    except TypeError:
        return "p:" + base64.b64encode(pickle.dumps(value)).decode("ascii")


def _dict_value(text: str) -> object:
    if text.startswith("p:"):
        return pickle.loads(base64.b64decode(text[2:]))
    return decode_value(text)


class SQLiteMirror:
    """A sqlite file kept delta-consistent with one database.

    Attach verifies three things before trusting the file: the format
    marker, the changelog clock, and that the persisted dictionary
    replays into the in-process :class:`ValueDictionary` with identical
    codes (a fresh process replays it verbatim; a process whose
    dictionary diverged — e.g. columnar ran first with a different
    first-seen order — fails the check).  Any mismatch triggers one
    full rebuild, after which queries push down with zero per-call
    loading.
    """

    def __init__(self, db: Database, path: pathlib.Path):
        self.db = db
        self.path = path
        # Shared across a server's worker threads: Python's sqlite3 is
        # built serialized (threadsafety 3), and the mirror additionally
        # guards every statement + fetch + stmt-cache touch with one
        # re-entrant lock so a delta transaction is never interleaved
        # with a query on the same connection.
        self.conn = sqlite3.connect(str(path), check_same_thread=False)
        self._lock = threading.RLock()
        self.dictionary = columnar_store(db).dictionary
        self._known: set = set()
        self._dict_rows = 0
        self._stmt_cache: "OrderedDict[Tuple, object]" = OrderedDict()
        self._ensure_meta()
        if (self._meta("format") != MIRROR_FORMAT
                or self._meta_clock() != db.clock
                or not self._load_dictionary()):
            self.rebuild()
        else:
            self._known = set(db.schemas)
        db.subscribe(self._apply)

    # -- metadata ------------------------------------------------------

    def _ensure_meta(self) -> None:
        cur = self.conn.cursor()
        cur.execute(
            f"CREATE TABLE IF NOT EXISTS {_META_TABLE} "
            "(key TEXT PRIMARY KEY, value TEXT)")
        cur.execute(
            f"CREATE TABLE IF NOT EXISTS {_DICT_TABLE} "
            "(code INTEGER PRIMARY KEY, value TEXT NOT NULL)")
        cur.execute(
            f"CREATE TABLE IF NOT EXISTS {ADOM_TABLE} "
            "(code INTEGER PRIMARY KEY, refs INTEGER NOT NULL)")
        self.conn.commit()

    def _meta(self, key: str) -> Optional[str]:
        row = self.conn.execute(
            f"SELECT value FROM {_META_TABLE} WHERE key = ?", (key,)
        ).fetchone()
        return row[0] if row is not None else None

    def _set_meta(self, key: str, value: str) -> None:
        self.conn.execute(
            f"INSERT OR REPLACE INTO {_META_TABLE} VALUES (?, ?)",
            (key, value))

    def _meta_clock(self) -> Optional[int]:
        raw = self._meta("clock")
        return int(raw) if raw is not None else None

    @property
    def clock(self) -> Optional[int]:
        return self._meta_clock()

    # -- dictionary persistence ----------------------------------------

    def _load_dictionary(self) -> bool:
        """Replay ``repro_dict`` into the in-process dictionary.

        True iff every persisted ``(code, value)`` pair lands on the
        same code — the condition under which the mirror's integer
        columns are meaningful to this process.
        """
        rows = self.conn.execute(
            f"SELECT code, value FROM {_DICT_TABLE} ORDER BY code"
        ).fetchall()
        encode = self.dictionary.encode
        for code, text in rows:
            try:
                value = _dict_value(text)
            except Exception:
                return False
            if encode(value) != code:
                return False
        self._dict_rows = len(rows)
        return True

    def _persist_dict(self, cur: sqlite3.Cursor) -> None:
        """Append dictionary codes assigned since the last commit."""
        values = self.dictionary.values
        if self._dict_rows < len(values):
            cur.executemany(
                f"INSERT OR REPLACE INTO {_DICT_TABLE} VALUES (?, ?)",
                [(code, _dict_text(values[code]))
                 for code in range(self._dict_rows, len(values))])
            self._dict_rows = len(values)

    # -- schema --------------------------------------------------------

    def _create_table(self, cur: sqlite3.Cursor, name: str) -> None:
        schema = self.db.schemas[name]
        cols = ", ".join(f"c{i} INTEGER NOT NULL"
                         for i in range(schema.arity))
        pk = ", ".join(f"c{i}" for i in range(schema.arity))
        cur.execute(
            f"CREATE TABLE IF NOT EXISTS {table_name(name)} "
            f"({cols}, PRIMARY KEY ({pk})) WITHOUT ROWID")
        if schema.key_size < schema.arity:
            suffix = ", ".join(f"c{i}" for i in range(schema.key_size,
                                                      schema.arity))
            cur.execute(
                f"CREATE INDEX IF NOT EXISTS {table_name(name + '__suffix')} "
                f"ON {table_name(name)} ({suffix})")
        self._known.add(name)

    def _ensure_table(self, cur: sqlite3.Cursor, name: str) -> None:
        if name not in self._known:
            self._create_table(cur, name)

    def ensure_tables(self, names: Iterable[str]) -> None:
        """Create mirror tables for schema-only relations.

        ``add_relation`` emits no changelog, so a relation declared
        after attach has no table until its first delta; a native query
        referencing it must find the (empty) table.
        """
        with self._lock:
            missing = [n for n in names
                       if n not in self._known and n in self.db.schemas]
            if missing:
                cur = self.conn.cursor()
                for name in missing:
                    self._create_table(cur, name)
                self.conn.commit()

    # -- synchronization -----------------------------------------------

    def rebuild(self) -> None:
        """Drop and reload every relation at the database's clock."""
        with self._lock:
            self._rebuild()

    def _rebuild(self) -> None:
        cur = self.conn.cursor()
        tables = [
            row[0] for row in cur.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'")
            if row[0] not in _INTERNAL_TABLES
        ]
        for table in tables:
            cur.execute(f'DROP TABLE IF EXISTS "{table}"')
        cur.execute(f"DELETE FROM {_DICT_TABLE}")
        cur.execute(f"DELETE FROM {ADOM_TABLE}")
        self._dict_rows = 0
        self._known = set()
        self._stmt_cache.clear()
        encode = self.dictionary.encode
        adom: Counter = Counter()
        for name in self.db.schemas:
            self._create_table(cur, name)
        for name in self.db.relations():
            arity = self.db.schemas[name].arity
            placeholders = ", ".join("?" for _ in range(arity))
            coded = [tuple(encode(v) for v in row)
                     for row in self.db.facts(name)]
            for row in coded:
                adom.update(row)
            cur.executemany(
                f"INSERT OR IGNORE INTO {table_name(name)} "
                f"VALUES ({placeholders})", coded)
        if adom:
            cur.executemany(
                f"INSERT INTO {ADOM_TABLE} VALUES (?, ?)",
                sorted(adom.items()))
        self._persist_dict(cur)
        self._set_meta("clock", str(self.db.clock))
        self._set_meta("format", MIRROR_FORMAT)
        cur.execute("ANALYZE")
        self.conn.commit()
        STATS["pushdown"]["mirror_rebuilds"] += 1

    def _apply(self, log: Changelog) -> None:
        """Changelog listener: one batch, one sqlite transaction.

        ``Changelog`` deltas carry the *net* effect of a batch —
        inserted rows were absent before it, deleted rows present — so
        per-occurrence refcounting keeps ``repro_adom`` exact.
        """
        with self._lock:
            self._apply_locked(log)

    def _apply_locked(self, log: Changelog) -> None:
        cur = self.conn.cursor()
        encode = self.dictionary.encode
        rows = 0
        adom: Counter = Counter()
        for name, delta in log.deltas.items():
            self._ensure_table(cur, name)
            arity = self.db.schemas[name].arity
            table = table_name(name)
            if delta.deleted:
                coded = [tuple(encode(v) for v in row)
                         for row in delta.deleted]
                for row in coded:
                    adom.subtract(row)
                where = " AND ".join(f"c{i} = ?" for i in range(arity))
                cur.executemany(f"DELETE FROM {table} WHERE {where}", coded)
                rows += len(coded)
            if delta.inserted:
                coded = [tuple(encode(v) for v in row)
                         for row in delta.inserted]
                for row in coded:
                    adom.update(row)
                placeholders = ", ".join("?" for _ in range(arity))
                cur.executemany(
                    f"INSERT OR IGNORE INTO {table} "
                    f"VALUES ({placeholders})", coded)
                rows += len(coded)
        changes = [(code, n) for code, n in adom.items() if n]
        if changes:
            cur.executemany(
                f"INSERT INTO {ADOM_TABLE} VALUES (?, ?) "
                "ON CONFLICT(code) DO UPDATE SET "
                "refs = refs + excluded.refs", changes)
            cur.execute(f"DELETE FROM {ADOM_TABLE} WHERE refs <= 0")
            STATS["pushdown"]["adom_delta_rows"] += len(changes)
        self._persist_dict(cur)
        self._set_meta("clock", str(log.version))
        self.conn.commit()
        STATS["pushdown"]["mirror_delta_rows"] += rows

    def refresh_stats(self) -> None:
        """Re-run ``ANALYZE`` (the store calls this at checkpoint)."""
        with self._lock:
            self.conn.execute("ANALYZE")
            self.conn.commit()

    # -- native execution ----------------------------------------------

    def _statement(self, compiled, probe: bool):
        # Keyed like the plan cache: the plan *object* (plans are
        # interned per (formula, free, schema signature) by the LRU
        # plan cache, and holding it as a key also pins it alive, so a
        # recycled id() can never alias a different plan), plus the
        # schema count so a post-attach ``add_relation`` recompiles
        # scans that previously compiled to the empty relation.
        key = (compiled.plan, probe, len(self.db.schemas))
        hit = self._stmt_cache.get(key)
        if hit is not None:
            self._stmt_cache.move_to_end(key)
            STATS["pushdown"]["stmt_cache_hits"] += 1
            return hit
        STATS["pushdown"]["stmt_cache_misses"] += 1
        stmt = compile_plan(compiled.plan, self.db.schemas,
                            compiled.constants, probe=probe)
        self._stmt_cache[key] = stmt
        while len(self._stmt_cache) > SQL_STMT_CACHE_SIZE:
            self._stmt_cache.popitem(last=False)
        return stmt

    def _execute(self, compiled, probe: bool) -> sqlite3.Cursor:
        self.ensure_tables(plan_relations(compiled.plan))
        stmt = self._statement(compiled, probe)
        encode = self.dictionary.encode
        params = [encode(v) for v in stmt.params]
        return self.conn.execute(stmt.sql, params)

    def holds(self, compiled) -> bool:
        """Run the boolean probe form."""
        with self._lock:
            return bool(self._execute(compiled, probe=True).fetchone()[0])

    def answers(self, compiled) -> FrozenSet[Tuple]:
        """Run the answer form, decoding code columns in bulk."""
        if not compiled.free:
            return frozenset({()}) if self.holds(compiled) else frozenset()
        with self._lock:
            cur = self._execute(compiled, probe=False)
            batch = ColumnarRelation.from_code_rows(compiled.free, cur)
        return frozenset(batch.to_rows(self.dictionary))

    # -- introspection -------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Mirror-local facts for ``repro db stats``."""
        tables: Dict[str, Dict[str, int]] = {}
        with self._lock:
            for name in sorted(self._known):
                rows = self.conn.execute(
                    f"SELECT COUNT(*) FROM {table_name(name)}").fetchone()[0]
                indexes = self.conn.execute(
                    "SELECT COUNT(*) FROM sqlite_master "
                    "WHERE type = 'index' AND tbl_name = ?", (name,)
                ).fetchone()[0]
                tables[name] = {"rows": rows, "indexes": indexes}
            adom_values = self.conn.execute(
                f"SELECT COUNT(*) FROM {ADOM_TABLE}").fetchone()[0]
        pushdown = STATS["pushdown"]
        lookups = (pushdown["stmt_cache_hits"]
                   + pushdown["stmt_cache_misses"])
        return {
            "path": str(self.path),
            "format": self._meta("format"),
            "clock": self._meta_clock(),
            "tables": tables,
            "adom_values": adom_values,
            "dictionary_codes": self._dict_rows,
            "stmt_cache": {
                "entries": len(self._stmt_cache),
                "capacity": SQL_STMT_CACHE_SIZE,
                "hits": pushdown["stmt_cache_hits"],
                "misses": pushdown["stmt_cache_misses"],
                "hit_rate": (round(pushdown["stmt_cache_hits"] / lookups, 4)
                             if lookups else None),
            },
        }

    def close(self) -> None:
        try:
            self.db.unsubscribe(self._apply)
        except Exception:  # pragma: no cover - already unsubscribed
            pass
        with self._lock:
            self.conn.close()


def mirror_capable(db: Database) -> bool:
    """Is ``db`` an *open* persistent store (a file-backed mirror)?"""
    return bool(getattr(db, "is_open", False)) and hasattr(db, "storage_status")


def sql_mirror(db: Database) -> SQLiteMirror:
    """The database's mirror, attached lazily: ``mirror.sqlite`` in an
    open store's directory, a private ``:memory:`` file otherwise."""
    mirror = getattr(db, _MIRROR_ATTR, None)
    if mirror is None:
        with _ATTACH_LOCK:
            mirror = getattr(db, _MIRROR_ATTR, None)
            if mirror is None:
                path = (pathlib.Path(db.path) / MIRROR_FILE
                        if mirror_capable(db) else pathlib.Path(":memory:"))
                mirror = SQLiteMirror(db, path)
                setattr(db, _MIRROR_ATTR, mirror)
    return mirror


def native_sql_answers(compiled, db: Database) -> FrozenSet[Tuple]:
    """Answer rows of a compiled query, entirely inside sqlite."""
    result = sql_mirror(db).answers(compiled)
    STATS["pushdown"]["native_sql"] += 1
    return result


def native_sql_holds(compiled, db: Database) -> bool:
    """Boolean certainty probe inside sqlite."""
    result = sql_mirror(db).holds(compiled)
    STATS["pushdown"]["native_sql"] += 1
    return result


def prefer_sql(compiled, db: Database) -> bool:
    """Should ``method="auto"`` push this run down to the mirror?

    Checked before :func:`repro.columnar.prefer_columnar`.  Two gates:
    the database must be an open persistent store (plain in-memory
    databases keep their current routing untouched), holding at least
    :data:`SQL_MIN_FACTS` facts.
    """
    if not mirror_capable(db):
        return False
    if db.size() < SQL_MIN_FACTS:
        STATS["pushdown"]["fallback_small"] += 1
        return False
    return True

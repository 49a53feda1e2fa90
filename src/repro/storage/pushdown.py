"""SQL pushdown: certain answers as one query over a sqlite mirror.

The paper's practicality claim — a consistent first-order rewriting is
a single SQL query over the *inconsistent* database — runs natively
here, behind ``method="sql"``: a database's first such call in a
process builds a private in-memory sqlite mirror of its facts, which
then stays delta-consistent by subscribing to the database's
changelog, and :mod:`repro.storage.sqlgen` compiles the verified plan
IR straight to one parameterized SELECT that sqlite executes
end-to-end.  No per-call loading, no per-row Python decode: answer rows
come back as dictionary codes and land in int columns
(:meth:`ColumnarRelation.from_code_rows`).  A plan with an ``Adom*``
node enumerates the active domain, which the mirror does not keep: it
runs on the row executor (``CompiledQuery.rows``/``holds``) instead.

Mirror layout: one INTEGER table per relation, columns
``c0..c{n-1}`` holding the database's
:class:`~repro.columnar.dictionary.ValueDictionary` codes, with a
full-tuple ``WITHOUT ROWID`` primary key (key columns first, so the
clustered index covers key-prefix lookups) plus a non-key suffix
index.

The mirror is derived state and never touches disk: a persistent store
keeps only its snapshots, WAL segments and view manifests, and a
reopened store builds a fresh mirror on its next ``sql`` call.

Routing: ``method="auto"`` never pushes down (see :func:`prefer_sql`),
so a database that only serves ``auto`` reads never builds a mirror
and its commits pay no sqlite transaction.
"""

from __future__ import annotations

import sqlite3
import threading
from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, Tuple

from ..columnar.dictionary import columnar_store
from ..columnar.relation import ColumnarRelation
from ..db.changelog import Changelog
from ..db.database import BatchError, Database
from ..fo.sql import table_name
from .sqlgen import compile_plan, plan_relations
from .stats import STATS

__all__ = ["SQLiteMirror", "sql_mirror", "prefer_sql",
           "native_sql_answers", "native_sql_holds",
           "SQL_STMT_CACHE_SIZE"]

_MIRROR_ATTR = "_sql_mirror"
#: Serializes lazy attaches: two server threads racing on a database's
#: first ``sql`` call must not both subscribe a mirror.
_ATTACH_LOCK = threading.Lock()

#: Compiled-statement LRU entries per mirror.
SQL_STMT_CACHE_SIZE = 64


class SQLiteMirror:
    """An in-memory sqlite copy of one database, kept delta-consistent.

    Built in full once, at construction; from then on every changelog
    batch is applied as one sqlite transaction, so queries push down
    with zero per-call loading.
    """

    def __init__(self, db: Database):
        self.db = db
        # Shared across a server's worker threads: Python's sqlite3 is
        # built serialized (threadsafety 3), and the mirror additionally
        # guards every statement + fetch + stmt-cache touch with one
        # re-entrant lock so a delta transaction is never interleaved
        # with a query on the same connection.
        self.conn = sqlite3.connect(":memory:", check_same_thread=False)
        self._lock = threading.RLock()
        self.dictionary = columnar_store(db).dictionary
        self._known: set = set()
        self._stmt_cache: "OrderedDict[Tuple, object]" = OrderedDict()
        self._build()
        db.subscribe(self._apply)

    # -- schema --------------------------------------------------------

    def _create_table(self, cur: sqlite3.Cursor, name: str) -> None:
        schema = self.db.schemas[name]
        cols = ", ".join(f"c{i} INTEGER NOT NULL"
                         for i in range(schema.arity))
        pk = ", ".join(f"c{i}" for i in range(schema.arity))
        cur.execute(
            f"CREATE TABLE {table_name(name)} "
            f"({cols}, PRIMARY KEY ({pk})) WITHOUT ROWID")
        if schema.key_size < schema.arity:
            suffix = ", ".join(f"c{i}" for i in range(schema.key_size,
                                                      schema.arity))
            cur.execute(
                f"CREATE INDEX {table_name(name + '__suffix')} "
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

    def _build(self) -> None:
        """Load every relation at the database's clock."""
        cur = self.conn.cursor()
        encode = self.dictionary.encode
        for name in self.db.schemas:
            self._create_table(cur, name)
        for name in self.db.relations():
            arity = self.db.schemas[name].arity
            placeholders = ", ".join("?" for _ in range(arity))
            coded = [tuple(encode(v) for v in row)
                     for row in self.db.facts(name)]
            cur.executemany(
                f"INSERT OR IGNORE INTO {table_name(name)} "
                f"VALUES ({placeholders})", coded)
        cur.execute("ANALYZE")
        self.conn.commit()
        STATS["pushdown"]["mirror_rebuilds"] += 1

    def _apply(self, log: Changelog) -> None:
        """Changelog listener: one batch, one sqlite transaction."""
        with self._lock:
            self._apply_locked(log)

    def _apply_locked(self, log: Changelog) -> None:
        cur = self.conn.cursor()
        encode = self.dictionary.encode
        rows = 0
        for name, delta in log.deltas.items():
            self._ensure_table(cur, name)
            arity = self.db.schemas[name].arity
            table = table_name(name)
            if delta.deleted:
                coded = [tuple(encode(v) for v in row)
                         for row in delta.deleted]
                where = " AND ".join(f"c{i} = ?" for i in range(arity))
                cur.executemany(f"DELETE FROM {table} WHERE {where}", coded)
                rows += len(coded)
            if delta.inserted:
                coded = [tuple(encode(v) for v in row)
                         for row in delta.inserted]
                placeholders = ", ".join("?" for _ in range(arity))
                cur.executemany(
                    f"INSERT OR IGNORE INTO {table} "
                    f"VALUES ({placeholders})", coded)
                rows += len(coded)
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
        stmt = compile_plan(compiled.plan, self.db.schemas, probe=probe)
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
        return batch.to_rows(self.dictionary)

    # -- introspection -------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Mirror-local facts: per-table row and index counts and the
        statement cache's occupancy."""
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
        pushdown = STATS["pushdown"]
        lookups = (pushdown["stmt_cache_hits"]
                   + pushdown["stmt_cache_misses"])
        return {
            "tables": tables,
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


def sql_mirror(db: Database) -> SQLiteMirror:
    """The database's in-memory mirror, built on first use."""
    mirror = getattr(db, _MIRROR_ATTR, None)
    if mirror is None:
        with _ATTACH_LOCK:
            mirror = getattr(db, _MIRROR_ATTR, None)
            if mirror is None:
                mirror = SQLiteMirror(db)
                setattr(db, _MIRROR_ATTR, mirror)
    return mirror


def _require_committed(db: Database) -> None:
    if db.in_batch:
        raise BatchError("method='sql' reads the last commit; "
                         "commit the open batch first")


def native_sql_answers(compiled, db: Database) -> FrozenSet[Tuple]:
    """Answer rows of a compiled query, entirely inside sqlite.

    Raises :class:`~repro.db.database.BatchError` inside an open batch:
    the mirror applies committed changelogs only, so it would answer
    from the last commit.  A plan with an ``Adom*`` node runs on
    ``compiled.rows`` instead and is not counted in ``native_sql``.
    """
    _require_committed(db)
    if compiled.uses_adom:
        return compiled.rows(db)
    result = sql_mirror(db).answers(compiled)
    STATS["pushdown"]["native_sql"] += 1
    return result


def native_sql_holds(compiled, db: Database) -> bool:
    """Boolean certainty probe inside sqlite.

    Raises :class:`~repro.db.database.BatchError` inside an open batch,
    and hands an ``Adom*`` plan to ``compiled.holds``, like
    :func:`native_sql_answers`.
    """
    _require_committed(db)
    if compiled.uses_adom:
        return compiled.holds(db)
    result = sql_mirror(db).holds(compiled)
    STATS["pushdown"]["native_sql"] += 1
    return result


def prefer_sql(compiled, db: Database) -> bool:
    """Should ``method="auto"`` push this run down to the mirror?  Never.

    On the measured stores the mirror is slower than columnar on every
    open query and than the compiled probe on every sentence, and
    keeping it current costs every commit a sqlite transaction, so SQL
    runs only when a caller asks for ``method="sql"``.  Nothing in
    the program calls this; the name stays for the benchmark's tracer,
    which wraps it.
    """
    return False

"""(Possibly inconsistent) databases, blocks, and consistency.

A database is a finite set of facts over a fixed schema with one primary
key per relation.  Facts are stored as raw value tuples grouped by
relation name, which keeps repair enumeration cheap.  A *block* is a
maximal set of key-equal facts; a database is consistent when every
block is a singleton (Section 3 of the paper).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.atoms import Atom, RelationSchema
from .changelog import Changelog, Delta


class SchemaError(ValueError):
    """Raised on arity/signature mismatches."""


class BatchError(RuntimeError):
    """Raised on mismatched begin_batch/commit calls."""


class Database:
    """A set of facts over relations with primary keys.

    The schema maps relation names to :class:`RelationSchema`.  Relations
    may be registered eagerly (:meth:`add_relation`) or implicitly when
    the first fact arrives with an explicit schema.
    """

    def __init__(self, schemas: Iterable[RelationSchema] = ()):
        self.schemas: Dict[str, RelationSchema] = {}
        self._facts: Dict[str, set] = {}
        # Lazy column indexes: (relation, positions) -> {key: rows},
        # tagged with the relation version they were built against.
        self._versions: Dict[str, int] = {}
        self._indexes: Dict[Tuple[str, Tuple[int, ...]], Tuple[int, Dict]] = {}
        # Change capture: a monotone clock over all mutations, an open
        # batch of per-relation net deltas (None outside begin_batch/
        # commit), and subscribers receiving one Changelog per commit.
        self._clock: int = 0
        self._batch: Optional[Dict[str, Delta]] = None
        self._listeners: List[Callable[[Changelog], None]] = []
        for s in schemas:
            self.add_relation(s)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_relation(self, schema: RelationSchema) -> None:
        """Register a relation; re-registering the same signature is a no-op."""
        existing = self.schemas.get(schema.name)
        if existing is not None:
            if existing != schema:
                raise SchemaError(
                    f"conflicting signatures for {schema.name}: "
                    f"{existing!r} vs {schema!r}"
                )
            return
        self.schemas[schema.name] = schema
        self._facts[schema.name] = set()
        self._versions[schema.name] = 0

    def add(self, relation: str, row: Sequence) -> None:
        """Add the fact relation(row) to the database."""
        schema = self.schemas.get(relation)
        if schema is None:
            raise SchemaError(f"unknown relation {relation!r}; add_relation first")
        row = tuple(row)
        if len(row) != schema.arity:
            raise SchemaError(
                f"{relation} has arity {schema.arity}, got row of length {len(row)}"
            )
        # set.add already dedupes; comparing sizes detects a genuine
        # insertion without a separate membership probe, and the version
        # only moves (invalidating lazy indexes) when the relation
        # actually changed.
        rows = self._facts[relation]
        before = len(rows)
        rows.add(row)
        if len(rows) != before:
            self._changed(relation, inserted=(row,))

    def add_fact(self, fact: Atom) -> None:
        """Add a ground atom, registering its schema if necessary."""
        self.add_relation(fact.schema)
        self.add(fact.relation, fact.as_row())

    def add_all(self, relation: str, rows: Iterable[Sequence]) -> None:
        """Add many facts of one relation in one shot.

        Unlike a loop of :meth:`add`, the relation version is bumped at
        most once, so lazy indexes built before the bulk load are
        invalidated a single time instead of once per row.  Arity is
        validated for the whole batch before anything is inserted.
        """
        schema = self.schemas.get(relation)
        if schema is None:
            raise SchemaError(f"unknown relation {relation!r}; add_relation first")
        staged = [tuple(row) for row in rows]
        for row in staged:
            if len(row) != schema.arity:
                raise SchemaError(
                    f"{relation} has arity {schema.arity}, "
                    f"got row of length {len(row)}"
                )
        target = self._facts[relation]
        fresh = [row for row in staged if row not in target]
        if fresh:
            target.update(fresh)
            self._changed(relation, inserted=fresh)

    def discard(self, relation: str, row: Sequence) -> None:
        """Remove a fact if present."""
        rows = self._facts.get(relation)
        if rows is None:
            return
        row = tuple(row)
        if row in rows:
            rows.discard(row)
            self._changed(relation, deleted=(row,))

    def discard_all(self, relation: str, rows: Iterable[Sequence]) -> None:
        """Remove many facts of one relation in one shot.

        The deletion mirror of :meth:`add_all`: the relation version is
        bumped at most once for the whole batch, so lazy indexes are
        invalidated a single time instead of once per row.  Rows not
        present are ignored, like :meth:`discard`.
        """
        target = self._facts.get(relation)
        if target is None:
            return
        doomed = {tuple(row) for row in rows}
        doomed &= target
        if doomed:
            target -= doomed
            self._changed(relation, deleted=doomed)

    def clear_relation(self, relation: str) -> None:
        """Remove every fact of one relation (schema stays registered)."""
        if relation in self._facts and self._facts[relation]:
            gone = self._facts[relation]
            self._facts[relation] = set()
            self._changed(relation, deleted=gone)

    # ------------------------------------------------------------------
    # change capture
    # ------------------------------------------------------------------

    def _changed(self, relation: str,
                 inserted: Iterable[Tuple] = (),
                 deleted: Iterable[Tuple] = ()) -> None:
        """Record one genuine mutation: bump versions and either fold
        the rows into the open batch or emit a single-op changelog."""
        self._versions[relation] = self._versions.get(relation, 0) + 1
        self._clock += 1
        if self._batch is not None:
            delta = self._batch.get(relation)
            if delta is None:
                delta = self._batch[relation] = Delta(relation)
            for row in inserted:
                delta.record_insert(row)
            for row in deleted:
                delta.record_delete(row)
        elif self._listeners:
            log = Changelog(
                self._clock, {relation: Delta(relation, inserted, deleted)}
            )
            self._notify(log)

    def _notify(self, log: Changelog) -> None:
        if not log.is_empty:
            for listener in tuple(self._listeners):
                listener(log)

    @property
    def clock(self) -> int:
        """A monotone counter bumped on every genuine mutation."""
        return self._clock

    def relation_version(self, relation: str) -> int:
        """The mutation counter of one relation (0 if never touched).

        Bumped once per genuine mutation batch, like the lazy hash
        indexes use internally; external caches (the columnar store's
        encoded columns, for one) tag entries with it to invalidate on
        updates and ``discard_all`` without polling the fact sets.
        """
        return self._versions.get(relation, 0)

    @property
    def in_batch(self) -> bool:
        """Is a begin_batch/commit batch currently open?"""
        return self._batch is not None

    def begin_batch(self) -> None:
        """Start staging mutations into one net delta per relation.

        Until :meth:`commit`, subscribers see nothing; mutations apply
        to the database immediately (reads stay consistent) but their
        deltas are folded together, with add-then-discard of the same
        row cancelling out.
        """
        if self._batch is not None:
            raise BatchError("a batch is already open; commit it first")
        self._batch = {}

    def commit(self) -> Changelog:
        """Close the open batch and publish its net changelog."""
        if self._batch is None:
            raise BatchError("no open batch; call begin_batch first")
        staged, self._batch = self._batch, None
        log = Changelog(self._clock, staged)
        self._notify(log)
        return log

    @contextlib.contextmanager
    def batch(self) -> Iterator[None]:
        """``with db.batch(): ...`` — begin_batch/commit as a scope."""
        self.begin_batch()
        try:
            yield
        finally:
            self.commit()

    def subscribe(self, listener: Callable[[Changelog], None]) -> None:
        """Register a callback receiving one Changelog per commit (and
        per mutation outside any batch).  Empty changelogs are skipped."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def unsubscribe(self, listener: Callable[[Changelog], None]) -> None:
        """Remove a previously subscribed callback (no-op if absent)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    def index(
        self, relation: str, positions: Tuple[int, ...]
    ) -> Dict[Tuple, FrozenSet[Tuple]]:
        """A hash index on *positions* of one relation, built lazily and
        rebuilt automatically after mutations.

        Maps each projection ``tuple(row[i] for i in positions)`` to the
        set of rows sharing it.  Used by the satisfaction engine and the
        FO evaluator to avoid scanning whole relations when some
        positions are already bound.
        """
        positions = tuple(positions)
        version = self._versions.get(relation, 0)
        cached = self._indexes.get((relation, positions))
        if cached is not None and cached[0] == version:
            return cached[1]
        built: Dict[Tuple, set] = {}
        for row in self._facts.get(relation, ()):
            built.setdefault(tuple(row[i] for i in positions), set()).add(row)
        frozen = {k: frozenset(v) for k, v in built.items()}
        self._indexes[(relation, positions)] = (version, frozen)
        return frozen

    def lookup(
        self, relation: str, bindings: Dict[int, object]
    ) -> FrozenSet[Tuple]:
        """All rows whose columns match *bindings* (position -> value).

        Empty bindings return every row of the relation.  With every
        position bound this is a membership test on the fact set: an
        index keyed on whole rows would hold one single-row set per
        fact and answer nothing a set lookup does not.
        """
        if not bindings:
            return self.facts(relation)
        positions = tuple(sorted(bindings))
        key = tuple(bindings[i] for i in positions)
        schema = self.schemas.get(relation)
        if schema is not None and len(positions) == schema.arity:
            rows = self._facts.get(relation, ())
            return frozenset((key,)) if key in rows else frozenset()
        return self.index(relation, positions).get(key, frozenset())

    def copy(self) -> "Database":
        """An independent copy sharing schema objects."""
        out = Database(self.schemas.values())
        for name, rows in self._facts.items():
            out._facts[name] = set(rows)
        return out

    def union(self, other: "Database") -> "Database":
        """A new database containing the facts of both operands."""
        out = self.copy()
        for schema in other.schemas.values():
            out.add_relation(schema)
        for name, rows in other._facts.items():
            out._facts[name] |= rows
        return out

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def facts(self, relation: str) -> FrozenSet[Tuple]:
        """All rows of one relation (empty for registered-but-empty)."""
        return frozenset(self._facts.get(relation, ()))

    def contains(self, relation: str, row: Sequence) -> bool:
        """Is the fact in the database?"""
        return tuple(row) in self._facts.get(relation, ())

    def relations(self) -> Tuple[str, ...]:
        """All registered relation names, sorted."""
        return tuple(sorted(self.schemas))

    def size(self) -> int:
        """Total number of facts."""
        return sum(len(rows) for rows in self._facts.values())

    def blocks(self, relation: str) -> Dict[Tuple, FrozenSet[Tuple]]:
        """The blocks of one relation: key value -> set of rows."""
        schema = self.schemas[relation]
        out: Dict[Tuple, set] = {}
        for row in self._facts.get(relation, ()):
            out.setdefault(schema.key_of(row), set()).add(row)
        return {k: frozenset(v) for k, v in out.items()}

    def block_of(self, relation: str, key: Sequence) -> FrozenSet[Tuple]:
        """The rows whose key equals *key* (possibly empty)."""
        schema = self.schemas[relation]
        key = tuple(key)
        return frozenset(
            row for row in self._facts.get(relation, ()) if schema.key_of(row) == key
        )

    def all_blocks(self) -> Iterator[Tuple[str, Tuple, FrozenSet[Tuple]]]:
        """Iterate (relation, key, rows) over every block of the database."""
        for relation in sorted(self.schemas):
            for key, rows in sorted(self.blocks(relation).items(), key=lambda kv: repr(kv[0])):
                yield relation, key, rows

    @property
    def is_consistent(self) -> bool:
        """True when every block is a singleton."""
        for relation in self.schemas:
            keys = set()
            schema = self.schemas[relation]
            for row in self._facts.get(relation, ()):
                key = schema.key_of(row)
                if key in keys:
                    return False
                keys.add(key)
        return True

    def repair_count(self) -> int:
        """The number of repairs: the product of all block sizes."""
        count = 1
        for _, _, rows in self.all_blocks():
            count *= len(rows)
        return count

    def active_domain(self) -> FrozenSet:
        """All constants (raw values) occurring in some fact."""
        dom = set()
        for rows in self._facts.values():
            for row in rows:
                dom.update(row)
        return frozenset(dom)

    def restrict(self, relations: Iterable[str]) -> "Database":
        """The sub-database over the given relations only."""
        keep = set(relations)
        out = Database(s for s in self.schemas.values() if s.name in keep)
        for name in keep & set(self._facts):
            out._facts[name] = set(self._facts[name])
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        if self.schemas != other.schemas:
            return False
        names = set(self.schemas)
        return all(self._facts[n] == other._facts.get(n, set()) for n in names)

    def __hash__(self) -> int:
        items = tuple(
            (name, frozenset(rows)) for name, rows in sorted(self._facts.items())
        )
        return hash(items)

    def __len__(self) -> int:
        return self.size()

    def __repr__(self) -> str:
        parts = []
        for name in sorted(self._facts):
            for row in sorted(self._facts[name], key=repr):
                parts.append(f"{name}{row!r}")
        return "Database{" + ", ".join(parts) + "}"


def database_from_facts(facts: Iterable[Atom]) -> Database:
    """Build a database from ground atoms."""
    db = Database()
    for f in facts:
        db.add_fact(f)
    return db

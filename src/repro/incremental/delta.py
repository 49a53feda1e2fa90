"""Delta execution for the plan IR: one delta rule per operator.

A :class:`CompiledQuery` plan is a tree (occasionally a DAG, through
seeded lowering) of set-valued operators.  :class:`IncrementalPlan`
keeps the root's output rows up to date under the row-level deltas a
:class:`~repro.db.changelog.Changelog` carries; every other operator
keeps only the state its delta rule reads — classic incremental view
maintenance, specialized to the relational operators of
:mod:`repro.fo.plan`:

``Scan``/``Select``
    keep nothing: a scan's output columns are every variable of its
    atom, so it maps the filtered relation delta one to one, and a
    select filters its child delta;
``Project``/``Union``
    maintain a derivation counter per output row (several input rows or
    parts can support the same output row), emitting a delta only on
    0↔positive transitions;
``Join``
    keeps both inputs hash-indexed on the shared columns; because the
    output columns are the union of the input columns, every output row
    has exactly one derivation and no counting is needed;
``SemiJoin``/``AntiJoin``
    keep the left input indexed by join key and a per-key counter of
    right matches; a key whose counter hits zero *inserts* rows into an
    anti-join's output — the retraction-induced insertions that make
    a query certain when a fact leaves a block;
``Difference``
    keeps both input sets;
``Literal``
    never changes.

Deltas propagate bottom-up in one pass per batch; clean subtrees (no
dirty relation below) are skipped entirely.  Building a plan inside an
open batch raises :class:`~repro.db.database.BatchError`: the commit
would deliver the staged rows a second time.

A plan with an ``Adom*`` node (``AdomProduct``/``AdomGuard``/``AdomEq``,
which the compiler emits only for unguarded shapes) depends on the
active domain of the whole database, which any fact can move.  Such a
plan keeps only its root rows: every batch re-executes it on the row
executor and diffs, counted in ``fallback_recomputes``.  Any other node
type without a delta rule is refused with :class:`DeltaError` when the
plan is built.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..analysis.verifier import plan_uses_adom
from ..db.changelog import Changelog
from ..db.database import BatchError, Database
from ..fo.plan import (
    AntiJoin,
    Difference,
    Executor,
    Join,
    Literal,
    Plan,
    Project,
    Scan,
    Select,
    SemiJoin,
    Union,
    _tuple_getter,
)

Row = Tuple
RowDelta = Tuple[Set[Row], Set[Row]]  # (inserted, deleted)

_EMPTY: RowDelta = (frozenset(), frozenset())  # type: ignore[assignment]


class DeltaError(RuntimeError):
    """Raised when maintained state is found inconsistent (a bug), or
    when a plan holds a node type without a delta rule."""


def _apply_counted(
    counts: Dict[Row, int], dec: Iterable[Row], inc: Iterable[Row]
) -> RowDelta:
    """Apply ±1 multiplicity changes and report 0↔positive transitions.

    ``dec``/``inc`` carry multiplicity (the same row may occur several
    times); zero-count entries are dropped so ``row in counts`` means
    "currently derivable".
    """
    touched: Dict[Row, int] = {}
    for row in dec:
        if row not in touched:
            touched[row] = counts.get(row, 0)
        counts[row] = counts.get(row, 0) - 1
    for row in inc:
        if row not in touched:
            touched[row] = counts.get(row, 0)
        counts[row] = counts.get(row, 0) + 1
    ins: Set[Row] = set()
    dels: Set[Row] = set()
    for row, old in touched.items():
        new = counts.get(row, 0)
        if new < 0:
            raise DeltaError(f"negative derivation count for {row!r}")
        if new == 0:
            del counts[row]
        if old == 0 and new > 0:
            ins.add(row)
        elif old > 0 and new == 0:
            dels.add(row)
    return ins, dels


def _index_add(index: Dict[Row, Set[Row]], rows: Iterable[Row], key) -> None:
    for row in rows:
        index.setdefault(key(row), set()).add(row)


def _index_remove(index: Dict[Row, Set[Row]], rows: Iterable[Row], key) -> None:
    for row in rows:
        k = key(row)
        bucket = index.get(k)
        if bucket is not None:
            bucket.discard(row)
            if not bucket:
                del index[k]


class _NodeState:
    """The auxiliaries one operator's delta rule reads."""

    __slots__ = ("counts", "lindex", "rindex", "rcounts",
                 "lset", "rset", "lkey", "rkey", "emit")

    def __init__(self) -> None:
        self.counts: Optional[Dict[Row, int]] = None
        self.lindex: Optional[Dict[Row, Set[Row]]] = None
        self.rindex: Optional[Dict[Row, Set[Row]]] = None
        self.rcounts: Optional[Dict[Row, int]] = None
        self.lset: Optional[Set[Row]] = None
        self.rset: Optional[Set[Row]] = None
        self.lkey = None
        self.rkey = None
        self.emit = None


def _binary_keys(node) -> Tuple[Callable, Callable]:
    shared = node.shared
    lkey = _tuple_getter([node.left.cols.index(c) for c in shared])
    rkey = _tuple_getter([node.right.cols.index(c) for c in shared])
    return lkey, rkey


class IncrementalPlan:
    """One plan's output rows, maintained under changelog batches.

    ``constants`` must be the compiled query's constant pool so the
    re-executions of an Adom* plan see the same active domain as a
    fresh run.
    """

    def __init__(self, plan: Plan, db: Database, constants: Iterable = ()):
        if db.in_batch:
            raise BatchError("cannot build a view inside an open batch; "
                             "commit it first")
        self.plan = plan
        self.constants: Tuple = tuple(constants)
        #: Does the plan depend on active-domain membership?  Then it
        #: is re-executed on every batch instead of delta-maintained.
        self.uses_adom = plan_uses_adom(plan)
        self.deltas_applied = 0
        self.rows_touched = 0
        self.fallback_recomputes = 0
        self._relations: Dict[int, FrozenSet[str]] = {}
        self._state: Dict[int, _NodeState] = {}
        self._order: List[Plan] = []
        self._collect(plan, set())
        ex = Executor(db, None, self.constants)
        if not self.uses_adom:
            self._materialize(ex)
        self._rows: Set[Row] = set(ex.run(plan))
        # Per-batch scratch, valid only inside apply():
        self._memo: Dict[int, RowDelta] = {}
        self._dirty: FrozenSet[str] = frozenset()
        self._db: Optional[Database] = None
        self._log: Optional[Changelog] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def _collect(self, node: Plan, seen: Set[int]) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        for child in node.children():
            self._collect(child, seen)
        if not self.uses_adom and type(node) not in self._DELTA_HANDLERS:
            raise DeltaError(f"no delta rule for plan node {node!r}")
        if type(node) is Scan:
            relations = frozenset((node.atom.relation,))
        else:
            relations = frozenset().union(
                *(self._relations[id(child)] for child in node.children()))
        self._relations[id(node)] = relations
        self._order.append(node)

    @property
    def relations(self) -> FrozenSet[str]:
        """The database relations the plan reads."""
        return self._relations[id(self.plan)]

    @property
    def rows(self) -> Set[Row]:
        """The maintained output of the root (do not mutate)."""
        return self._rows

    def _materialize(self, ex: Executor) -> None:
        for node in self._order:
            kind = type(node)
            if kind in (Scan, Select, Literal):
                continue  # their delta rules read no state
            state = self._state[id(node)] = _NodeState()
            if kind is Project:
                state.counts = {}
                getter = _tuple_getter(node.positions)
                for row in ex.run(node.child):
                    out = getter(row)
                    state.counts[out] = state.counts.get(out, 0) + 1
            elif kind is Union:
                state.counts = {}
                for part in node.parts:
                    for row in ex.run(part):
                        state.counts[row] = state.counts.get(row, 0) + 1
            elif kind is Join:
                state.lkey, state.rkey = _binary_keys(node)
                width = len(node.left.cols)
                state.emit = _tuple_getter(
                    [i if side == 0 else width + i for side, i in node.emit]
                )
                state.lindex, state.rindex = {}, {}
                _index_add(state.lindex, ex.run(node.left), state.lkey)
                _index_add(state.rindex, ex.run(node.right), state.rkey)
            elif kind in (SemiJoin, AntiJoin):
                state.lkey, state.rkey = _binary_keys(node)
                state.lindex = {}
                _index_add(state.lindex, ex.run(node.left), state.lkey)
                state.rcounts = {}
                for row in ex.run(node.right):
                    k = state.rkey(row)
                    state.rcounts[k] = state.rcounts.get(k, 0) + 1
            elif kind is Difference:
                state.lset = set(ex.run(node.left))
                state.rset = set(ex.run(node.right))

    @staticmethod
    def _scan_source(node: Scan, rows: Iterable[Row]) -> Iterable[Row]:
        """Base rows surviving the scan's constant/equality pattern."""
        consts = node.consts
        checks = node.eq_checks
        for row in rows:
            if consts and any(row[i] != v for i, v in consts.items()):
                continue
            if checks and any(row[i] != row[j] for i, j in checks):
                continue
            yield row

    # ------------------------------------------------------------------
    # delta application
    # ------------------------------------------------------------------

    def apply(self, log: Changelog, db: Database) -> RowDelta:
        """Propagate one committed batch; returns the net answer delta.

        Must be called for *every* commit on the database, in order,
        with ``db`` already in its post-commit state (exactly what a
        changelog subscriber observes).  An Adom* plan (see
        :attr:`uses_adom`) is re-executed and diffed instead.
        """
        if self.uses_adom:
            self.fallback_recomputes += 1
            new = Executor(db, None, self.constants).run(self.plan)
            result: RowDelta = (new - self._rows, self._rows - new)
            self.rows_touched += len(result[0]) + len(result[1])
        else:
            self._memo = {}
            self._dirty = log.relations
            self._db = db
            self._log = log
            try:
                result = self._delta(self.plan)
            finally:
                self._db = None
                self._log = None
        ins, dels = result
        self._rows.difference_update(dels)
        self._rows.update(ins)
        self.deltas_applied += 1
        return result

    def _delta(self, node: Plan) -> RowDelta:
        found = self._memo.get(id(node))
        if found is not None:
            return found
        if self._relations[id(node)] & self._dirty:
            result = self._DELTA_HANDLERS[type(node)](self, node)
            self.rows_touched += len(result[0]) + len(result[1])
        else:
            result = _EMPTY
        self._memo[id(node)] = result
        return result

    # -- per-operator delta rules --------------------------------------

    def _d_scan(self, node: Scan) -> RowDelta:
        # No counts: ``Scan.cols`` is every variable of the atom, so the
        # rows passing the constant and equality checks map one to one
        # onto output rows.  The relation's net delta holds only genuine
        # mutations since the last commit, the state the plan was built
        # from (``__init__`` refuses an open batch), so its image is
        # exactly the scan's output delta.
        schema = self._db.schemas.get(node.atom.relation)
        if schema is None or schema.arity != node.atom.schema.arity:
            return _EMPTY
        delta = self._log.deltas.get(node.atom.relation)
        if delta is None:
            return _EMPTY
        getter = _tuple_getter(node.proj)
        return ({getter(r) for r in self._scan_source(node, delta.inserted)},
                {getter(r) for r in self._scan_source(node, delta.deleted)})

    def _d_literal(self, node: Literal) -> RowDelta:
        return _EMPTY

    def _d_select(self, node: Select) -> RowDelta:
        cins, cdels = self._delta(node.child)
        if not cins and not cdels:
            return _EMPTY
        preds = []
        for lhs, rhs, equal in node.conds:
            getl = Executor._operand_getter(lhs)
            getr = Executor._operand_getter(rhs)
            preds.append((getl, getr, equal))

        def passes(row: Row) -> bool:
            return all(
                (getl(row) == getr(row)) == equal for getl, getr, equal in preds
            )

        return {r for r in cins if passes(r)}, {r for r in cdels if passes(r)}

    def _d_project(self, node: Project) -> RowDelta:
        cins, cdels = self._delta(node.child)
        if not cins and not cdels:
            return _EMPTY
        state = self._state[id(node)]
        getter = _tuple_getter(node.positions)
        return _apply_counted(
            state.counts, [getter(r) for r in cdels], [getter(r) for r in cins]
        )

    def _d_union(self, node: Union) -> RowDelta:
        state = self._state[id(node)]
        dec: List[Row] = []
        inc: List[Row] = []
        for part in node.parts:
            pins, pdels = self._delta(part)
            inc.extend(pins)
            dec.extend(pdels)
        if not inc and not dec:
            return _EMPTY
        return _apply_counted(state.counts, dec, inc)

    def _d_join(self, node: Join) -> RowDelta:
        state = self._state[id(node)]
        lins, ldel = self._delta(node.left)
        rins, rdel = self._delta(node.right)
        if not (lins or ldel or rins or rdel):
            return _EMPTY
        lkey, rkey, emit = state.lkey, state.rkey, state.emit
        lindex, rindex = state.lindex, state.rindex
        dels: Set[Row] = set()
        # Deletions pair against the *old* indexes ...
        for lrow in ldel:
            for r in rindex.get(lkey(lrow), ()):
                dels.add(emit(lrow + r))
        for r in rdel:
            for lrow in lindex.get(rkey(r), ()):
                dels.add(emit(lrow + r))
        _index_remove(lindex, ldel, lkey)
        _index_add(lindex, lins, lkey)
        _index_remove(rindex, rdel, rkey)
        _index_add(rindex, rins, rkey)
        # ... and insertions against the new ones (the (Δleft, Δright)
        # pair lands twice; the set dedupes).
        ins: Set[Row] = set()
        for lrow in lins:
            for r in rindex.get(lkey(lrow), ()):
                ins.add(emit(lrow + r))
        for r in rins:
            for lrow in lindex.get(rkey(r), ()):
                ins.add(emit(lrow + r))
        return ins, dels

    def _semi_transitions(self, node, state) -> Tuple[RowDelta, RowDelta, Callable]:
        """Shared semi/anti plumbing: child deltas, right-key membership
        transitions, and an old-membership probe."""
        left_delta = self._delta(node.left)
        rins, rdel = self._delta(node.right)
        rkey = state.rkey
        became_present, became_absent = _apply_counted(
            state.rcounts, [rkey(r) for r in rdel], [rkey(r) for r in rins]
        )

        def old_present(k: Row) -> bool:
            if k in became_present:
                return False
            if k in became_absent:
                return True
            return k in state.rcounts

        return left_delta, (became_present, became_absent), old_present

    def _d_semi_join(self, node: SemiJoin) -> RowDelta:
        state = self._state[id(node)]
        (lins, ldel), (became_present, became_absent), old_present = (
            self._semi_transitions(node, state)
        )
        lkey, lindex = state.lkey, state.lindex
        dels = {lrow for lrow in ldel if old_present(lkey(lrow))}
        for k in became_absent:
            dels.update(lindex.get(k, ()))  # old index: includes Δ⁻left rows
        _index_remove(lindex, ldel, lkey)
        _index_add(lindex, lins, lkey)
        ins = {lrow for lrow in lins if lkey(lrow) in state.rcounts}
        for k in became_present:
            ins.update(lindex.get(k, ()))
        return ins, dels

    def _d_anti_join(self, node: AntiJoin) -> RowDelta:
        state = self._state[id(node)]
        (lins, ldel), (became_present, became_absent), old_present = (
            self._semi_transitions(node, state)
        )
        lkey, lindex = state.lkey, state.lindex
        dels = {lrow for lrow in ldel if not old_present(lkey(lrow))}
        for k in became_present:
            dels.update(lindex.get(k, ()))
        _index_remove(lindex, ldel, lkey)
        _index_add(lindex, lins, lkey)
        ins = {lrow for lrow in lins if lkey(lrow) not in state.rcounts}
        # Retraction-induced insertions: a right key emptied out, so the
        # surviving left rows under it (re-)enter the output.
        for k in became_absent:
            ins.update(lindex.get(k, ()))
        return ins, dels

    def _d_difference(self, node: Difference) -> RowDelta:
        state = self._state[id(node)]
        lins, ldel = self._delta(node.left)
        rins, rdel = self._delta(node.right)
        if not (lins or ldel or rins or rdel):
            return _EMPTY
        lset, rset = state.lset, state.rset
        dels = {lrow for lrow in ldel if lrow not in rset}
        dels.update(r for r in rins if r in lset and r not in ldel)
        ins = {lrow for lrow in lins
               if (lrow not in rset or lrow in rdel) and lrow not in rins}
        # Retraction-induced insertions on the right operand:
        ins.update(r for r in rdel if (r in lset and r not in ldel) or r in lins)
        lset.difference_update(ldel)
        lset.update(lins)
        rset.difference_update(rdel)
        rset.update(rins)
        return ins, dels

    _DELTA_HANDLERS = {
        Scan: _d_scan,
        Literal: _d_literal,
        Select: _d_select,
        Project: _d_project,
        Union: _d_union,
        Join: _d_join,
        SemiJoin: _d_semi_join,
        AntiJoin: _d_anti_join,
        Difference: _d_difference,
    }

    def stats(self) -> Dict[str, int]:
        """Maintenance counters for this plan."""
        return {
            "deltas_applied": self.deltas_applied,
            "rows_touched": self.rows_touched,
            "fallback_recomputes": self.fallback_recomputes,
            "nodes": len(self._order),
        }

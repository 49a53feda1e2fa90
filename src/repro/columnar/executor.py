"""The vectorized batch executor over the relational plan IR.

:class:`VectorExecutor` evaluates exactly the plan trees that
:mod:`repro.fo.compile` lowers and :class:`repro.fo.plan.Executor`
runs — same node types, same semantics, pinned by the PV001–PV013
verifier contract — but batch-at-a-time over
:class:`~repro.columnar.relation.ColumnarRelation` int columns instead
of row-at-a-time over Python tuples:

* **Scans** filter and project dictionary-encoded columns cached on the
  database's :class:`~repro.columnar.dictionary.ColumnarStore`
  (version-tagged, so mutations invalidate them like the database's own
  hash indexes);
* **Joins** fuse the shared key columns into one int per row
  (:func:`~repro.columnar.relation.fuse`), build the hash table over
  those ints once per batch, and emit selection vectors that are
  gathered into output columns — no tuple construction anywhere on the
  match path;
* **Semi/anti-joins, difference, union, select, project** are selection
  -vector filters and fused-key set operations.

Two deliberate delegations to the row executor (the oracle):

* **Boolean plans** keep the probe-mode short-circuit: materializing
  every batch to answer "is it non-empty?" would undo the PR 4 win, so
  :meth:`VectorExecutor.nonempty` hands the sentence to the row
  executor's sideways-information-passing probe path.
* **Adom\\* nodes** (``AdomProduct``/``AdomGuard``/``AdomEq``) decode to
  tuples: they enumerate the active domain, which no column encodes.
  Each such fallback ticks the ``decode_fallbacks`` profile counter and
  is what performance rule QP109 warns about statically.

``method="columnar"`` reaches this executor through
:func:`columnar_rows`; ``method="auto"`` routes every open query here
once the database reaches :data:`COLUMNAR_MIN_FACTS` facts (see
:func:`prefer_columnar`).
"""

from __future__ import annotations

from array import array
from itertools import chain, compress, count, repeat
from operator import (
    and_ as op_and,
    eq as op_eq,
    ne as op_ne,
    not_ as op_not,
    or_ as op_or,
)
from time import perf_counter
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..db.database import Database
from ..fo.plan import (
    AdomEq,
    AdomGuard,
    AdomProduct,
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
)
from .dictionary import columnar_store
from .relation import ColumnarRelation, fuse, gather, pick

__all__ = [
    "VectorExecutor",
    "columnar_rows",
    "columnar_holds",
    "prefer_columnar",
    "columnar_stats",
    "reset_columnar_stats",
    "COLUMNAR_MIN_FACTS",
]

Row = Tuple

#: Below this many facts ``auto`` never routes to the columnar backend
#: (encoding whole relations costs more than small tuple runs save).
COLUMNAR_MIN_FACTS = 4000

_STATS: Dict[str, int] = {}


def reset_columnar_stats() -> None:
    _STATS.clear()
    _STATS.update(
        runs=0,
        boolean_probe_delegations=0,
        decode_fallbacks=0,
        auto_routed=0,
        scan_cache_hits=0,
    )


reset_columnar_stats()


def columnar_stats() -> Dict[str, int]:
    """Process-wide columnar-backend counters.

    ``runs`` (executions through the backend),
    ``boolean_probe_delegations`` (sentences handed to the row
    executor's short-circuit probe), ``decode_fallbacks`` (Adom* nodes
    evaluated row-at-a-time and re-encoded), ``auto_routed``
    (``method="auto"`` decisions for columnar), ``scan_cache_hits``
    (store-level scan results reused).  Feeds the ``columnar`` section
    of ``engine.metrics()``.
    """
    return dict(_STATS)


# ----------------------------------------------------------------------
# batch execution
# ----------------------------------------------------------------------


def _dedup(columns: Sequence[array], n: int,
           base: int) -> Tuple[Sequence[array], int, Sequence[int]]:
    """Distinct rows of a column batch, via fused int keys.

    Keeps the first occurrence of every row (stable); returns the input
    unchanged when already distinct.  The first-occurrence map is one
    reversed dict comprehension (later writes win, so reversed order
    keeps the *first* occurrence) — a C-level pass that doubles as the
    distinctness test.  Also returns the surviving rows' fused keys so
    the caller can pre-seed the output batch's key cache (set operators
    downstream then skip re-fusing the very columns this just hashed).
    """
    keys = fuse(columns, range(len(columns)), n, base)
    last = n - 1
    first = {k: last - i for i, k in enumerate(reversed(keys))}
    if len(first) == n:
        return columns, n, keys
    sel = sorted(first.values())
    return ([gather(col, sel) for col in columns], len(sel),
            pick(keys, sel))


def _distinct_batch(cols, columns: Sequence[array], n: int,
                    base: int) -> ColumnarRelation:
    """A deduplicated batch whose full-width fused keys are pre-cached."""
    deduped, m, keys = _dedup(columns, n, base)
    batch = ColumnarRelation(cols, tuple(deduped), m)
    batch._fused[(tuple(range(len(deduped))), base)] = keys
    return batch


def _filter_common_child(union: Union) -> Optional[Plan]:
    """The shared input plan if every union part row-filters it.

    Accepts Select / SemiJoin / AntiJoin / Difference parts whose
    (left) input is the *same node object* (the compiler emits shared
    DAGs, and the executor memoizes by identity) and whose columns pass
    through unchanged; returns ``None`` for any other shape.
    """
    common: Optional[Plan] = None
    for part in union.parts:
        tp = type(part)
        if tp is Select:
            child = part.child
        elif tp in (SemiJoin, AntiJoin, Difference):
            child = part.left
        else:
            return None
        if part.cols != child.cols:
            return None
        if common is None:
            common = child
        elif child is not common:
            return None
    return common


def _member_sel(keys: Sequence[int], members: Set[int],
                keep: bool) -> List[int]:
    """Row indices whose key is (not) in ``members``.

    ``compress(count(), mask)`` with a C-level membership mask — the
    semi/anti-join and difference inner loop, kept out of the Python
    interpreter.
    """
    mask = map(members.__contains__, keys)
    if not keep:
        mask = map(op_not, mask)
    return list(compress(count(), mask))


class VectorExecutor:
    """Batch-at-a-time plan execution against one database.

    The drop-in vectorized sibling of :class:`repro.fo.plan.Executor`:
    same memoization discipline (per-node by identity, structurally for
    scans), same ``profile`` protocol — plus the columnar-only
    ``batches`` and ``decode_fallbacks`` counters.  Results are
    :class:`ColumnarRelation` batches holding dictionary codes; decode
    the root with the store's dictionary (or use :func:`columnar_rows`).
    """

    def __init__(self, db: Database, constants: Sequence = (),
                 profile=None, store: Optional[ColumnarStore] = None):
        self.db = db
        self.store = store if store is not None else columnar_store(db)
        self._constants: Tuple = tuple(constants)
        self._memo: Dict[object, ColumnarRelation] = {}
        self._profile = profile
        self._oracle: Optional[Executor] = None

    def run(self, plan: Plan) -> ColumnarRelation:
        if type(plan) is Scan:
            key: object = ("scan", plan.atom.relation,
                           tuple(sorted(plan.consts.items())),
                           plan.eq_checks, plan.proj)
        else:
            key = id(plan)
        cached = self._memo.get(key)
        if cached is None:
            profile = self._profile
            if profile is None:
                cached = self._dispatch(plan)
            else:
                t0 = perf_counter()
                cached = self._dispatch(plan)
                profile.record(plan, perf_counter() - t0, cached.length)
                profile.count(plan, "batches")
            self._memo[key] = cached
        elif self._profile is not None:
            self._profile.count(plan, "memo_hits")
        return cached

    def rows(self, plan: Plan) -> Set[Row]:
        """Execute and decode back to value tuples."""
        return self.run(plan).to_rows(self.store.dictionary)

    def nonempty(self, plan: Plan) -> bool:
        """Short-circuit non-emptiness — delegated to the row executor.

        Boolean plans live or die on the probe-mode short-circuit
        (first witness / first violation); materializing full batches
        to test emptiness would regress exactly the way pre-probe
        plans did.  The row executor *is* the probe implementation, so
        sentences take that path unchanged; the delegation is counted
        in :func:`columnar_stats`.
        """
        _STATS["boolean_probe_delegations"] += 1
        return self._row_oracle().nonempty(plan)

    # ------------------------------------------------------------------

    def _row_oracle(self) -> Executor:
        if self._oracle is None:
            self._oracle = Executor(self.db, None, self._constants,
                                    self._profile)
        return self._oracle

    def _dispatch(self, plan: Plan) -> ColumnarRelation:
        method = self._HANDLERS.get(type(plan))
        if method is None:
            raise TypeError(f"no columnar executor for plan node {plan!r}")
        return method(self, plan)

    def _base(self) -> int:
        """The fused-key radix: every assigned code is below it."""
        return max(1, len(self.store.dictionary))

    def _run_scan(self, plan: Scan) -> ColumnarRelation:
        schema = self.db.schemas.get(plan.atom.relation)
        if schema is None or schema.arity != plan.atom.schema.arity:
            return ColumnarRelation.empty(plan.cols)
        return self._scan_batch(plan, plan.atom.relation, schema.arity,
                                plan.consts, plan.eq_checks, plan.proj,
                                plan.cols)

    def _scan_batch(self, node: Plan, relation: str, arity: int,
                    consts: Dict[int, object],
                    eq_checks: Tuple[Tuple[int, int], ...],
                    proj: Tuple[int, ...],
                    out_cols: Tuple) -> ColumnarRelation:
        """One filtered/projected/deduplicated relation pass, cached.

        Shared by plain scans and by projections folded into them; the
        store entry survives across executions until the relation's
        version moves, and hands the *same batch object* back so fused
        join keys computed in earlier runs stay warm.
        """
        db = self.db
        store = self.store
        profile = self._profile
        key = (relation, tuple(sorted(consts.items())), eq_checks, proj)
        hit = store.scan_cache_get(db, key)
        if hit is not None:
            _STATS["scan_cache_hits"] += 1
            if profile is not None:
                profile.count(node, "index_hits")
            if hit.cols == out_cols:
                return hit
            return ColumnarRelation(out_cols, hit.columns, hit.length,
                                    fused=hit._fused)
        columns, n = store.encoded(db, relation)
        if profile is not None:
            profile.count(node, "rows_scanned", n)
        sel: Optional[List[int]] = None
        encode = store.dictionary.encode
        for pos, value in consts.items():
            code = encode(value)
            col = columns[pos]
            if sel is None:
                sel = [i for i, c in enumerate(col) if c == code]
            else:
                sel = [i for i in sel if col[i] == code]
        for a, b in eq_checks:
            ca, cb = columns[a], columns[b]
            if sel is None:
                sel = [i for i, (va, vb) in enumerate(zip(ca, cb))
                       if va == vb]
            else:
                sel = [i for i in sel if ca[i] == cb[i]]
        if sel is None:
            taken = [columns[p] for p in proj]
            m = n
        else:
            taken = [gather(columns[p], sel) for p in proj]
            m = len(sel)
        # A projection covering every position is a permutation of
        # already-distinct rows; anything narrower must re-deduplicate.
        if len(proj) != arity and m:
            result = _distinct_batch(out_cols, taken, m, self._base())
        else:
            result = ColumnarRelation(out_cols, tuple(taken), m)
        store.scan_cache_put(db, key, result)
        return result

    def _run_literal(self, plan: Literal) -> ColumnarRelation:
        return ColumnarRelation.from_rows(plan.cols, plan.rows,
                                          self.store.dictionary)

    def _run_fallback(self, plan: Plan) -> ColumnarRelation:
        """Adom* nodes: run the row executor, re-encode the result.

        The active domain is a property of the whole database, not of
        any encoded column, so these nodes have no batch form; the
        decode round-trip is counted (``decode_fallbacks``) and warned
        about statically by QP109.
        """
        rows = self._row_oracle().run(plan)
        _STATS["decode_fallbacks"] += 1
        if self._profile is not None:
            self._profile.count(plan, "decode_fallbacks")
        return ColumnarRelation.from_rows(plan.cols, rows,
                                          self.store.dictionary)

    def _run_select(self, plan: Select) -> ColumnarRelation:
        child = self.run(plan.child)
        if child.length == 0:
            return ColumnarRelation.empty(plan.cols)
        encode = self.store.dictionary.encode
        n = child.length
        sel: Optional[List[int]] = None
        for lhs, rhs, equal in plan.conds:
            lkind, lpay = lhs
            rkind, rpay = rhs
            if lkind == "col" and rkind == "col":
                a = child.column(lpay)  # type: ignore[arg-type]
                b = child.column(rpay)  # type: ignore[arg-type]
                if sel is None:
                    mask = map(op_eq if equal else op_ne, a, b)
                    sel = list(compress(count(), mask))
                else:
                    sel = [i for i in sel if (a[i] == b[i]) is equal]
            elif lkind == "col" or rkind == "col":
                col = child.column(lpay) if lkind == "col" \
                    else child.column(rpay)  # type: ignore[arg-type]
                code = encode(rpay if lkind == "col" else lpay)
                if sel is None:
                    test = code.__eq__ if equal else code.__ne__
                    sel = list(compress(count(), map(test, col)))
                elif equal:
                    sel = [i for i in sel if col[i] == code]
                else:
                    sel = [i for i in sel if col[i] != code]
            else:  # constant vs constant: a tautology or a contradiction
                if (lpay == rpay) is not equal:
                    return ColumnarRelation.empty(plan.cols)
        if sel is None or len(sel) == n:
            return child
        return child.select(sel)

    def _filter_mask(self, part: Plan,
                     child: ColumnarRelation) -> List[bool]:
        """The boolean row mask a filter node keeps over ``child``.

        ``part`` must be one of the shapes :func:`_filter_common_child`
        accepted: a Select / SemiJoin / AntiJoin / Difference whose
        (left) input *is* the plan behind ``child``.  Masks compose the
        disjunctive union fold — every map here is a C-level pass.
        """
        tp = type(part)
        n = child.length
        if tp is Select:
            mask: Optional[List[bool]] = None
            encode = self.store.dictionary.encode
            for lhs, rhs, equal in part.conds:
                lkind, lpay = lhs
                rkind, rpay = rhs
                if lkind == "col" and rkind == "col":
                    cond = list(map(op_eq if equal else op_ne,
                                    child.column(lpay),
                                    child.column(rpay)))
                elif lkind == "col" or rkind == "col":
                    col = child.column(lpay) if lkind == "col" \
                        else child.column(rpay)
                    code = encode(rpay if lkind == "col" else lpay)
                    test = code.__eq__ if equal else code.__ne__
                    cond = list(map(test, col))
                else:
                    if (lpay == rpay) is not equal:
                        return [False] * n
                    continue  # tautology constrains nothing
                mask = cond if mask is None else list(map(op_and, mask,
                                                          cond))
            return mask if mask is not None else [True] * n
        if tp is Difference:
            right = self.run(part.right)
            # Base must be read *after* running the right side: that run
            # may encode fresh values, and fusing with a base smaller
            # than the dictionary makes distinct key tuples collide.
            base = self._base()
            positions: Sequence[int] = range(child.width)
            rset = set(right.fused(positions, base))
            return list(map(op_not, map(rset.__contains__,
                                        child.fused(positions, base))))
        # SemiJoin / AntiJoin
        right = self.run(part.right)
        base = self._base()
        rcols = set(part.right.cols)
        shared = [c for c in part.left.cols if c in rcols]
        lpos = [part.left.cols.index(c) for c in shared]
        rpos = [part.right.cols.index(c) for c in shared]
        rset = set(right.fused(rpos, base))
        kept = map(rset.__contains__, child.fused(lpos, base))
        if tp is AntiJoin:
            return list(map(op_not, kept))
        return list(kept)

    def _union_filter_batch(self, plan: Union) -> Optional[ColumnarRelation]:
        """The disjunctive-filter fold of a union, or ``None``.

        When every part of the union is a row filter — Select,
        SemiJoin, AntiJoin or Difference — over the *same shared child
        node*, the union equals the child filtered by the OR of the
        parts' masks: each part keeps a subset of one distinct row set,
        so no concatenation and no re-deduplication is needed.  This is
        the shape every ``forall``-guard rewriting lowers to (several
        guards over one candidate join), where the naive path would
        materialize the join output once per guard.
        """
        common = _filter_common_child(plan)
        if common is None or plan.cols != common.cols:
            return None
        child = self.run(common)
        if child.length == 0:
            return child
        combined: Optional[List[bool]] = None
        for part in plan.parts:
            mask = self._filter_mask(part, child)
            combined = mask if combined is None else list(map(op_or,
                                                              combined,
                                                              mask))
        assert combined is not None
        sel = list(compress(count(), combined))
        if len(sel) == child.length:
            return child
        return child.select(sel)

    def _run_project(self, plan: Project) -> ColumnarRelation:
        inner = plan.child
        if type(inner) is Scan:
            # Fold the projection into the scan: same store cache entry
            # shape, so narrowing projections over unchanged relations
            # (the Project[key](Scan ...) spine of every rewriting) are
            # one dictionary lookup on repeat executions.
            schema = self.db.schemas.get(inner.atom.relation)
            if schema is None or schema.arity != inner.atom.schema.arity:
                return ColumnarRelation.empty(plan.cols)
            proj = tuple(inner.proj[pos] for pos in plan.positions)
            return self._scan_batch(plan, inner.atom.relation, schema.arity,
                                    inner.consts, inner.eq_checks, proj,
                                    plan.cols)
        if type(inner) is Join:
            # A projection that keeps only one side's columns turns the
            # join into a semi-join — pi(L join R) = pi(L semijoin R)
            # when every kept column comes from L — so the (possibly
            # quadratic) match output is never materialized, just a
            # selection vector over the surviving side.
            for side, other in ((inner.left, inner.right),
                                (inner.right, inner.left)):
                if all(v in side.cols for v in plan.cols):
                    child = self._semi_between(side, other, True)
                    positions = tuple(side.cols.index(v) for v in plan.cols)
                    taken = [child.column(p) for p in positions]
                    if len(positions) == len(side.cols) or child.length == 0:
                        return ColumnarRelation(plan.cols, tuple(taken),
                                                child.length)
                    return _distinct_batch(plan.cols, taken, child.length,
                                           self._base())
        if type(inner) is Union:
            folded = self._union_filter_batch(inner)
            if folded is not None:
                taken = [folded.column(p) for p in plan.positions]
                if len(plan.positions) == folded.width \
                        or folded.length == 0:
                    return ColumnarRelation(plan.cols, tuple(taken),
                                            folded.length)
                return _distinct_batch(plan.cols, taken, folded.length,
                                       self._base())
            # Projection distributes over union: concatenate the parts'
            # projected columns and deduplicate once, instead of
            # deduplicating the full-width union first and the narrowed
            # projection again.
            parts = [self.run(part) for part in inner.parts]
            nonempty = [b for b in parts if b.length]
            if not nonempty:
                return ColumnarRelation.empty(plan.cols)
            merged: List[array] = []
            for pos in plan.positions:
                col = array("q")
                for batch in nonempty:
                    col.extend(batch.column(pos))
                merged.append(col)
            total = sum(b.length for b in nonempty)
            return _distinct_batch(plan.cols, merged, total, self._base())
        child = self.run(inner)
        taken = [child.column(p) for p in plan.positions]
        if len(plan.positions) == child.width or child.length == 0:
            # Pure reorder of distinct rows (or nothing to deduplicate).
            return ColumnarRelation(plan.cols, tuple(taken), child.length)
        return _distinct_batch(plan.cols, taken, child.length, self._base())

    def _run_join(self, plan: Join) -> ColumnarRelation:
        left = self.run(plan.left)
        right = self.run(plan.right)
        if left.length == 0 or right.length == 0:
            return ColumnarRelation.empty(plan.cols)
        shared = plan.shared
        lpos = [plan.left.cols.index(c) for c in shared]
        rpos = [plan.right.cols.index(c) for c in shared]
        base = self._base()
        lkeys = left.fused(lpos, base)
        # Build over the right (matching the row executor's build side
        # for plan parity); the index is cached on the batch, so build
        # sides living in the scan cache keep it across executions.
        # With distinct build keys — every key join in the rewritings —
        # the probe is three C-level comprehensions; the dict-of-lists
        # walk only runs for genuinely duplicated build keys.
        table, unique = right.join_index(rpos, base)
        lidx: Optional[List[int]]
        ridx: Sequence[int]
        if unique:
            jidx = list(map(table.get, lkeys, repeat(-1)))
            matched = list(compress(count(), map((-1).__ne__, jidx)))
            if len(matched) == left.length:
                lidx = None  # every left row matched, in order
                ridx = jidx
            else:
                lidx = matched
                ridx = pick(jidx, matched)
        else:
            # Duplicated build keys: flatten the matching row groups.
            # ``chain``/``repeat`` keep the per-match fan-out in C.
            groups = list(map(table.get, lkeys, repeat(())))
            lidx = list(chain.from_iterable(
                map(repeat, count(), map(len, groups))))
            ridx = list(chain.from_iterable(groups))
        # lidx None means the left side survives untouched: reuse its
        # columns instead of gathering an identity selection.
        out_columns = tuple(
            (left.column(pos) if lidx is None else
             gather(left.column(pos), lidx)) if side == 0
            else gather(right.column(pos), ridx)
            for side, pos in plan.emit
        )
        length = left.length if lidx is None else len(lidx)
        # No dedup: the output carries every column of both sides, so a
        # row determines the (left row, right row) pair that emitted it,
        # and distinct inputs give distinct outputs.
        result = ColumnarRelation(plan.cols, out_columns, length)
        # Fused keys over columns all gathered from one side (e.g. a
        # downstream semi-join on the preserved side's key) derive from
        # that side's cached key vector instead of a fresh fuse pass.
        result._origins = tuple(
            (left, lidx, pos) if side == 0 else (right, ridx, pos)
            for side, pos in plan.emit
        )
        return result

    def _semi_filter(self, plan, keep_matching: bool) -> ColumnarRelation:
        return self._semi_between(plan.left, plan.right, keep_matching)

    def _semi_between(self, left_plan: Plan, right_plan: Plan,
                      keep_matching: bool) -> ColumnarRelation:
        left = self.run(left_plan)
        if left.length == 0:
            return left
        right = self.run(right_plan)
        rcols = set(right_plan.cols)
        shared = [c for c in left_plan.cols if c in rcols]
        lpos = [left_plan.cols.index(c) for c in shared]
        rpos = [right_plan.cols.index(c) for c in shared]
        base = self._base()
        rset = set(right.fused(rpos, base))
        lkeys = left.fused(lpos, base)
        sel = _member_sel(lkeys, rset, keep_matching)
        if len(sel) == left.length:
            return left
        return left.select(sel)

    def _run_semi_join(self, plan: SemiJoin) -> ColumnarRelation:
        return self._semi_filter(plan, True)

    def _run_anti_join(self, plan: AntiJoin) -> ColumnarRelation:
        return self._semi_filter(plan, False)

    def _run_difference(self, plan: Difference) -> ColumnarRelation:
        left = self.run(plan.left)
        if left.length == 0:
            return left
        right = self.run(plan.right)
        if right.length == 0:
            return left
        base = self._base()
        positions = range(left.width)
        rset = set(right.fused(positions, base))
        lkeys = left.fused(positions, base)
        sel = _member_sel(lkeys, rset, False)
        if len(sel) == left.length:
            return left
        return left.select(sel)

    def _run_union(self, plan: Union) -> ColumnarRelation:
        folded = self._union_filter_batch(plan)
        if folded is not None:
            return folded
        parts = [self.run(part) for part in plan.parts]
        nonempty = [b for b in parts if b.length]
        if not nonempty:
            return ColumnarRelation.empty(plan.cols)
        if len(nonempty) == 1:
            return nonempty[0]
        width = len(plan.cols)
        merged: List[array] = []
        for j in range(width):
            col = array("q")
            for batch in nonempty:
                col.extend(batch.column(j))
            merged.append(col)
        total = sum(b.length for b in nonempty)
        return _distinct_batch(plan.cols, merged, total, self._base())

    _HANDLERS = {
        Scan: _run_scan,
        Literal: _run_literal,
        AdomProduct: _run_fallback,
        AdomGuard: _run_fallback,
        AdomEq: _run_fallback,
        Select: _run_select,
        Project: _run_project,
        Join: _run_join,
        SemiJoin: _run_semi_join,
        AntiJoin: _run_anti_join,
        Union: _run_union,
        Difference: _run_difference,
    }


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def columnar_rows(compiled, db: Database,
                  profile=None) -> FrozenSet[Row]:
    """All answer rows of a compiled open query, batch-executed.

    The columnar counterpart of ``CompiledQuery.rows``: one
    :class:`VectorExecutor` pass over the plan, decoded once at the
    root.  Byte-identical to the tuple executor's answer set (the
    parity suites and the benchmark digests assert it).
    """
    _STATS["runs"] += 1
    store = columnar_store(db)
    executor = VectorExecutor(db, compiled.constants, profile=profile,
                              store=store)
    batch = executor.run(compiled.plan)
    return frozenset(batch.to_rows(store.dictionary))


def columnar_holds(compiled, db: Database, profile=None) -> bool:
    """Boolean certainty under the columnar method.

    Sentences keep the row executor's probe-mode short-circuit (see
    :meth:`VectorExecutor.nonempty` for why); the delegation is counted
    in :func:`columnar_stats`.
    """
    _STATS["runs"] += 1
    _STATS["boolean_probe_delegations"] += 1
    return compiled.holds(db, profile=profile)


# ----------------------------------------------------------------------
# routing
# ----------------------------------------------------------------------


def prefer_columnar(compiled, db: Database) -> bool:
    """Should ``method="auto"`` take the columnar backend for this run?

    Three gates, cheapest first: the query must be open (a sentence
    runs on the row executor's short-circuit probe), its plan must be
    free of Adom* nodes (their batch form is a decode fallback; QP109
    reports this statically), and the database must carry at least
    :data:`COLUMNAR_MIN_FACTS` facts.  Past that size columnar measured
    at least as fast as the row executor on every open query, the
    cheapest included, so no cost estimate is consulted and routing
    never scans the database.
    """
    if not compiled.free or compiled.uses_adom:
        return False
    if db.size() < COLUMNAR_MIN_FACTS:
        return False
    _STATS["auto_routed"] += 1
    return True

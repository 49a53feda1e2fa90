"""The vectorized batch executor over the relational plan IR.

:class:`VectorExecutor` evaluates exactly the plan trees that
:mod:`repro.fo.compile` lowers and :class:`repro.fo.plan.Executor`
runs — same node types, same semantics, pinned by the PV001–PV013
verifier contract — but batch-at-a-time over
:class:`~repro.columnar.relation.ColumnarRelation` int columns instead
of row-at-a-time over Python tuples:

* **Scans** filter and project dictionary-encoded columns cached on the
  database's :class:`~repro.columnar.dictionary.ColumnarStore`
  (kept in step with the changelog: a write's deltas fold into them on
  the next read);
* **Joins** fuse the shared key columns into one int per row
  (:func:`~repro.columnar.relation.fuse`), build the hash table over
  those ints once per batch, and emit one index vector per side as the
  output columns' origins — a column is gathered only when some
  operator reads it, and no tuple is built anywhere on the match path;
* **Semi/anti-joins, difference, union, select, project** are selection
  -vector filters and fused-key set operations; a projection whose
  kept columns are all of one source's, through one index vector,
  selects that source's rows instead of deduplicating.

Two kinds of plan are handed whole to the row executor (the oracle):

* **Boolean plans** keep the probe-mode short-circuit: materializing
  every batch to answer "is it non-empty?" would undo that win, so
  :func:`columnar_holds` hands the sentence to
  ``CompiledQuery.holds``, the row executor's
  sideways-information-passing probe path.
* **Adom\\* plans** (any ``AdomProduct``/``AdomGuard``/``AdomEq`` node)
  enumerate the active domain, which no column encodes:
  :func:`columnar_rows` runs them on ``CompiledQuery.rows`` and ticks
  ``decode_fallbacks``.  A :class:`VectorExecutor` given such a node
  raises ``TypeError``.

``method="columnar"`` reaches this executor through
:func:`columnar_rows`; ``method="auto"`` routes every open query here
once the database reaches :data:`COLUMNAR_MIN_FACTS` facts (see
:func:`prefer_columnar`).
"""

from __future__ import annotations

from itertools import chain, compress, count, repeat
from operator import (
    and_ as op_and,
    eq as op_eq,
    ne as op_ne,
    not_ as op_not,
    or_ as op_or,
)
from time import perf_counter
from typing import (
    Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple)

from ..db.database import Database
from ..fo.plan import (
    AntiJoin,
    Difference,
    Join,
    Literal,
    Plan,
    Project,
    Scan,
    Select,
    SemiJoin,
    Union,
)
from ..obs.metrics import counters, snapshot
from .dictionary import ColumnarStore, columnar_store
from .relation import ColumnarRelation, fuse, gather

__all__ = [
    "VectorExecutor",
    "columnar_rows",
    "columnar_holds",
    "prefer_columnar",
    "columnar_stats",
    "COLUMNAR_MIN_FACTS",
]

Row = Tuple

#: Below this many facts ``auto`` never routes to the columnar backend
#: (encoding whole relations costs more than small tuple runs save).
COLUMNAR_MIN_FACTS = 4000

_STATS = counters(
    "columnar",
    runs=0,
    boolean_probe_delegations=0,
    decode_fallbacks=0,
    auto_routed=0,
    scan_cache_hits=0,
    answers_reused=0,
    answer_rows_decoded=0,
)


def columnar_stats() -> Dict[str, int]:
    """Process-wide columnar-backend counters.

    ``runs`` (executions through the backend),
    ``boolean_probe_delegations`` (sentences handed to the row
    executor's short-circuit probe), ``decode_fallbacks`` (Adom* plans
    handed to the row executor), ``auto_routed``
    (``method="auto"`` decisions for columnar), ``scan_cache_hits``
    (store-level scan results reused), ``answers_reused`` (answers
    built from the one the store kept for their plan, unchanged or
    patched), ``answer_rows_decoded`` (answer rows decoded from codes:
    every row on a full decode, the changed ones on a patch).  Feeds
    the ``columnar`` section of ``engine.metrics()``.
    """
    return snapshot("columnar")


# ----------------------------------------------------------------------
# batch execution
# ----------------------------------------------------------------------


def _dedup(columns: Sequence[List[int]], n: int,
           base: int) -> Tuple[Sequence[List[int]], int, Sequence[int]]:
    """Distinct rows of a column batch, via fused int keys.

    Keeps the first occurrence of every row (stable); returns the input
    unchanged when already distinct.  Every pass is C-level.  One
    column is its own key vector, and ``dict.fromkeys`` keeps its
    distinct codes in first-seen order.  Over several columns a set of
    the fused keys tests distinctness first; only a batch that repeats
    a row builds the first-occurrence map (a dict over the reversed
    keys: later writes win, so it keeps each key's *first* index).
    Also returns the surviving rows' fused keys so the caller can
    pre-seed the output batch's key cache (set operators downstream
    then skip re-fusing the very columns this just hashed).
    """
    if len(columns) == 1:
        distinct = list(dict.fromkeys(columns[0]))
        if len(distinct) == n:
            return columns, n, columns[0]
        return [distinct], len(distinct), distinct
    keys = fuse(columns, range(len(columns)), n, base)
    if len(set(keys)) == n:
        return columns, n, keys
    first = dict(zip(reversed(keys), range(n - 1, -1, -1)))
    sel = sorted(first.values())
    return ([gather(col, sel) for col in columns], len(sel),
            gather(keys, sel))


def _distinct_batch(cols, columns: Sequence[List[int]], n: int,
                    base: int) -> ColumnarRelation:
    """A deduplicated batch whose full-width fused keys are pre-cached."""
    deduped, m, keys = _dedup(columns, n, base)
    batch = ColumnarRelation(cols, deduped, m)
    batch._fused[(tuple(range(len(deduped))), base)] = keys
    return batch


def _one_source(batch: ColumnarRelation, cols,
                positions: Sequence[int]) -> Optional[ColumnarRelation]:
    """The projection of ``batch`` onto ``positions`` without a dedup,
    or ``None``.

    It applies when every kept column comes from one source batch
    through one index vector and the kept columns cover the source's
    columns.  Distinct source rows are then distinct output rows, so
    the projection is the source selected at the distinct indices.
    This is the violators projection of every ``forall`` lowering,
    ``pi_seed(sigma(seed join R))``: the join's match rows only ask
    which seed rows have a violating fact.
    """
    common = batch.common_origin(positions)
    if common is None:
        return None
    source, idx, spos = common
    if len(set(spos)) != source.width:
        return None
    if idx is not None:
        rows = sorted(set(idx))
        if len(rows) != source.length:
            source = source.select(rows)
    return source.reorder(cols, spos)


def _filter_common_child(union: Union) -> Optional[Plan]:
    """The shared input plan if every union part row-filters it.

    Accepts Select / SemiJoin / AntiJoin / Difference parts whose
    (left) input is the *same node object* (the compiler emits shared
    DAGs, and the executor memoizes by identity) and whose columns,
    like the union's, pass through unchanged; returns ``None`` for any
    other shape.
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
    if common is None or union.cols != common.cols:
        return None
    return common


def _probe_positions(left: Sequence, right: Sequence) -> Tuple[
        Tuple[int, ...], Tuple[int, ...]]:
    """The left and right positions of the columns ``left`` and
    ``right`` share, in left order: what a semi/anti-join compares."""
    rcols = set(right)
    shared = [c for c in left if c in rcols]
    return (tuple(left.index(c) for c in shared),
            tuple(right.index(c) for c in shared))


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


def _unfuse(keys: Iterable[int], width: int, radix: int,
            values: Sequence) -> List[Row]:
    """The value rows behind fused keys of ``width`` columns.

    Codes are append-only, so a key fused under ``radix`` at any
    earlier version still names the same values.
    """
    rows = []
    for key in keys:
        row = []
        for _ in range(width - 1):
            key, code = divmod(key, radix)
            row.append(values[code])
        row.append(values[key])
        row.reverse()
        rows.append(tuple(row))
    return rows


class VectorExecutor:
    """Batch-at-a-time plan execution against one database.

    The drop-in vectorized sibling of :class:`repro.fo.plan.Executor`:
    same memoization discipline (per-node by identity, structurally for
    scans), same ``profile`` protocol — plus the columnar-only
    ``batches`` counter.  Results are
    :class:`ColumnarRelation` batches holding dictionary codes; decode
    the root with the store's dictionary (or use :func:`columnar_rows`).
    """

    def __init__(self, db: Database, profile=None,
                 store: Optional[ColumnarStore] = None):
        self.db = db
        self.store = store if store is not None else columnar_store(db)
        self._memo: Dict[object, ColumnarRelation] = {}
        self._profile = profile

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

    def rows(self, plan: Plan) -> FrozenSet[Row]:
        """Execute and decode back to value tuples."""
        return self.run(plan).to_rows(self.store.dictionary)

    # ------------------------------------------------------------------

    def _dispatch(self, plan: Plan) -> ColumnarRelation:
        method = self._HANDLERS.get(type(plan))
        if method is None:
            raise TypeError(f"no columnar executor for plan node {plan!r}")
        return method(self, plan)

    def _base(self) -> int:
        """The fused-key radix: the smallest power of two above every
        assigned code.

        Rounding up keeps the radix fixed while the dictionary grows
        inside one power of two, so the key vectors cached on the
        store's base batches (and patched by its folds) stay usable
        after a write adds a few codes.
        """
        return 1 << max(0, len(self.store.dictionary) - 1).bit_length()

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
            view = ColumnarRelation(out_cols, hit.columns, hit.length,
                                    fused=hit._fused)
            view._origins = hit._origins
            return view
        base = store.relation_batch(db, relation)
        columns, n = base.columns, base.length
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
            if sel is None:
                # The relation's own columns: fused keys come from the
                # base batch, whose key vectors outlive writes.
                result._origins = tuple((base, None, p) for p in proj)
        store.scan_cache_put(db, key, result)
        return result

    def _run_literal(self, plan: Literal) -> ColumnarRelation:
        return ColumnarRelation.from_rows(plan.cols, plan.rows,
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

    def _select_mask(self, part: Select,
                     child: ColumnarRelation) -> List[bool]:
        """The boolean row mask a Select part of a union fold keeps
        over ``child`` (the plan behind it); every map is a C-level
        pass."""
        n = child.length
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
            mask = cond if mask is None else list(map(op_and, mask, cond))
        return mask if mask is not None else [True] * n

    def _union_filter_batch(self, plan: Union,
                            common: Plan) -> ColumnarRelation:
        """The disjunctive-filter fold of a union over ``common``.

        When every part of the union is a row filter — Select,
        SemiJoin, AntiJoin or Difference — over the *same shared child
        node* (:func:`_filter_common_child`), the union equals the
        child filtered by the OR of the parts: each part keeps a subset
        of one distinct row set, so no concatenation and no
        re-deduplication is needed.  This is the shape every
        ``forall``-guard rewriting lowers to (several guards over one
        candidate join), where the naive path would materialize the
        join output once per guard.  SemiJoin parts that probe the same
        child columns merge their right sides' keys into one set, so
        the child's keys pass through one membership test per group,
        and the parts' masks combine lazily in one pass.

        The parts never run as nodes of their own.  Under a profile
        each gets the inclusive time of the right side it ran (the
        first also that of the shared child), so the union's self time
        is the probe alone.
        """
        profile = self._profile
        t0 = perf_counter()
        child = self.run(common)
        if child.length == 0:
            return child
        rights: List[Optional[ColumnarRelation]] = []
        for part in plan.parts:
            rights.append(None if type(part) is Select
                          else self.run(part.right))
            if profile is not None:
                t1 = perf_counter()
                profile.stats_for(part).seconds += t1 - t0
                t0 = t1
        # The radix is read *after* every right side ran: a run may
        # encode fresh values, and fusing with a radix below the
        # dictionary size makes distinct key tuples collide.
        base = self._base()
        probes: Dict[Tuple[int, ...], Set[int]] = {}
        masks: List[Iterable[bool]] = []
        for part, right in zip(plan.parts, rights):
            tp = type(part)
            if right is None:
                masks.append(self._select_mask(part, child))
                continue
            if tp is Difference:
                lpos = rpos = tuple(range(child.width))
            else:
                lpos, rpos = _probe_positions(part.left.cols,
                                              part.right.cols)
            rkeys = right.fused(rpos, base)
            if tp is SemiJoin:
                merged = probes.get(lpos)
                if merged is None:
                    probes[lpos] = set(rkeys)
                else:
                    merged.update(rkeys)
            else:
                rset = set(rkeys)
                masks.append(map(op_not, map(rset.__contains__,
                                             child.fused(lpos, base))))
        for lpos, members in probes.items():
            masks.append(map(members.__contains__, child.fused(lpos, base)))
        combined = masks[0]
        for mask in masks[1:]:
            combined = map(op_or, combined, mask)
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
            # selection vector over the surviving side.  The join never
            # runs as a node; a profile charges it the semi-join's time.
            for side, other in ((inner.left, inner.right),
                                (inner.right, inner.left)):
                if all(v in side.cols for v in plan.cols):
                    t0 = perf_counter()
                    child = self._semi_between(side, other, True)
                    if self._profile is not None:
                        self._profile.stats_for(inner).seconds += \
                            perf_counter() - t0
                    positions = tuple(side.cols.index(v) for v in plan.cols)
                    return self._narrow(plan.cols, child, positions)
        if type(inner) is Union:
            if _filter_common_child(inner) is not None:
                # The fold runs as the union node, so a profile records
                # it under its own operator.
                return self._narrow(plan.cols, self.run(inner),
                                    plan.positions)
            # Projection distributes over union: concatenate the parts'
            # projected columns and deduplicate once, instead of
            # deduplicating the full-width union first and the narrowed
            # projection again.  The union never runs as a node of its
            # own: a profile records it over its parts' runs, with their
            # rows before the projection deduplicates.
            t0 = perf_counter()
            parts = [self.run(part) for part in inner.parts]
            if self._profile is not None:
                self._profile.record(inner, perf_counter() - t0,
                                     sum(b.length for b in parts))
            nonempty = [b for b in parts if b.length]
            if not nonempty:
                return ColumnarRelation.empty(plan.cols)
            merged = [list(chain.from_iterable(b.column(pos)
                                               for b in nonempty))
                      for pos in plan.positions]
            total = sum(b.length for b in nonempty)
            return _distinct_batch(plan.cols, merged, total, self._base())
        return self._narrow(plan.cols, self.run(inner), plan.positions)

    def _narrow(self, cols, child: ColumnarRelation,
                positions: Sequence[int]) -> ColumnarRelation:
        """``child`` projected onto ``positions`` under ``cols``.

        Deduplicates only when the kept columns may repeat a row: a
        pure reorder and a one-source projection (see
        :func:`_one_source`) keep distinct rows distinct.
        """
        if len(positions) == child.width or child.length == 0:
            return child.reorder(cols, positions)
        narrowed = _one_source(child, cols, positions)
        if narrowed is not None:
            return narrowed
        taken = [child.column(p) for p in positions]
        return _distinct_batch(cols, taken, child.length, self._base())

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
                ridx = gather(jidx, matched)
        else:
            # Duplicated build keys: flatten the matching row groups.
            # ``chain``/``repeat`` keep the per-match fan-out in C.
            groups = list(map(table.get, lkeys, repeat(())))
            lidx = list(chain.from_iterable(
                map(repeat, count(), map(len, groups))))
            ridx = list(chain.from_iterable(groups))
        length = left.length if lidx is None else len(lidx)
        # No dedup: the output carries every column of both sides, so a
        # row determines the (left row, right row) pair that emitted it,
        # and distinct inputs give distinct outputs.  No gather either:
        # the index vectors become the columns' origins, and a column is
        # gathered only when some operator reads it.
        return ColumnarRelation(plan.cols, None, length, origins=tuple(
            (left, lidx, pos) if side == 0 else (right, ridx, pos)
            for side, pos in plan.emit
        ))

    def _semi_filter(self, plan, keep_matching: bool) -> ColumnarRelation:
        return self._semi_between(plan.left, plan.right, keep_matching)

    def _semi_between(self, left_plan: Plan, right_plan: Plan,
                      keep_matching: bool) -> ColumnarRelation:
        left = self.run(left_plan)
        if left.length == 0:
            return left
        right = self.run(right_plan)
        lpos, rpos = _probe_positions(left_plan.cols, right_plan.cols)
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
        common = _filter_common_child(plan)
        if common is not None:
            return self._union_filter_batch(plan, common)
        parts = [self.run(part) for part in plan.parts]
        nonempty = [b for b in parts if b.length]
        if not nonempty:
            return ColumnarRelation.empty(plan.cols)
        if len(nonempty) == 1:
            return nonempty[0]
        merged = [list(chain.from_iterable(b.column(j) for b in nonempty))
                  for j in range(len(plan.cols))]
        total = sum(b.length for b in nonempty)
        return _distinct_batch(plan.cols, merged, total, self._base())

    _HANDLERS = {
        Scan: _run_scan,
        Literal: _run_literal,
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
    :class:`VectorExecutor` pass over the plan, decoded at the root
    against the answer the store kept for this plan (see
    :func:`_decode_answer`).  Byte-identical to the tuple executor's
    answer set (the parity suites and the benchmark digests assert
    it).  A plan with an Adom* node has no batch form: it runs on
    ``compiled.rows``, counted in ``decode_fallbacks`` (and, under
    ``profile``, on the root node).
    """
    _STATS["runs"] += 1
    if compiled.uses_adom:
        _STATS["decode_fallbacks"] += 1
        if profile is not None:
            profile.count(compiled.plan, "decode_fallbacks")
        return compiled.rows(db, profile=profile)
    store = columnar_store(db)
    executor = VectorExecutor(db, profile=profile, store=store)
    root = executor.run(compiled.plan)
    return _decode_answer(store, compiled.plan, root, executor._base())


def _decode_answer(store: ColumnarStore, plan: Plan, root: ColumnarRelation,
                   radix: int) -> FrozenSet[Row]:
    """The value rows of ``root``, the plan's answer batch.

    The store keeps, per plan, the answer it last returned together
    with the set of its rows' fused keys under ``radix``.  An equal key
    set returns the kept answer itself.  Otherwise the kept answer
    loses the rows of vanished keys and gains those of new keys, each
    unfused and decoded on its own.  A full decode runs only when
    there is nothing comparable kept (another radix, no columns), or
    when more keys changed than half the new answer holds: past that,
    copying the kept set and decoding the change costs about as much
    as decoding everything.
    """
    width = root.width
    if width == 0:
        return root.to_rows(store.dictionary)
    keys = frozenset(root.fused(range(width), radix))
    kept = store.kept_answer(plan)
    answer: Optional[FrozenSet[Row]] = None
    if kept is not None and kept[0] == radix:
        _, kept_keys, kept_rows = kept
        if keys == kept_keys:
            answer, decoded = kept_rows, 0
        else:
            added = keys - kept_keys
            vanished = len(kept_keys) - (len(keys) - len(added))
            decoded = len(added) + vanished
            if 2 * decoded <= len(keys):
                values = store.dictionary.values
                answer = kept_rows
                if vanished:
                    answer = answer.difference(
                        _unfuse(kept_keys - keys, width, radix, values))
                if added:
                    answer = answer.union(
                        _unfuse(added, width, radix, values))
    if answer is None:
        answer = root.to_rows(store.dictionary)
        decoded = len(answer)
    else:
        _STATS["answers_reused"] += 1
    _STATS["answer_rows_decoded"] += decoded
    store.keep_answer(plan, (radix, keys, answer))
    return answer


def columnar_holds(compiled, db: Database, profile=None) -> bool:
    """Boolean certainty under the columnar method.

    Sentences keep the row executor's probe-mode short-circuit:
    materializing full batches to test emptiness would give up the
    first-witness / first-violation exit, so the sentence runs on
    ``CompiledQuery.holds`` unchanged.  The delegation is counted in
    :func:`columnar_stats`.
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
    free of Adom* nodes (the columnar backend hands those plans to the
    row executor; QP103 reports this statically), and the database
    must carry at least :data:`COLUMNAR_MIN_FACTS` facts.  Past that
    size columnar measured at least as fast as the row executor on
    every open query, the cheapest included, so no cost estimate is
    consulted and routing never scans the database.
    """
    if not compiled.free or compiled.uses_adom:
        return False
    if db.size() < COLUMNAR_MIN_FACTS:
        return False
    _STATS["auto_routed"] += 1
    return True

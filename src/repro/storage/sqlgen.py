"""Compile the relational plan IR to one sqlite SELECT.

This is what ``method="sql"`` runs: instead of re-deriving SQL from
the first-order *formula* (:mod:`repro.fo.sql`, the paper's
single-query artifact), the PV-verified plan IR — the exact tree the
in-memory executors run — is translated node-by-node into a chain of
non-recursive CTEs ending in a single ``SELECT``.  Every node type but
the three ``Adom*`` ones translates; those enumerate the active domain,
so :mod:`repro.storage.pushdown` hands a plan holding one to the row
executor, and compiling one here raises
:class:`~repro.fo.plan.PlanError`.  The translation
targets the integer-encoded mirror of :mod:`repro.storage.pushdown`:
every column is a :class:`~repro.columnar.dictionary.ValueDictionary`
code (INTEGER), and constants are bound as parameters (encoded per
call, never inlined).

Correctness leans on two invariants:

* **Distinct rows.**  Every CTE holds each row at most once (mirror
  tables have a full-tuple primary key; lossy projections say
  ``DISTINCT``; ``Join`` output is injective in its input pair;
  ``UNION``/``EXCEPT`` are set operators), so SQL bag semantics never
  diverge from the executor's set semantics.
* **Code/value bijection.**  Dictionary codes are injective, so code
  (dis)equality is value (dis)equality; a constant unseen by the
  dictionary binds to a fresh code that matches nothing — exactly the
  executor's behaviour on a value absent from the database.

The distinct-rows invariant also buys the two row-value forms sqlite
optimizes well: semi/anti joins become ``(cols) IN`` / ``NOT IN``
subqueries (the right side is materialized into one transient index
instead of a correlated probe per row — safe because codes are never
NULL), and ``Difference`` becomes a ``NOT IN`` filter over its
already-distinct left side.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Set, Tuple

from ..core.atoms import RelationSchema
from ..fo import plan as ir
from ..fo.sql import table_name

__all__ = ["CompiledSQL", "compile_plan", "plan_relations"]


def plan_relations(plan: ir.Plan) -> Set[str]:
    """The relation names the plan scans (tables the query references)."""
    return {node.atom.relation for node in ir.plan_nodes(plan)
            if isinstance(node, ir.Scan)}


class CompiledSQL:
    """One parameterized statement compiled from a plan.

    ``params`` holds *raw* values in placeholder order; the mirror
    encodes them to dictionary codes at bind time, so the SQL text is
    stable across calls and sqlite's prepared-statement cache gets
    genuine reuse.
    """

    __slots__ = ("sql", "params", "width")

    def __init__(self, sql: str, params: Tuple[object, ...], width: int):
        self.sql = sql
        self.params = params
        self.width = width

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledSQL({len(self.params)} params)\n{self.sql}"


class _Builder:
    """Post-order plan walk emitting one CTE per distinct node.

    Parameters are appended while each CTE body is built and bodies are
    concatenated in creation order, so placeholder order in the final
    text equals append order — the contract of positional binding.
    """

    def __init__(self, schemas: Mapping[str, RelationSchema]):
        self.schemas = schemas
        self.ctes: List[Tuple[str, str]] = []
        self.params: List[object] = []
        self._memo: Dict[object, str] = {}

    # -- helpers -------------------------------------------------------

    def _emit(self, body: str) -> str:
        name = f"_p{len(self.ctes)}"
        self.ctes.append((name, body))
        return name

    @staticmethod
    def _sel(width: int, prefix: str = "") -> str:
        """Pass-through select list for a node of the given width."""
        if width == 0:
            return f"{prefix}u AS u" if prefix else "u"
        return ", ".join(f"{prefix}c{j} AS c{j}" if prefix else f"c{j}"
                         for j in range(width))

    def _empty(self, width: int) -> str:
        if width == 0:
            return "SELECT 1 AS u WHERE 0"
        cols = ", ".join(f"0 AS c{j}" for j in range(width))
        return f"SELECT {cols} WHERE 0"

    # -- dispatch ------------------------------------------------------

    def compile(self, node: ir.Plan) -> str:
        # Memoize by node identity so a multiply-referenced subtree
        # shares one CTE.  Scans are the exception: every reference
        # gets its own single-use CTE, which sqlite flattens into
        # direct indexed access on the base table — a shared scan CTE
        # would be materialized as an unindexed temporary instead.
        if type(node) is ir.Scan:
            return self._scan(node)
        hit = self._memo.get(id(node))
        if hit is not None:
            return hit
        name = self._dispatch(node)
        self._memo[id(node)] = name
        return name

    def _dispatch(self, node: ir.Plan) -> str:
        if type(node) is ir.Scan:
            return self._scan(node)
        if type(node) is ir.Literal:
            return self._literal(node)
        if type(node) is ir.Select:
            return self._select(node)
        if type(node) is ir.Project:
            return self._project(node)
        if type(node) is ir.Join:
            return self._join(node)
        if type(node) is ir.SemiJoin:
            return self._semi(node, anti=False)
        if type(node) is ir.AntiJoin:
            return self._semi(node, anti=True)
        if type(node) is ir.Union:
            return self._union(node)
        if type(node) is ir.Difference:
            return self._difference(node)
        raise ir.PlanError(
            f"no SQL translation for {type(node).__name__}")

    # -- leaves --------------------------------------------------------

    def _scan(self, node: ir.Scan) -> str:
        schema = self.schemas.get(node.atom.relation)
        if schema is None or schema.arity != node.atom.schema.arity:
            # Executor semantics: a missing or arity-mismatched
            # relation scans empty.
            return self._emit(self._empty(len(node.cols)))
        conds = []
        for i in sorted(node.consts):
            conds.append(f"t.c{i} = ?")
            self.params.append(node.consts[i])
        conds.extend(f"t.c{a} = t.c{b}" for a, b in node.eq_checks)
        if node.proj:
            sel = ", ".join(f"t.c{p} AS c{k}"
                            for k, p in enumerate(node.proj))
        else:
            sel = "1 AS u"
        # The table's full-tuple primary key keeps rows distinct; a
        # lossy projection needs an explicit DISTINCT.
        distinct = "DISTINCT " if len(node.proj) < schema.arity else ""
        where = f" WHERE {' AND '.join(conds)}" if conds else ""
        return self._emit(
            f"SELECT {distinct}{sel} "
            f"FROM {table_name(node.atom.relation)} t{where}")

    def _literal(self, node: ir.Literal) -> str:
        rows = sorted(node.rows, key=repr)
        if not node.cols:
            return self._emit("SELECT 1 AS u" if rows
                              else "SELECT 1 AS u WHERE 0")
        if not rows:
            return self._emit(self._empty(len(node.cols)))
        width = len(node.cols)
        tuples = ", ".join(
            "(" + ", ".join("?" for _ in range(width)) + ")"
            for _ in rows)
        for row in rows:
            self.params.extend(row)
        sel = ", ".join(f"column{j + 1} AS c{j}" for j in range(width))
        return self._emit(f"SELECT {sel} FROM (VALUES {tuples})")

    # -- unary ---------------------------------------------------------

    def _select(self, node: ir.Select) -> str:
        child = self.compile(node.child)
        conds = []
        for lhs, rhs, equal in node.conds:
            op = "=" if equal else "<>"
            conds.append(f"{self._operand(lhs)} {op} {self._operand(rhs)}")
        sel = self._sel(len(node.cols))
        return self._emit(
            f"SELECT {sel} FROM {child} WHERE {' AND '.join(conds)}")

    def _operand(self, operand: ir.Operand) -> str:
        kind, payload = operand
        if kind == "col":
            return f"c{payload}"
        self.params.append(payload)
        return "?"

    def _project(self, node: ir.Project) -> str:
        child = self.compile(node.child)
        if not node.cols:
            return self._emit(f"SELECT DISTINCT 1 AS u FROM {child}")
        sel = ", ".join(f"c{p} AS c{k}"
                        for k, p in enumerate(node.positions))
        # A permutation of distinct child rows stays distinct.
        lossless = (len(set(node.positions)) == len(node.positions)
                    and len(node.positions) == len(node.child.cols))
        distinct = "" if lossless else "DISTINCT "
        return self._emit(f"SELECT {distinct}{sel} FROM {child}")

    # -- binary --------------------------------------------------------

    def _join(self, node: ir.Join) -> str:
        left = self.compile(node.left)
        right = self.compile(node.right)
        if node.emit:
            sel = ", ".join(
                f"{'l' if side == 0 else 'r'}.c{i} AS c{k}"
                for k, (side, i) in enumerate(node.emit))
        else:
            sel = "1 AS u"
        conds = [
            f"l.c{node.left.cols.index(v)} = r.c{node.right.cols.index(v)}"
            for v in node.shared
        ]
        where = f" WHERE {' AND '.join(conds)}" if conds else ""
        return self._emit(
            f"SELECT {sel} FROM {left} l, {right} r{where}")

    def _semi(self, node, anti: bool) -> str:
        left = self.compile(node.left)
        right = self.compile(node.right)
        sel = self._sel(len(node.cols), prefix="l.")
        shared = node.shared
        if not shared:
            keyword = "NOT EXISTS" if anti else "EXISTS"
            return self._emit(
                f"SELECT {sel} FROM {left} l "
                f"WHERE {keyword} (SELECT 1 FROM {right})")
        # Row-value (NOT) IN: sqlite materializes the right side into
        # one transient index instead of probing per left row.  Codes
        # are INTEGER NOT NULL throughout, so NOT IN is exact.
        lhs = ", ".join(f"l.c{node.left.cols.index(v)}" for v in shared)
        if len(shared) > 1:
            lhs = f"({lhs})"
        rhs = ", ".join(f"c{node.right.cols.index(v)}" for v in shared)
        op = "NOT IN" if anti else "IN"
        return self._emit(
            f"SELECT {sel} FROM {left} l "
            f"WHERE {lhs} {op} (SELECT {rhs} FROM {right})")

    def _union(self, node: ir.Union) -> str:
        sel = self._sel(len(node.cols))
        parts = [f"SELECT {sel} FROM {self.compile(part)}"
                 for part in node.parts]
        return self._emit(" UNION ".join(parts))

    def _difference(self, node: ir.Difference) -> str:
        width = len(node.cols)
        sel = self._sel(width)
        left = self.compile(node.left)
        right = self.compile(node.right)
        if width == 0:
            return self._emit(
                f"SELECT u FROM {left} "
                f"WHERE NOT EXISTS (SELECT 1 FROM {right})")
        # The left side is already distinct (module invariant), so a
        # NOT IN filter equals EXCEPT while letting sqlite build one
        # transient index over the right side.
        lhs = ", ".join(f"c{j}" for j in range(width))
        if width > 1:
            lhs = f"({lhs})"
        return self._emit(
            f"SELECT {sel} FROM {left} "
            f"WHERE {lhs} NOT IN (SELECT {sel} FROM {right})")


def compile_plan(plan: ir.Plan, schemas: Mapping[str, RelationSchema],
                 probe: bool = False) -> CompiledSQL:
    """One parameterized SELECT computing ``execute_plan(plan, db)``.

    With ``probe=True`` (or a nullary plan) the statement returns a
    single 0/1 row — the short-circuit boolean form.  An ``Adom*`` node
    raises :class:`~repro.fo.plan.PlanError`.
    """
    builder = _Builder(schemas)
    root = builder.compile(plan)
    if probe or not plan.cols:
        final = f"SELECT EXISTS (SELECT 1 FROM {root})"
        width = 0
    else:
        width = len(plan.cols)
        sel = ", ".join(f"c{j}" for j in range(width))
        final = f"SELECT {sel} FROM {root}"
    ctes = [f"{name} AS ({body})" for name, body in builder.ctes]
    sql = "WITH " + ",\n     ".join(ctes) + "\n" + final
    return CompiledSQL(sql, tuple(builder.params), width)

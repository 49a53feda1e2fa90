"""The plan-IR → SQL compiler: per-node parity with the executor.

Every supported node type, compiled through :func:`compile_plan` and
run natively inside the store's integer-encoded mirror, must return
exactly the rows of :func:`execute_plan` on the same database — the
executor is the semantics, the SQL is an implementation.  Distinct-row
parity holds because mirror tables carry a full-tuple primary key and
the compiler adds DISTINCT exactly at lossy projections.  ``Adom*``
nodes have no translation: ``method="sql"`` hands their plans to the
row executor, and the battery checks that hand-over answers the same.
"""

from __future__ import annotations

import pytest

from repro.core.atoms import RelationSchema
from repro.core.parser import parse_query
from repro.columnar import columnar_rows
from repro.core.terms import Variable
from repro.fo.compile import CompiledQuery
from repro.fo.plan import (
    AdomEq,
    AdomGuard,
    AdomProduct,
    AntiJoin,
    Difference,
    Join,
    Literal,
    Plan,
    PlanError,
    Project,
    Scan,
    Select,
    SemiJoin,
    Union,
    execute_plan,
    plan_nodes,
)
from repro.storage import (
    PersistentDatabase,
    compile_plan,
    native_sql_answers,
    sql_mirror,
)

w = Variable("w")
x, y, z = Variable("x"), Variable("y"), Variable("z")


def atom_of(text):
    """The single atom of a one-atom query text."""
    return parse_query(text).atoms[0]


def fake_compiled(plan, constants=(), free=None):
    """A compiled query over a synthetic plan."""
    return CompiledQuery(None, tuple(plan.cols if free is None else free),
                         plan, tuple(constants))


@pytest.fixture()
def store(tmp_path):
    db = PersistentDatabase(tmp_path / "store")
    db.add_relation(RelationSchema("R", 2, 1))
    db.add_relation(RelationSchema("S", 2, 1))
    db.add_relation(RelationSchema("T", 3, 1))
    with db.batch():
        db.add_all("R", [("a", "1"), ("b", "2"), ("c", "1"), ("d", "d")])
        db.add_all("S", [("a", "1"), ("b", "9"), ("1", "a")])
        db.add_all("T", [("a", "1", "p"), ("b", "2", "q"), ("e", "e", "e")])
    yield db
    db.close()


def assert_parity(plan, db, constants=()):
    compiled = fake_compiled(plan, constants)
    native = native_sql_answers(compiled, db)
    assert native is not None, "plan unexpectedly unsupported"
    assert native == frozenset(execute_plan(plan, db, constants))


scan_r = lambda: Scan(atom_of("R(x | y)"))
scan_r_yz = lambda: Scan(atom_of("R(y | z)"))
scan_s_xy = lambda: Scan(atom_of("S(x | y)"))
scan_s_yz = lambda: Scan(atom_of("S(y | z)"))


PLANS = {
    "scan": lambda: scan_r(),
    "scan-const-key": lambda: Scan(atom_of("R('a' | y)")),
    "scan-const-value": lambda: Scan(atom_of("R(x | '1')")),
    "scan-repeated-var": lambda: Scan(atom_of("R(x | x)")),
    "scan-all-const": lambda: Scan(atom_of("R('a' | '1')")),
    "scan-unseen-const": lambda: Scan(atom_of("R('nowhere' | y)")),
    "literal": lambda: Literal((x, y), {("a", "1"), ("q", "q")}),
    "literal-true": lambda: Literal((), {()}),
    "literal-false": lambda: Literal((), set()),
    "select-const-eq": lambda: Select(
        scan_r(), [(("col", 0), ("const", "b"), True)]),
    "select-const-diseq": lambda: Select(
        scan_r(), [(("col", 1), ("const", "1"), False)]),
    "select-col-eq": lambda: Select(
        scan_r(), [(("col", 0), ("col", 1), True)]),
    "project-lossy": lambda: Project(scan_r(), (y,)),
    "project-reorder": lambda: Project(scan_r(), (y, x)),
    "project-nullary": lambda: Project(scan_r(), ()),
    "join-shared": lambda: Join(scan_r(), scan_s_yz()),
    "join-cross": lambda: Join(
        Project(scan_r(), (x,)), Project(Scan(atom_of("S(y | z)")), (z,))),
    "semijoin": lambda: SemiJoin(scan_r(), scan_s_yz()),
    "antijoin": lambda: AntiJoin(scan_r(), scan_s_yz()),
    "union": lambda: Union([scan_r(), scan_s_xy()]),
    "difference": lambda: Difference(scan_r(), scan_s_xy()),
    # Two scans of one relation whose shared column sits at different
    # atom positions: neither side keeps every row of the other.
    "semijoin-same-relation": lambda: SemiJoin(scan_r(), scan_r_yz()),
    "antijoin-same-relation": lambda: AntiJoin(scan_r(), scan_r_yz()),
    "difference-same-relation": lambda: Difference(
        Project(scan_r(), (y,)), Project(scan_r_yz(), (y,))),
    "adom-product": lambda: AdomProduct((x,)),
    "adom-eq": lambda: AdomEq(x, y),
    "adom-guard-join": lambda: Join(scan_r(), AdomGuard()),
    "nested": lambda: Project(
        Select(Join(scan_r(), scan_s_yz()),
               [(("col", 0), ("const", "b"), False)]),
        (x, z)),
}


class TestNodeParity:
    @pytest.mark.parametrize("name", sorted(PLANS))
    def test_native_matches_executor(self, name, store):
        assert_parity(PLANS[name](), store)

    @pytest.mark.parametrize("name", sorted(
        name for name in PLANS if name.endswith("-same-relation")))
    def test_columnar_matches_executor(self, name, store):
        plan = PLANS[name]()
        assert (columnar_rows(fake_compiled(plan), store)
                == frozenset(execute_plan(plan, store)))

    def test_adom_with_constants(self, store):
        # A query constant outside the database still joins the adom.
        assert_parity(AdomProduct((x,)), store, constants=("ghost",))

    def test_scan_of_missing_relation_is_empty(self, store):
        plan = Scan(atom_of("Unknown(x | y)"))
        assert_parity(plan, store)
        assert native_sql_answers(fake_compiled(plan), store) == frozenset()

    def test_scan_arity_mismatch_is_empty(self, store):
        # T has arity 3; a two-term atom matches nothing (executor
        # semantics: schema mismatch yields the empty relation).
        plan = Scan(atom_of("T(x | y)"))
        assert_parity(plan, store)
        assert native_sql_answers(fake_compiled(plan), store) == frozenset()


class TestCompileShape:
    SCHEMAS = {"R": RelationSchema("R", 2, 1)}

    def test_single_statement_with_bound_params(self):
        compiled = compile_plan(Scan(atom_of("R('a' | y)")), self.SCHEMAS)
        assert ";" not in compiled.sql
        assert "'a'" not in compiled.sql  # constants bind, never inline
        assert compiled.sql.count("?") == len(compiled.params) == 1
        assert compiled.params == ("a",)

    def test_probe_form_is_exists(self):
        compiled = compile_plan(Scan(atom_of("R(x | y)")), self.SCHEMAS,
                                probe=True)
        assert compiled.sql.lstrip().startswith("WITH ")
        assert "SELECT EXISTS" in compiled.sql
        assert compiled.width == 0

    def test_nullary_plan_compiles_to_probe(self):
        compiled = compile_plan(Project(Scan(atom_of("R(x | y)")), ()),
                                self.SCHEMAS)
        assert "SELECT EXISTS" in compiled.sql
        assert compiled.width == 0

    def test_lossy_projection_is_distinct(self):
        compiled = compile_plan(Project(Scan(atom_of("R(x | y)")), (y,)),
                                self.SCHEMAS)
        assert "DISTINCT" in compiled.sql
        lossless = compile_plan(Project(Scan(atom_of("R(x | y)")), (y, x)),
                                self.SCHEMAS)
        final_cte = lossless.sql.split("AS (")[-1]
        assert "DISTINCT" not in final_cte  # permutations stay bags

    def test_every_node_type_compiles_and_unknown_raises(self):
        # Every plan node type but the three Adom* ones translates;
        # those, like an unknown node type, are a loud error (the
        # pushdown hands Adom* plans to the row executor first).
        schemas = {"R": RelationSchema("R", 2, 1),
                   "S": RelationSchema("S", 2, 1)}
        kinds = {type(node) for make in PLANS.values()
                 for node in plan_nodes(make())}
        assert len(kinds) == 12
        adom = (AdomProduct, AdomGuard, AdomEq)
        for make in PLANS.values():
            plan = make()
            if any(isinstance(node, adom) for node in plan_nodes(plan)):
                with pytest.raises(PlanError, match="no SQL translation"):
                    compile_plan(plan, schemas)
            else:
                compile_plan(plan, schemas)

        class OpaquePlan(Plan):
            __slots__ = ()

            def __init__(self):
                super().__init__((x,))

        with pytest.raises(PlanError, match="no SQL translation"):
            compile_plan(Join(scan_r(), OpaquePlan()), schemas)


class TestStatementCache:
    def test_same_plan_object_hits_cache(self, store):
        mirror = sql_mirror(store)
        plan = scan_r()
        compiled = fake_compiled(plan)
        native_sql_answers(compiled, store)
        before = mirror.stats()["stmt_cache"]
        native_sql_answers(compiled, store)
        after = mirror.stats()["stmt_cache"]
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_new_relation_bumps_epoch(self, store):
        # Adding a relation changes len(db.schemas): cached statements
        # for the old epoch must not serve the new schema set.
        mirror = sql_mirror(store)
        plan = scan_r()
        compiled = fake_compiled(plan)
        native_sql_answers(compiled, store)
        store.add_relation(RelationSchema("U", 2, 1))
        misses = mirror.stats()["stmt_cache"]["misses"]
        native_sql_answers(compiled, store)
        assert mirror.stats()["stmt_cache"]["misses"] == misses + 1

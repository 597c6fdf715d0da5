"""Unit tests for logical plan nodes and EXPLAIN."""

import pytest

from repro.errors import PlanError
from repro.relational.aggregates import agg_sum
from repro.relational.catalog import Catalog
from repro.relational.context import ExecutionContext
from repro.relational.expressions import col
from repro.relational.plan import (
    Custom,
    Distinct,
    Extend,
    GroupBy,
    Groupwise,
    HashJoin,
    Limit,
    MaterializedInput,
    MergeJoin,
    NestedLoopJoin,
    OrderBy,
    Project,
    Select,
    TableScan,
    explain,
)
from repro.relational.relation import Relation


@pytest.fixture
def catalog():
    c = Catalog()
    c.register(
        "emp",
        Relation.from_rows(
            ["dept", "name", "salary"],
            [("eng", "ann", 120), ("eng", "bob", 100), ("ops", "cid", 90)],
        ),
    )
    c.register("dept", Relation.from_rows(["d", "site"], [("eng", "hq"), ("ops", "east")]))
    return c


class TestLeaves:
    def test_table_scan(self, catalog):
        assert TableScan("emp").execute(catalog).num_rows == 3

    def test_materialized(self, catalog):
        rel = Relation.from_rows(["x"], [(1,)])
        node = MaterializedInput(rel, "lit")
        assert node.execute(catalog) is rel
        assert "lit" in node.label()


class TestMorselCapacity:
    """``batch_size`` is a capacity >= 1; there is no engine behind 0."""

    def test_context_rejects_zero_at_construction(self):
        with pytest.raises(PlanError, match="got 0"):
            ExecutionContext(batch_size=0)

    def test_capacity_set_later_fails_before_any_operator_runs(self, catalog):
        ran = []
        plan = Custom(TableScan("emp"), lambda rel: ran.append(rel) or rel, "spy")
        ctx = ExecutionContext(catalog=catalog)
        ctx.batch_size = 0
        with pytest.raises(PlanError, match="got 0"):
            plan.execute(ctx)
        assert ran == []


class TestUnaryNodes:
    def test_select(self, catalog):
        node = Select(TableScan("emp"), col("salary") >= 100)
        assert node.execute(catalog).num_rows == 2

    def test_project(self, catalog):
        node = Project(TableScan("emp"), ["name", ("double", col("salary") * 2)])
        out = node.execute(catalog)
        assert out.column_names == ("name", "double")

    def test_extend(self, catalog):
        out = Extend(TableScan("emp"), "bump", col("salary") + 1).execute(catalog)
        assert "bump" in out.column_names

    def test_distinct(self, catalog):
        node = Distinct(Project(TableScan("emp"), ["dept"]))
        assert node.execute(catalog).num_rows == 2

    def test_order_limit(self, catalog):
        node = Limit(OrderBy(TableScan("emp"), [("salary", "desc")]), 1)
        assert node.execute(catalog).rows[0][1] == "ann"


class TestJoins:
    def test_hash_join_node(self, catalog):
        node = HashJoin(TableScan("emp"), TableScan("dept"), keys=[("dept", "d")])
        assert node.execute(catalog).num_rows == 3

    def test_merge_join_node(self, catalog):
        node = MergeJoin(TableScan("emp"), TableScan("dept"), keys=[("dept", "d")])
        assert node.execute(catalog).num_rows == 3

    def test_nested_loop_node(self, catalog):
        node = NestedLoopJoin(
            TableScan("emp"),
            TableScan("dept"),
            predicate=lambda l, r: l[0] == r[0],
            description="dept match",
        )
        assert node.execute(catalog).num_rows == 3
        assert "dept match" in node.label()


class TestAggregationNodes:
    def test_group_by_node(self, catalog):
        node = GroupBy(
            TableScan("emp"),
            keys=["dept"],
            aggregates=[agg_sum("payroll", col("salary"))],
            having=col("payroll") >= 200,
        )
        assert node.execute(catalog).rows == (("eng", 220),)

    def test_groupwise_node(self, catalog):
        node = Groupwise(
            TableScan("emp"),
            keys=["dept"],
            subquery=lambda g: g.order_by(["salary"], reverse=True).head(1),
            description="top earner",
        )
        out = node.execute(catalog)
        assert sorted(r[1] for r in out.rows) == ["ann", "cid"]

    def test_custom_node(self, catalog):
        node = Custom(TableScan("emp"), lambda r: r.head(1), "take one")
        assert node.execute(catalog).num_rows == 1


class TestExplain:
    def test_tree_rendering(self, catalog):
        node = Limit(
            Select(HashJoin(TableScan("emp"), TableScan("dept"), keys=[("dept", "d")]),
                   col("salary") > 0),
            5,
        )
        text = explain(node)
        lines = text.splitlines()
        assert lines[0].startswith("Limit(5)")
        assert any("HashJoin" in l for l in lines)
        assert any(l.startswith("      Scan(dept)") for l in lines)

    def test_explain_rejects_non_node(self):
        with pytest.raises(PlanError):
            explain("not a plan")

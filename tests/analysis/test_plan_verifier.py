"""Plan-verifier diagnostics: one passing and one failing case per rule."""

import pytest

from repro.analysis import verify_plan, check_plan
from repro.errors import AnalysisError
from repro.relational.aggregates import agg_count, agg_sum
from repro.relational.catalog import Catalog
from repro.relational.expressions import col
from repro.relational.plan import (
    Custom,
    Extend,
    GroupBy,
    Groupwise,
    HashJoin,
    Limit,
    MaterializedInput,
    OrderBy,
    Project,
    Select,
    TableScan,
)
from repro.relational.relation import Relation
from repro.relational.schema import Schema


@pytest.fixture
def catalog():
    c = Catalog()
    c.register(
        "orders",
        Relation.from_rows(
            ["order_id", "customer", "amount"],
            [(1, "ada", 10.0), (2, "bob", 7.5)],
        ),
    )
    c.register(
        "customers",
        Relation.from_rows(["customer", "city"], [("ada", "london")]),
    )
    return c


def rules(report):
    return sorted({d.rule for d in report})


# -- PV101: unknown column / table -----------------------------------------


def test_pv101_select_pass(catalog):
    plan = Select(TableScan("orders"), col("amount") >= 5.0)
    assert verify_plan(plan, catalog).ok


def test_pv101_select_unknown_column(catalog):
    plan = Select(TableScan("orders"), col("amonut") >= 5.0)
    report = verify_plan(plan, catalog)
    assert rules(report) == ["PV101"]
    (diag,) = report.errors()
    assert "amonut" in diag.message
    assert "Select" in diag.location


def test_pv101_unknown_table(catalog):
    report = verify_plan(TableScan("missing"), catalog)
    assert rules(report) == ["PV101"]
    assert "missing" in report.errors()[0].message


def test_pv101_location_names_the_failing_node(catalog):
    # The bad reference is two levels deep; the location path must place it.
    plan = Limit(
        OrderBy(Select(TableScan("orders"), col("ghost") >= 1), ["order_id"]),
        5,
    )
    report = verify_plan(plan, catalog)
    assert rules(report) == ["PV101"]
    loc = report.errors()[0].location
    assert "Select" in loc and "Scan" not in loc.split(">")[0]


def test_pv101_qualified_reference_after_join_passes(catalog):
    join = HashJoin(
        TableScan("orders"),
        TableScan("customers"),
        keys=["customer"],
        prefixes=("o", "c"),
    )
    plan = Select(join, col("o.amount") >= 1.0)
    assert verify_plan(plan, catalog).ok


# -- PV102: duplicate output columns ---------------------------------------


def test_pv102_projection_pass(catalog):
    plan = Project(TableScan("orders"), ["order_id", "amount"])
    assert verify_plan(plan, catalog).ok


def test_pv102_duplicate_projection(catalog):
    plan = Project(TableScan("orders"), ["amount", "amount"])
    report = verify_plan(plan, catalog)
    assert rules(report) == ["PV102"]


def test_pv102_extend_over_existing_column(catalog):
    plan = Extend(TableScan("orders"), "amount", col("order_id") + 1)
    report = verify_plan(plan, catalog)
    assert rules(report) == ["PV102"]
    assert "amount" in report.errors()[0].message


def test_pv102_identical_join_prefixes(catalog):
    plan = HashJoin(
        TableScan("orders"),
        TableScan("customers"),
        keys=["customer"],
        prefixes=("t", "t"),
    )
    report = verify_plan(plan, catalog)
    assert "PV102" in rules(report)


# -- PV103: HAVING references neither key nor aggregate ---------------------


def group_plan(having):
    return GroupBy(
        TableScan("orders"),
        keys=["customer"],
        aggregates=[agg_count("n"), agg_sum("total", col("amount"))],
        having=having,
    )


def test_pv103_having_pass(catalog):
    assert verify_plan(group_plan(col("n") >= 1), catalog).ok
    assert verify_plan(group_plan(col("total") >= 5.0), catalog).ok


def test_pv103_having_non_output_column(catalog):
    report = verify_plan(group_plan(col("amount") >= 5.0), catalog)
    assert rules(report) == ["PV103"]
    diag = report.errors()[0]
    assert "amount" in diag.message and "GroupBy" in diag.location


# -- PV104: join-key type conflict ------------------------------------------


def typed_input(name, coltype):
    return MaterializedInput(
        Relation(Schema([("k", coltype), ("v", None)]), [(None, None)]),
        name,
    )


def test_pv104_matching_key_types_pass(catalog):
    plan = HashJoin(typed_input("l", int), typed_input("r", int), keys=["k"])
    assert verify_plan(plan, catalog).ok


def test_pv104_conflicting_key_types(catalog):
    plan = HashJoin(typed_input("l", int), typed_input("r", str), keys=["k"])
    report = verify_plan(plan, catalog)
    assert rules(report) == ["PV104"]
    assert "int" in report.errors()[0].message
    assert "str" in report.errors()[0].message


# -- PV105: Limit over unordered input (warning) ----------------------------


def test_pv105_limit_over_orderby_pass(catalog):
    plan = Limit(OrderBy(TableScan("orders"), ["order_id"]), 1)
    report = verify_plan(plan, catalog)
    assert report.ok and not report.warnings()


def test_pv105_limit_over_unordered_input_warns(catalog):
    plan = Limit(TableScan("orders"), 1)
    report = verify_plan(plan, catalog)
    assert report.ok  # warning, not error
    assert rules(report) == ["PV105"]


# -- PV106: empty join keys --------------------------------------------------


def test_pv106_empty_join_keys(catalog):
    plan = HashJoin(TableScan("orders"), TableScan("customers"), keys=[])
    report = verify_plan(plan, catalog)
    assert "PV106" in rules(report)


# -- opaque nodes degrade gracefully ----------------------------------------


def test_schema_preserving_custom_node_is_probed(catalog):
    # An undeclared Custom node is probed against an empty input: the
    # identity transformer provably preserves the child schema, so a bad
    # reference above it IS caught (and a good one verifies clean).
    opaque = Custom(TableScan("orders"), lambda rel: rel, "opaque")
    report = verify_plan(Select(opaque, col("anything") >= 1), catalog)
    assert "PV101" in rules(report)
    assert verify_plan(Select(opaque, col("customer") >= 1), catalog).ok


def test_unprobeable_custom_node_is_not_guessed_at(catalog):
    def needs_rows(rel):
        rel.rows[0]  # raises on the empty probe
        return rel

    plan = Select(
        Custom(TableScan("orders"), needs_rows, "row-dependent"),
        col("anything") >= 1,
    )
    # Probing fails, the schema stays unknown, no PV101 can be proven.
    assert verify_plan(plan, catalog).ok


def test_custom_node_with_declared_schema_is_checked(catalog):
    declared = Custom(
        TableScan("orders"),
        lambda rel: Relation(Schema(["x"]), ()),
        "declared",
        declares=Schema(["x"]),
    )
    assert verify_plan(Select(declared, col("x") >= 1), catalog).ok
    report = verify_plan(Select(declared, col("y") >= 1), catalog)
    assert rules(report) == ["PV101"]


def test_groupwise_declares(catalog):
    node = Groupwise(
        TableScan("orders"),
        keys=["customer"],
        subquery=lambda rel: rel,
        declares=Schema(["customer", "rank"]),
    )
    assert verify_plan(Select(node, col("rank") >= 1), catalog).ok


# -- check_plan raises -------------------------------------------------------


def test_check_plan_raises_with_diagnostics(catalog):
    plan = Select(TableScan("orders"), col("nope") >= 1)
    with pytest.raises(AnalysisError) as exc:
        check_plan(plan, catalog)
    assert any(d.rule == "PV101" for d in exc.value.diagnostics)
    assert "PV101" in str(exc.value)


def test_check_plan_passes_clean(catalog):
    check_plan(Select(TableScan("orders"), col("amount") >= 1.0), catalog)


# -- schema propagation ------------------------------------------------------


def test_join_output_schema_disambiguates(catalog):
    join = HashJoin(TableScan("orders"), TableScan("customers"), keys=["customer"])
    schema = join.output_schema(catalog)
    assert schema is not None
    assert schema.names.count("customer") == 1
    assert "customer_2" in schema.names


def test_groupby_output_schema(catalog):
    schema = group_plan(None).output_schema(catalog)
    assert schema is not None
    assert list(schema.names) == ["customer", "n", "total"]

"""SSJOIN SQL surface: grammar, round-trips, compilation, and equivalence.

Covers the extended grammar ``SSJOIN t s ON OVERLAP(b) >= e [AND ...]``
end to end: parser/unparser fixpoint, lowering of the paper's Example 2
bound shapes to :class:`repro.core.predicate.Bound` conjuncts, plan
shape, static verification, and pair-level equivalence between
``execute_sql`` and the :func:`repro.core.ssjoin.ssjoin` facade.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predicate import (
    AbsoluteBound,
    LeftNormBound,
    MaxNormBound,
    OverlapPredicate,
    RightNormBound,
    SumNormBound,
)
from repro.core.prepared import PreparedRelation
from repro.core.ssjoin import ssjoin
from repro.errors import AnalysisError, PlanError
from repro.relational.catalog import Catalog
from repro.relational.context import ExecutionContext
from repro.relational.plan import (
    Distinct,
    GroupBy,
    Limit,
    OrderBy,
    Project,
    Select,
    SSJoinNode,
    TableScan,
    explain,
)
from repro.relational.relation import Relation
from repro.relational.sql.compiler import compile_ssjoin_plan, execute_sql
from repro.relational.sql.lexer import SqlSyntaxError
from repro.relational.sql.parser import parse
from repro.relational.sql.unparser import to_sql
from repro.analysis.sql_check import check_sql, verify_sql


ROWS = [
    ("r1", "apple", 1.0),
    ("r1", "pie", 1.0),
    ("r1", "crust", 1.0),
    ("r2", "apple", 1.0),
    ("r2", "pie", 1.0),
    ("r2", "tin", 1.0),
    ("r3", "pumpkin", 1.0),
    ("r3", "pie", 1.0),
    ("r4", "quince", 1.0),
]


def make_catalog():
    catalog = Catalog()
    catalog.register("t", Relation.from_rows(["a", "b", "w"], ROWS, name="t"))
    catalog.register(
        "u",
        Relation.from_rows(
            ["a", "b", "w"],
            [("s1", "apple", 1.0), ("s1", "pie", 1.0), ("s2", "quince", 1.0)],
            name="u",
        ),
    )
    return catalog


class TestParsing:
    def test_absolute_bound(self):
        st_ = parse("SELECT * FROM t r SSJOIN t s ON OVERLAP(b) >= 2")
        (clause,) = st_.ssjoins
        assert clause.table.table == "t"
        assert clause.table.alias == "s"
        assert clause.element_column == "b"
        assert len(clause.bounds) == 1

    def test_conjunction_of_bounds(self):
        st_ = parse(
            "SELECT * FROM t r SSJOIN t s "
            "ON OVERLAP(b) >= 0.8 * r.norm AND OVERLAP(b) >= 0.8 * s.norm"
        )
        assert len(st_.ssjoins[0].bounds) == 2

    def test_overlap_stays_a_valid_column_name(self):
        # OVERLAP is contextual, not a keyword: the result schema's
        # ``overlap`` column must remain referenceable.
        st_ = parse(
            "SELECT overlap FROM t r SSJOIN t s ON OVERLAP(b) >= 2 "
            "WHERE overlap >= 3"
        )
        assert st_.items[0].expr.name == "overlap"
        assert st_.where is not None

    def test_mismatched_element_columns_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse(
                "SELECT * FROM t r SSJOIN t s "
                "ON OVERLAP(b) >= 2 AND OVERLAP(c) >= 2"
            )

    def test_only_ge_comparison_allowed(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT * FROM t r SSJOIN t s ON OVERLAP(b) > 2")

    def test_on_required(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT * FROM t r SSJOIN t s")


SSJOIN_QUERIES = [
    "SELECT * FROM t r SSJOIN t s ON OVERLAP(b) >= 2",
    "SELECT * FROM t r SSJOIN u s ON OVERLAP(b) >= 1",
    "SELECT a_r, a_s FROM t r SSJOIN t s ON OVERLAP(b) >= 0.8 * r.norm",
    "SELECT * FROM t r SSJOIN t s "
    "ON OVERLAP(b) >= 0.5 * r.norm AND OVERLAP(b) >= 0.5 * s.norm",
    "SELECT * FROM t r SSJOIN t s ON OVERLAP(b) >= 0.7 * MAXNORM()",
    "SELECT DISTINCT a_r FROM t r SSJOIN t s ON OVERLAP(b) >= 2 "
    "WHERE a_r < a_s ORDER BY a_r LIMIT 10",
    "SELECT a_r AS lhs, a_s AS rhs, overlap FROM t r SSJOIN t s "
    "ON OVERLAP(b) >= 2 ORDER BY overlap DESC",
    "SELECT * FROM t r SSJOIN t s ON OVERLAP(b) >= 0.5 * r.norm + "
    "0.5 * s.norm - 1",
]


class TestRoundTrip:
    @pytest.mark.parametrize("sql", SSJOIN_QUERIES)
    def test_parse_unparse_fixpoint(self, sql):
        statement = parse(sql)
        rendered = to_sql(statement)
        assert parse(rendered) == statement
        # Second render is a fixpoint: unparse is canonical.
        assert to_sql(parse(rendered)) == rendered

    @given(
        fraction=st.sampled_from([0.5, 0.75, 0.8]),
        two_sided=st.booleans(),
        alias_pair=st.sampled_from([("r", "s"), ("x", "y")]),
    )
    @settings(max_examples=50, deadline=None)
    def test_generated_bounds_round_trip(self, fraction, two_sided, alias_pair):
        lhs, rhs = alias_pair
        bound = f"{fraction!r} * {lhs}.norm"
        sql = f"SELECT * FROM t {lhs} SSJOIN t {rhs} ON OVERLAP(b) >= {bound}"
        if two_sided:
            sql += f" AND OVERLAP(b) >= {fraction!r} * {rhs}.norm"
        statement = parse(sql)
        assert parse(to_sql(statement)) == statement


class TestCompilation:
    def test_plan_shape(self):
        statement = parse(
            "SELECT DISTINCT a_r FROM t r SSJOIN t s ON OVERLAP(b) >= 2 "
            "WHERE a_r < a_s ORDER BY a_r LIMIT 10"
        )
        plan = compile_ssjoin_plan(statement, make_catalog())
        assert isinstance(plan, Limit)
        distinct = plan.children[0]
        assert isinstance(distinct, Distinct)
        project = distinct.children[0]
        assert isinstance(project, Project)
        order = project.children[0]
        assert isinstance(order, OrderBy)
        select = order.children[0]
        assert isinstance(select, Select)
        node = select.children[0]
        assert isinstance(node, SSJoinNode)
        # Self-join: both sides share one scan node.
        assert node.children[0] is node.children[1]
        assert isinstance(node.children[0], TableScan)

    def test_two_table_join_uses_two_scans(self):
        statement = parse("SELECT * FROM t r SSJOIN u s ON OVERLAP(b) >= 1")
        plan = compile_ssjoin_plan(statement, make_catalog())
        assert isinstance(plan, SSJoinNode)
        assert plan.children[0] is not plan.children[1]

    @pytest.mark.parametrize(
        "bound, expected",
        [
            ("2", AbsoluteBound),
            ("0.8 * r.norm", LeftNormBound),
            ("0.8 * s.norm", RightNormBound),
            ("0.7 * MAXNORM()", MaxNormBound),
            ("0.5 * r.norm + 0.5 * s.norm - 1", SumNormBound),
            ("r.norm - 2", LeftNormBound),
        ],
    )
    def test_bound_lowering(self, bound, expected):
        statement = parse(
            f"SELECT * FROM t r SSJOIN t s ON OVERLAP(b) >= {bound}"
        )
        plan = compile_ssjoin_plan(statement, make_catalog())
        assert isinstance(plan, SSJoinNode)
        assert isinstance(plan.predicate, OverlapPredicate)
        (lowered,) = plan.predicate.bounds
        assert isinstance(lowered, expected)

    def test_lowered_fractions_match(self):
        statement = parse(
            "SELECT * FROM t r SSJOIN t s ON OVERLAP(b) >= 0.8 * r.norm"
        )
        plan = compile_ssjoin_plan(statement, make_catalog())
        (lowered,) = plan.predicate.bounds
        assert lowered.fraction == pytest.approx(0.8)

    @pytest.mark.parametrize(
        "sql",
        [
            # non-linear bound
            "SELECT * FROM t r SSJOIN t s ON OVERLAP(b) >= r.norm * s.norm",
            # MAXNORM mixed with a side norm
            "SELECT * FROM t r SSJOIN t s "
            "ON OVERLAP(b) >= 0.5 * MAXNORM() + 0.5 * r.norm",
            # unqualified norm is ambiguous
            "SELECT * FROM t r SSJOIN t s ON OVERLAP(b) >= 0.8 * norm",
            # qualifier matching neither side
            "SELECT * FROM t r SSJOIN t s ON OVERLAP(b) >= 0.8 * z.norm",
            # identical side labels
            "SELECT * FROM t r SSJOIN t r ON OVERLAP(b) >= 2",
            # only the 'b' element column is joinable
            "SELECT * FROM t r SSJOIN t s ON OVERLAP(a) >= 2",
            # mixing with equi-joins is not supported
            "SELECT * FROM t r JOIN u ON r.a = u.a SSJOIN t s "
            "ON OVERLAP(b) >= 2",
        ],
    )
    def test_rejected_statements(self, sql):
        with pytest.raises(PlanError):
            compile_ssjoin_plan(parse(sql), make_catalog())

    def test_grouped_plan_shape(self):
        statement = parse(
            "SELECT a_r, COUNT(*) AS n FROM t r SSJOIN t s "
            "ON OVERLAP(b) >= 2 GROUP BY a_r ORDER BY a_r"
        )
        plan = compile_ssjoin_plan(statement, make_catalog())
        assert isinstance(plan, OrderBy)
        project = plan.children[0]
        assert isinstance(project, Project)
        grouped = project.children[0]
        assert isinstance(grouped, GroupBy)
        assert grouped.keys == ["a_r"]
        assert isinstance(grouped.children[0], SSJoinNode)

    def test_grouped_plan_has_no_boundary_adapter(self):
        # GROUP BY + ORDER BY over SSJoin output streams morsels end to
        # end — EXPLAIN must show no node materializing its child.
        statement = parse(
            "SELECT a_r, COUNT(*) AS n, SUM(overlap) AS s FROM t r SSJOIN t s "
            "ON OVERLAP(b) >= 2 GROUP BY a_r HAVING COUNT(*) >= 1 "
            "ORDER BY n DESC, a_r"
        )
        catalog = make_catalog()
        plan = compile_ssjoin_plan(statement, catalog)
        text = explain(
            plan, context=ExecutionContext(catalog=catalog, batch_size=4096)
        )
        assert "materializes" not in text
        assert "vectorized hash aggregate" in text
        assert "vectorized sort (blocking)" in text


class TestExecution:
    def test_matches_facade_pairs_exactly(self):
        catalog = make_catalog()
        out = execute_sql(
            catalog, "SELECT * FROM t r SSJOIN t s ON OVERLAP(b) >= 2"
        )
        prepared = PreparedRelation.from_relation(catalog.get("t"))
        expected = ssjoin(
            prepared, prepared, OverlapPredicate.absolute(2.0)
        )
        assert set(out.rows) == set(expected.pairs)
        assert tuple(out.schema.names) == (
            "a_r", "a_s", "overlap", "norm_r", "norm_s",
        )

    def test_two_sided_jaccard_style_bounds(self):
        catalog = make_catalog()
        out = execute_sql(
            catalog,
            "SELECT a_r, a_s FROM t r SSJOIN t s "
            "ON OVERLAP(b) >= 0.6 * r.norm AND OVERLAP(b) >= 0.6 * s.norm "
            "WHERE a_r < a_s",
        )
        prepared = PreparedRelation.from_relation(catalog.get("t"))
        expected = ssjoin(
            prepared, prepared, OverlapPredicate.two_sided(0.6)
        )
        want = {(a, b) for a, b, *_ in expected.pairs if a < b}
        assert set(out.rows) == want

    def test_post_filter_order_and_limit(self):
        out = execute_sql(
            make_catalog(),
            "SELECT a_r, a_s, overlap FROM t r SSJOIN t s "
            "ON OVERLAP(b) >= 2 WHERE a_r < a_s ORDER BY overlap DESC, a_r "
            "LIMIT 1",
        )
        assert out.rows == (("r1", "r2", 2.0),)

    def test_cross_table(self):
        out = execute_sql(
            make_catalog(),
            "SELECT a_r, a_s FROM t r SSJOIN u s ON OVERLAP(b) >= 2 ",
        )
        assert set(out.rows) == {("r1", "s1"), ("r2", "s1")}

    def test_verify_flag_runs_static_checks(self):
        with pytest.raises(AnalysisError):
            execute_sql(
                make_catalog(),
                "SELECT nope FROM t r SSJOIN t s ON OVERLAP(b) >= 2",
                verify=True,
            )

    def test_grouped_match_counts(self):
        # Pairs with overlap >= 2: (r1,r1), (r1,r2), (r2,r1), (r2,r2),
        # (r3,r3) — so per-record match counts are r1:2, r2:2, r3:1.
        out = execute_sql(
            make_catalog(),
            "SELECT a_r, COUNT(*) AS n FROM t r SSJOIN t s "
            "ON OVERLAP(b) >= 2 GROUP BY a_r ORDER BY a_r",
        )
        assert out.rows == (("r1", 2), ("r2", 2), ("r3", 1))
        assert tuple(out.schema.names) == ("a_r", "n")

    def test_global_aggregate_over_pairs(self):
        out = execute_sql(
            make_catalog(),
            "SELECT COUNT(*) AS pairs, SUM(overlap) AS total "
            "FROM t r SSJOIN t s ON OVERLAP(b) >= 2",
        )
        assert out.rows == ((5, 12.0),)

    def test_grouped_having_filter(self):
        out = execute_sql(
            make_catalog(),
            "SELECT a_r FROM t r SSJOIN t s ON OVERLAP(b) >= 2 "
            "GROUP BY a_r HAVING COUNT(*) >= 2 ORDER BY a_r",
        )
        assert out.rows == (("r1",), ("r2",))

    @pytest.mark.parametrize("batch_size", [1, 7, 4096, None])
    def test_grouped_results_identical_across_batch_sizes(self, batch_size):
        out = execute_sql(
            make_catalog(),
            "SELECT a_r, COUNT(*) AS n, SUM(overlap) AS s FROM t r "
            "SSJOIN t s ON OVERLAP(b) >= 2 GROUP BY a_r ORDER BY s DESC, a_r",
            batch_size=batch_size,
        )
        assert out.rows == (("r1", 2, 5.0), ("r2", 2, 5.0), ("r3", 1, 2.0))

    def test_batch_size_below_one_is_a_plan_error(self):
        with pytest.raises(PlanError, match="-1"):
            execute_sql(make_catalog(), "SELECT a FROM t", batch_size=-1)


class TestStaticVerification:
    def test_clean_statement_passes(self):
        report = verify_sql(
            make_catalog(),
            "SELECT a_r, overlap FROM t r SSJOIN t s "
            "ON OVERLAP(b) >= 0.8 * r.norm",
        )
        assert report.ok

    def test_unknown_output_column_is_pv101(self):
        report = verify_sql(
            make_catalog(), "SELECT nope FROM t r SSJOIN t s ON OVERLAP(b) >= 2"
        )
        assert [d.rule for d in report.errors()] == ["PV101"]

    def test_structural_violation_is_ssj110(self):
        report = verify_sql(
            make_catalog(),
            "SELECT * FROM t r SSJOIN t s ON OVERLAP(b) >= r.norm * s.norm",
        )
        assert [d.rule for d in report.errors()] == ["SSJ110"]

    def test_missing_set_columns_is_ssj111(self):
        catalog = make_catalog()
        catalog.register(
            "flat", Relation.from_rows(["a", "w"], [("x", 1.0)], name="flat")
        )
        report = verify_sql(
            catalog, "SELECT * FROM flat r SSJOIN flat s ON OVERLAP(b) >= 2"
        )
        assert "SSJ111" in [d.rule for d in report.errors()]

    def test_grouped_statement_passes(self):
        report = verify_sql(
            make_catalog(),
            "SELECT a_r, SUM(overlap) AS s FROM t r SSJOIN t s "
            "ON OVERLAP(b) >= 2 GROUP BY a_r HAVING COUNT(*) >= 2",
        )
        assert report.ok

    def test_check_sql_raises(self):
        with pytest.raises(AnalysisError):
            check_sql(
                make_catalog(),
                "SELECT nope FROM t r SSJOIN t s ON OVERLAP(b) >= 2",
            )

"""Static plan verifier: schema propagation over operator trees.

Walks any :class:`~repro.relational.plan.PlanNode` tree *before
execution*, propagating each operator's declared output schema
(:meth:`PlanNode.output_schema`) bottom-up and checking every reference
against the schema actually flowing into it. Catches, without running a
single row:

``PV101`` unknown column reference (Select/Project/Extend/OrderBy/
GroupBy/Groupwise/join keys).
``PV102`` duplicate output column (identical join prefixes, Extend over
an existing name, aggregate output colliding with a group key).
``PV103`` GROUP BY / HAVING mismatch — HAVING referencing a column that
is neither a group key nor an aggregate output.
``PV104`` join-key type conflict — both sides declare dtypes and they
disagree, so the equi-join can never match (or matches by accident).
``PV105`` unordered input feeding an order-sensitive consumer — a
``Limit`` whose child subtree establishes no order truncates
nondeterministically.
``PV106`` structurally empty join key list.

SSJoin nodes additionally get plan-level invariant checks in the SSJ
namespace (shared with :mod:`repro.analysis.invariants`):

``SSJ110`` SSJoin predicate is not a valid :class:`OverlapPredicate`.
``SSJ111`` an SSJoin input subtree provably lacks the normalized-set
columns (``a``, ``b``).
``SSJ112`` unknown physical implementation name on an SSJoin node.

Subtrees with unknown schemas (opaque :class:`Custom`/:class:`Groupwise`
nodes whose output can be neither declared nor probed) are skipped
gracefully: the verifier reports what it can prove and never guesses.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    AnalysisReport,
)
from repro.errors import AnalysisError
from repro.relational.catalog import Catalog
from repro.relational.expressions import Expr
from repro.relational.plan import (
    Distinct,
    Extend,
    GroupBy,
    Groupwise,
    HashJoin,
    LeftOuterJoin,
    Limit,
    MergeJoin,
    NestedLoopJoin,
    OrderBy,
    PlanNode,
    Project,
    Rename,
    Select,
    SSJoinNode,
    TableScan,
)
from repro.relational.schema import Schema

__all__ = ["verify_plan", "check_plan"]


def _ref_resolves(name: str, schema: Schema) -> bool:
    """Whether a (possibly qualified) column reference binds in *schema*.

    Mirrors the engine's resolution rules: exact name, unique ``.name``
    suffix match (SQL-style bare reference against a prefixed join
    output), or qualifier-stripped exact match (``t.x`` finding ``x`` in
    a single-table schema).
    """
    if name in schema:
        return True
    suffix_matches = [n for n in schema.names if n.endswith("." + name)]
    if len(suffix_matches) == 1:
        return True
    if "." in name:
        _, _, bare = name.partition(".")
        if bare in schema:
            return True
    return False


def _check_refs(
    report: AnalysisReport,
    names: Sequence[str],
    schema: Optional[Schema],
    location: str,
    context: str,
) -> None:
    if schema is None:
        return
    for name in names:
        if not _ref_resolves(name, schema):
            report.add(
                "PV101",
                SEVERITY_ERROR,
                f"unknown column {name!r} in {context}; "
                f"input columns: {', '.join(schema.names) or '(none)'}",
                location,
                hint="fix the reference or project/extend the column upstream",
            )


def _expr_columns(expr: Expr) -> Tuple[str, ...]:
    try:
        return expr.columns()
    except Exception:  # pragma: no cover - defensive: exotic Expr subclasses
        return ()


def _order_key_names(keys: Sequence[object]) -> List[str]:
    names: List[str] = []
    for k in keys:
        target: object = k
        if isinstance(k, (tuple, list)) and k:
            target = k[0]
        if isinstance(target, str):
            names.append(target)
        elif isinstance(target, Expr):
            # Expression sort keys (e.g. SQL ORDER BY over a select
            # alias) contribute every column they reference.
            names.extend(_expr_columns(target))
    return names


def _join_key_names(keys: object) -> Tuple[List[str], List[str]]:
    """Static mirror of :func:`repro.relational.joins._resolve_keys`."""
    if isinstance(keys, str):
        return [keys], [keys]
    left: List[str] = []
    right: List[str] = []
    try:
        for k in keys:  # type: ignore[union-attr]
            if isinstance(k, str):
                left.append(k)
                right.append(k)
            else:
                l, r = k
                left.append(l)
                right.append(r)
    except (TypeError, ValueError):
        return [], []
    return left, right


def _establishes_order(node: PlanNode) -> bool:
    """Whether this subtree's output has a deterministic row order.

    ``OrderBy`` establishes one; order-preserving unary operators pass it
    through. Joins, grouping, and opaque nodes do not guarantee one.
    """
    if isinstance(node, OrderBy):
        return True
    if isinstance(node, (Select, Project, Extend, Rename, Distinct, Limit)):
        return _establishes_order(node.children[0])
    return False


def _walk(
    node: PlanNode,
    catalog: Optional[Catalog],
    report: AnalysisReport,
    path: str,
) -> Optional[Schema]:
    """Verify *node*, returning its output schema (None if unknown)."""
    location = f"{path}{node.label()}"

    child_schemas: List[Optional[Schema]] = []
    for i, child in enumerate(node.children):
        tag = ""
        if isinstance(node, (HashJoin, MergeJoin, LeftOuterJoin, NestedLoopJoin)):
            tag = "left" if i == 0 else "right"
        child_path = f"{location} > " if not tag else f"{location}[{tag}] > "
        child_schemas.append(_walk(child, catalog, report, child_path))

    if isinstance(node, TableScan):
        if catalog is not None and node.table not in catalog:
            report.add(
                "PV101",
                SEVERITY_ERROR,
                f"unknown table {node.table!r}",
                location,
                hint="register the table in the catalog before executing",
            )
    elif isinstance(node, Select):
        _check_refs(
            report,
            _expr_columns(node.predicate),
            child_schemas[0],
            location,
            "selection predicate",
        )
    elif isinstance(node, Project):
        schema = child_schemas[0]
        if schema is not None:
            seen = set()
            for c in node.columns:
                name = c if isinstance(c, str) else c[0]
                if isinstance(c, str):
                    _check_refs(report, [c], schema, location, "projection")
                else:
                    _check_refs(
                        report,
                        _expr_columns(c[1]),
                        schema,
                        location,
                        f"derived column {name!r}",
                    )
                if name in seen:
                    report.add(
                        "PV102",
                        SEVERITY_ERROR,
                        f"duplicate output column {name!r} in projection",
                        location,
                    )
                seen.add(name)
    elif isinstance(node, Extend):
        schema = child_schemas[0]
        _check_refs(
            report,
            _expr_columns(node.expr),
            schema,
            location,
            f"extension expression for {node.column!r}",
        )
        if schema is not None and node.column in schema:
            report.add(
                "PV102",
                SEVERITY_ERROR,
                f"Extend would duplicate existing column {node.column!r}",
                location,
                hint="pick a fresh column name or Project the old one away first",
            )
    elif isinstance(node, OrderBy):
        _check_refs(
            report,
            _order_key_names(node.keys),
            child_schemas[0],
            location,
            "sort keys",
        )
    elif isinstance(node, Limit):
        if not _establishes_order(node.children[0]):
            report.add(
                "PV105",
                SEVERITY_WARNING,
                "Limit over an input with no established order truncates "
                "nondeterministically",
                location,
                hint="insert an OrderBy below the Limit",
            )
    elif isinstance(node, (HashJoin, MergeJoin, LeftOuterJoin)):
        lkeys, rkeys = _join_key_names(node.keys)
        if not lkeys:
            report.add(
                "PV106",
                SEVERITY_ERROR,
                "equi-join requires at least one key column",
                location,
            )
        left_schema, right_schema = child_schemas
        _check_refs(report, lkeys, left_schema, location, "left join keys")
        _check_refs(report, rkeys, right_schema, location, "right join keys")
        if left_schema is not None and right_schema is not None:
            for lk, rk in zip(lkeys, rkeys):
                if lk in left_schema and rk in right_schema:
                    lt = left_schema.column(lk).dtype
                    rt = right_schema.column(rk).dtype
                    if lt is not None and rt is not None and lt is not rt:
                        report.add(
                            "PV104",
                            SEVERITY_ERROR,
                            f"join key type conflict: {lk!r} is "
                            f"{lt.__name__} but {rk!r} is {rt.__name__}",
                            location,
                            hint="cast one side or fix the column declaration",
                        )
            if node.prefixes is not None and node.prefixes[0] == node.prefixes[1]:
                report.add(
                    "PV102",
                    SEVERITY_ERROR,
                    f"identical join prefixes {node.prefixes!r} would produce "
                    "duplicate qualified columns",
                    location,
                )
    elif isinstance(node, GroupBy):
        schema = child_schemas[0]
        _check_refs(report, node.keys, schema, location, "group keys")
        for agg in node.aggregates:
            if agg.input_expr is not None:
                _check_refs(
                    report,
                    _expr_columns(agg.input_expr),
                    schema,
                    location,
                    f"aggregate {agg.name!r} input",
                )
        agg_names = [a.name for a in node.aggregates]
        for name in agg_names:
            if name in node.keys:
                report.add(
                    "PV102",
                    SEVERITY_ERROR,
                    f"aggregate output {name!r} collides with a group key",
                    location,
                )
        if node.having is not None:
            out_names = list(node.keys) + agg_names
            for name in _expr_columns(node.having):
                if name not in out_names:
                    report.add(
                        "PV103",
                        SEVERITY_ERROR,
                        f"HAVING references {name!r}, which is neither a "
                        f"group key ({', '.join(node.keys) or 'none'}) nor "
                        f"an aggregate output ({', '.join(agg_names) or 'none'})",
                        location,
                        hint="aggregate the column or add it to the group keys",
                    )
    elif isinstance(node, Groupwise):
        _check_refs(report, node.keys, child_schemas[0], location, "groupwise keys")
    elif isinstance(node, SSJoinNode):
        _check_ssjoin_node(node, child_schemas, report, location)

    return node.output_schema(catalog)


def _check_ssjoin_node(
    node: SSJoinNode,
    child_schemas: Sequence[Optional[Schema]],
    report: AnalysisReport,
    location: str,
) -> None:
    """Plan-level SSJoin invariants (SSJ110–SSJ112)."""
    # Imported here: repro.core layers above repro.relational, and this
    # module otherwise only needs the relational layer.
    from repro.core.optimizer import IMPLEMENTATIONS
    from repro.core.predicate import OverlapPredicate

    if not isinstance(node.predicate, OverlapPredicate) or not node.predicate.bounds:
        report.add(
            "SSJ110",
            SEVERITY_ERROR,
            f"SSJoin predicate {node.predicate!r} is not an OverlapPredicate "
            "with at least one bound",
            location,
            hint="build the predicate with OverlapPredicate.absolute/"
            "one_sided/two_sided/max_norm",
        )
    if node.implementation != "auto" and node.implementation not in IMPLEMENTATIONS:
        report.add(
            "SSJ112",
            SEVERITY_ERROR,
            f"unknown SSJoin implementation {node.implementation!r}; "
            f"expected auto or one of {', '.join(IMPLEMENTATIONS)}",
            location,
        )
    for side, schema in zip(("left", "right"), child_schemas):
        if schema is None:
            continue
        missing = [c for c in ("a", "b") if c not in schema]
        if missing:
            report.add(
                "SSJ111",
                SEVERITY_ERROR,
                f"SSJoin {side} input lacks normalized-set column(s) "
                f"{', '.join(repr(m) for m in missing)}; input columns: "
                f"{', '.join(schema.names) or '(none)'}",
                location,
                hint="feed a prepared relation or a table with at least "
                "(a, b) columns",
            )


def verify_plan(
    plan: PlanNode, catalog: Optional[Catalog] = None
) -> AnalysisReport:
    """Statically verify *plan*; returns the structured report.

    >>> from repro.relational.plan import TableScan, Select
    >>> from repro.relational.expressions import col
    >>> from repro.relational.catalog import Catalog
    >>> from repro.relational.relation import Relation
    >>> c = Catalog()
    >>> _ = c.register("t", Relation.from_rows(["a"], [("x",)]))
    >>> bad = Select(TableScan("t"), col("nope") >= 1)
    >>> [d.rule for d in verify_plan(bad, c)]
    ['PV101']
    """
    report = AnalysisReport()
    _walk(plan, catalog, report, "")
    return report


def check_plan(plan: PlanNode, catalog: Optional[Catalog] = None) -> None:
    """Verify *plan* and raise :class:`AnalysisError` on any error."""
    report = verify_plan(plan, catalog)
    if not report.ok:
        raise AnalysisError(
            f"plan verification failed with {len(report.errors())} error(s)",
            report.errors(),
        )

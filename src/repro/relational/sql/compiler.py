"""Compile parsed SQL into engine plans and execute them.

The compiler lowers a :class:`~repro.relational.sql.ast.SelectStatement`
onto the engine's plan nodes: FROM/JOIN become TableScan (+ Rename when
the query joins, so columns carry their alias qualifier as in SQL) under
HashJoin / LeftOuterJoin, WHERE becomes a Select over a compiled
expression, GROUP BY/HAVING become a GroupBy node, and the select list
becomes a projection. Every statement — SSJOIN or plain — compiles to a
plan tree and executes through the plan protocol, so SQL results flow
end-to-end as columnar morsels whenever the batch protocol is on. Name
resolution is schema-aware: a bare column name matches either an exact
column or a unique ``alias.name`` suffix, as in SQL.

Supported aggregates: COUNT(*) / COUNT(expr) / SUM / MIN / MAX / AVG.
Scalar functions: ABS, LENGTH, LOWER, UPPER. Predicates additionally
support ``[NOT] IN (…)``, ``[NOT] BETWEEN a AND b`` and ``IS [NOT] NULL``.

NULL handling is *flattened* three-valued logic: comparisons against NULL
are false, arithmetic propagates NULL, and NOT of an unknown behaves as
NOT false — so ``w NOT BETWEEN 2 AND 9`` admits NULL ``w`` (full SQL would
exclude it). A deliberate simplification, exercised by the tests.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.errors import PlanError, UnknownColumnError
from repro.relational.aggregates import (
    Aggregate,
    agg_avg,
    agg_count,
    agg_max,
    agg_min,
    agg_sum,
)
from repro.relational.catalog import Catalog
from repro.relational.expressions import (
    BatchFn,
    BinaryOp,
    Constant,
    Expr,
    RowFn,
    UnaryOp,
)
from repro.relational.joins import joined_schema
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema
from repro.relational.context import ExecutionContext
from repro.relational.plan import (
    SSJOIN_RESULT_SCHEMA,
    Distinct,
    GroupBy,
    HashJoin,
    LeftOuterJoin,
    Limit,
    OrderBy,
    PlanNode,
    Project,
    Rename,
    Select,
    SSJoinNode,
    TableScan,
)
from repro.relational.sql.ast import (
    Binary,
    Call,
    ColumnName,
    Literal,
    SelectItem,
    SelectStatement,
    SqlExpr,
    SSJoinClause,
    Star,
    Unary,
)
from repro.relational.sql.parser import parse

__all__ = [
    "execute_sql",
    "compile_statement",
    "compile_plan",
    "compile_plain_plan",
    "compile_ssjoin_plan",
]

_AGGREGATES = {"COUNT", "SUM", "MIN", "MAX", "AVG"}
_SCALARS: Dict[str, Callable] = {
    "ABS": abs,
    "LENGTH": len,
    "LOWER": lambda s: s.lower(),
    "UPPER": lambda s: s.upper(),
}


def _resolve(schema: Schema, column: ColumnName) -> str:
    """SQL-style name resolution against a concrete schema."""
    if column.qualifier:
        qualified = f"{column.qualifier}.{column.name}"
        if qualified in schema:
            return qualified
        # Single-table queries keep unprefixed columns; let `t.x` find `x`.
        if column.name in schema:
            return column.name
        raise UnknownColumnError(qualified, schema.names)
    if column.name in schema:
        return column.name
    suffix = "." + column.name
    matches = [n for n in schema.names if n.endswith(suffix)]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise UnknownColumnError(column.name, schema.names)
    raise PlanError(
        f"ambiguous column {column.name!r}: matches {', '.join(sorted(matches))}"
    )


class _ResolvingRef(Expr):
    """An engine expression that resolves a SQL column name at bind time."""

    __slots__ = ("column",)

    def __init__(self, column: ColumnName) -> None:
        self.column = column

    def bind(self, schema: Schema) -> RowFn:
        pos = schema.position(_resolve(schema, self.column))
        return lambda row: row[pos]

    def bind_batch(self, schema: Schema) -> BatchFn:
        # Resolution happens once at bind time, so the batch kernel is the
        # same zero-copy column fetch ColumnRef compiles to.
        pos = schema.position(_resolve(schema, self.column))
        return lambda batch: batch.columns[pos]

    def columns(self) -> Tuple[str, ...]:
        return (self.column.display(),)

    def __repr__(self) -> str:
        return self.column.display()


def _null_compare(fn: Callable) -> Callable:
    """SQL semantics: any comparison against NULL is not-true."""

    def compare(a: Any, b: Any) -> bool:
        if a is None or b is None:
            return False
        return fn(a, b)

    return compare


def _null_arith(fn: Callable) -> Callable:
    """SQL semantics: arithmetic with NULL yields NULL."""

    def arith(a: Any, b: Any) -> Any:
        if a is None or b is None:
            return None
        return fn(a, b)

    return arith


_COMPARE: Dict[str, Callable] = {
    "=": _null_compare(lambda a, b: a == b),
    "<>": _null_compare(lambda a, b: a != b),
    "!=": _null_compare(lambda a, b: a != b),
    "<": _null_compare(lambda a, b: a < b),
    "<=": _null_compare(lambda a, b: a <= b),
    ">": _null_compare(lambda a, b: a > b),
    ">=": _null_compare(lambda a, b: a >= b),
    "+": _null_arith(lambda a, b: a + b),
    "-": _null_arith(lambda a, b: a - b),
    "*": _null_arith(lambda a, b: a * b),
    "/": _null_arith(lambda a, b: a / b),
    # NULL collapses to false for filtering (flattened three-valued logic).
    "AND": lambda a, b: bool(a and b),
    "OR": lambda a, b: bool(a or b),
}


def _compile_expr(node: SqlExpr) -> Expr:
    """Lower a (non-aggregate) SQL expression to an engine expression."""
    if isinstance(node, Literal):
        return Constant(node.value)
    if isinstance(node, ColumnName):
        return _ResolvingRef(node)
    if isinstance(node, Unary):
        child = _compile_expr(node.operand)
        ops = {
            "NOT": (lambda v: not v, "NOT"),
            "NEG": (lambda v: -v, "-"),
            "ISNULL": (lambda v: v is None, "IS NULL"),
            "ISNOTNULL": (lambda v: v is not None, "IS NOT NULL"),
        }
        fn, symbol = ops[node.op]
        return UnaryOp(child, fn, symbol)
    if isinstance(node, Binary):
        return BinaryOp(
            _compile_expr(node.left),
            _compile_expr(node.right),
            _COMPARE[node.op],
            node.op,
        )
    if isinstance(node, Call):
        if node.name == "__IN__":
            target = _compile_expr(node.args[0])
            members = [_compile_expr(a) for a in node.args[1:]]

            class _InExpr(Expr):
                def bind(self, schema: Schema) -> RowFn:
                    tf = target.bind(schema)
                    mfs = [m.bind(schema) for m in members]
                    return lambda row: (
                        tf(row) is not None
                        and tf(row) in {f(row) for f in mfs}
                    )

                def columns(self) -> Tuple[str, ...]:
                    out = target.columns()
                    for m in members:
                        out += m.columns()
                    return out

                def __repr__(self) -> str:
                    return f"({target!r} IN ...)"

            return _InExpr()
        if node.name in _AGGREGATES:
            raise PlanError(
                f"aggregate {node.name} is only allowed in the select list, "
                "HAVING, or with GROUP BY"
            )
        if node.name in _SCALARS:
            if len(node.args) != 1:
                raise PlanError(f"{node.name} takes exactly one argument")
            return UnaryOp(_compile_expr(node.args[0]), _SCALARS[node.name], node.name)
        raise PlanError(f"unknown function {node.name}")
    raise PlanError(f"cannot compile expression {node!r}")


def _make_aggregate(name: str, call: Call) -> Aggregate:
    if call.name == "COUNT":
        if call.star or not call.args:
            return agg_count(name)
        return agg_count(name, _compile_expr(call.args[0]))
    if len(call.args) != 1:
        raise PlanError(f"{call.name} takes exactly one argument")
    arg = _compile_expr(call.args[0])
    factories = {"SUM": agg_sum, "MIN": agg_min, "MAX": agg_max, "AVG": agg_avg}
    return factories[call.name](name, arg)


def _is_aggregate_call(node: SqlExpr) -> bool:
    return isinstance(node, Call) and node.name in _AGGREGATES


def _contains_aggregate(node: SqlExpr) -> bool:
    if _is_aggregate_call(node):
        return True
    if isinstance(node, Binary):
        return _contains_aggregate(node.left) or _contains_aggregate(node.right)
    if isinstance(node, Unary):
        return _contains_aggregate(node.operand)
    return False


def _extract_having(
    node: SqlExpr, hidden: List[Tuple[str, Call]]
) -> SqlExpr:
    """Replace aggregate calls inside HAVING by hidden-column references."""
    if isinstance(node, Call) and node.name in _AGGREGATES:
        name = f"__agg{len(hidden)}"
        hidden.append((name, node))
        return ColumnName(name)
    if isinstance(node, Binary):
        return Binary(
            node.op,
            _extract_having(node.left, hidden),
            _extract_having(node.right, hidden),
        )
    if isinstance(node, Unary):
        return Unary(node.op, _extract_having(node.operand, hidden))
    return node


def _item_name(item: SelectItem, index: int) -> str:
    if item.alias:
        return item.alias
    if isinstance(item.expr, ColumnName):
        return item.expr.name
    if isinstance(item.expr, Call):
        return item.expr.name.lower()
    return f"expr_{index}"


#: The two norm columns an SSJOIN bound expression may reference, tagged
#: by side, plus MAXNORM — max(norm_r, norm_s) — for the edit-join form.
_SIDE_LEFT = "left"
_SIDE_RIGHT = "right"
_SIDE_MAX = "max"


class _LinearBound:
    """A bound expression normalized to linear form.

    ``coefficients[side] * norm(side) + constant`` summed over the sides
    referenced; the paper's Example 2 shapes are exactly the linear forms
    over the two norms, which is all the grammar admits.
    """

    def __init__(self) -> None:
        self.constant = 0.0
        self.coefficients: Dict[str, float] = {}

    def add(self, other: "_LinearBound", sign: float = 1.0) -> None:
        self.constant += sign * other.constant
        for side, coef in other.coefficients.items():
            self.coefficients[side] = self.coefficients.get(side, 0.0) + sign * coef


def _norm_side(column: ColumnName, left_label: str, right_label: str) -> str:
    """Which side a ``norm`` reference inside an SSJOIN bound names."""
    if column.name != "norm":
        raise PlanError(
            f"SSJOIN bounds may reference only 'norm' columns, got "
            f"{column.display()!r}"
        )
    if column.qualifier is None:
        raise PlanError(
            "ambiguous 'norm' in SSJOIN bound; qualify it with a table "
            f"alias ({left_label!r} or {right_label!r})"
        )
    if column.qualifier == left_label:
        return _SIDE_LEFT
    if column.qualifier == right_label:
        return _SIDE_RIGHT
    raise PlanError(
        f"unknown qualifier {column.qualifier!r} in SSJOIN bound; "
        f"expected {left_label!r} or {right_label!r}"
    )


def _linearize_bound(
    node: SqlExpr, left_label: str, right_label: str
) -> _LinearBound:
    """Fold a bound expression into `Σ coef·norm + const` or fail."""
    out = _LinearBound()
    if isinstance(node, Literal):
        if not isinstance(node.value, (int, float)) or isinstance(node.value, bool):
            raise PlanError(f"SSJOIN bound constants must be numeric, got {node.value!r}")
        out.constant = float(node.value)
        return out
    if isinstance(node, ColumnName):
        out.coefficients[_norm_side(node, left_label, right_label)] = 1.0
        return out
    if isinstance(node, Call) and node.name == "MAXNORM":
        if node.args:
            raise PlanError("MAXNORM() takes no arguments")
        out.coefficients[_SIDE_MAX] = 1.0
        return out
    if isinstance(node, Unary) and node.op == "NEG":
        out.add(_linearize_bound(node.operand, left_label, right_label), sign=-1.0)
        return out
    if isinstance(node, Binary) and node.op in ("+", "-"):
        out.add(_linearize_bound(node.left, left_label, right_label))
        out.add(
            _linearize_bound(node.right, left_label, right_label),
            sign=-1.0 if node.op == "-" else 1.0,
        )
        return out
    if isinstance(node, Binary) and node.op == "*":
        left = _linearize_bound(node.left, left_label, right_label)
        right = _linearize_bound(node.right, left_label, right_label)
        if left.coefficients and right.coefficients:
            raise PlanError(
                "SSJOIN bounds must be linear in the norms; cannot multiply "
                "two norm-dependent terms"
            )
        scale, linear = (
            (left.constant, right) if not left.coefficients else (right.constant, left)
        )
        out.constant = scale * linear.constant
        out.coefficients = {s: scale * c for s, c in linear.coefficients.items()}
        return out
    raise PlanError(
        f"unsupported SSJOIN bound expression {node!r}; bounds are linear "
        "forms over constants, alias.norm, and MAXNORM()"
    )


def _lower_bound(node: SqlExpr, left_label: str, right_label: str) -> Any:
    """Lower one OVERLAP(...) >= bound conjunct to a core ``Bound``.

    Typed ``Any`` because the Bound classes live in :mod:`repro.core`,
    which this module may only import lazily (layering).
    """
    # Imported lazily: repro.core layers above repro.relational.
    from repro.core.predicate import (
        AbsoluteBound,
        LeftNormBound,
        MaxNormBound,
        RightNormBound,
        SumNormBound,
    )

    linear = _linearize_bound(node, left_label, right_label)
    coefs = {s: c for s, c in linear.coefficients.items() if abs(c) > 1e-12}
    sides = set(coefs)
    if _SIDE_MAX in sides and sides != {_SIDE_MAX}:
        raise PlanError(
            "an SSJOIN bound may use MAXNORM() or per-side norms, not both"
        )
    if not sides:
        return AbsoluteBound(linear.constant)
    if sides == {_SIDE_MAX}:
        return MaxNormBound(coefs[_SIDE_MAX], linear.constant)
    if sides == {_SIDE_LEFT}:
        return LeftNormBound(coefs[_SIDE_LEFT], linear.constant)
    if sides == {_SIDE_RIGHT}:
        return RightNormBound(coefs[_SIDE_RIGHT], linear.constant)
    return SumNormBound(coefs[_SIDE_LEFT], coefs[_SIDE_RIGHT], linear.constant)


def _ssjoin_predicate(clause: SSJoinClause, left_label: str, right_label: str) -> Any:
    from repro.core.predicate import OverlapPredicate

    if left_label == right_label:
        raise PlanError(
            f"SSJOIN sides share the label {left_label!r}; alias one of "
            "the tables so norm references are unambiguous"
        )
    return OverlapPredicate(
        [_lower_bound(b, left_label, right_label) for b in clause.bounds]
    )


def compile_ssjoin_plan(statement: SelectStatement, catalog: Catalog) -> PlanNode:
    """Lower an SSJOIN statement to a logical plan tree.

    The tree is the paper's Figure 7–9 shape: an :class:`SSJoinNode` over
    two table scans (one scan, shared, for a self-join), a ``Select`` for
    the WHERE post-filter, ``GroupBy``/``OrderBy``/``Project``/
    ``Distinct``/``Limit`` above it. The catalog is only consulted at
    execution time; this function is purely structural, so the plan
    verifier can inspect the tree without side effects.
    """
    if len(statement.ssjoins) != 1:
        raise PlanError("exactly one SSJOIN clause is supported per statement")
    if statement.joins:
        raise PlanError("SSJOIN cannot be combined with ordinary JOIN clauses")
    clause = statement.ssjoins[0]
    if clause.element_column != "b":
        raise PlanError(
            f"SSJOIN joins normalized set relations on their 'b' element "
            f"column; got OVERLAP({clause.element_column})"
        )
    predicate = _ssjoin_predicate(
        clause, statement.table.label, clause.table.label
    )

    left: PlanNode = TableScan(statement.table.table)
    # A self-join shares one scan node so the physical layer sees the
    # identical prepared relation on both sides.
    right: PlanNode = (
        left
        if clause.table.table == statement.table.table
        else TableScan(clause.table.table)
    )
    node: PlanNode = SSJoinNode(left, right, predicate)

    if statement.where is not None:
        node = Select(node, _compile_expr(statement.where))
    has_aggregates = any(
        not isinstance(i.expr, Star) and _contains_aggregate(i.expr)
        for i in statement.items
    )
    if statement.group_by or has_aggregates:
        # Aggregation over the pair output — e.g. per-record match counts
        # or a global COUNT(*) of the join size. The SSJoin result schema
        # is statically known, so this stays purely structural.
        node = _aggregate_tail(statement, node, SSJOIN_RESULT_SCHEMA)
        if statement.distinct:
            node = Distinct(node)
        if statement.order_by:
            node = OrderBy(node, _output_order_keys(statement))
    else:
        if statement.order_by:
            keys = []
            for item in statement.order_by:
                name = item.column.name
                keys.append((name, "desc") if item.descending else name)
            node = OrderBy(node, keys)
        node = _plain_projection_node(statement, node)
        if statement.distinct:
            node = Distinct(node)
    if statement.limit is not None:
        node = Limit(node, statement.limit)
    return node


def compile_plain_plan(statement: SelectStatement, catalog: Catalog) -> PlanNode:
    """Lower a plain (non-SSJOIN) SELECT to a logical plan tree.

    Join and group keys resolve against catalog schemas, so the catalog
    must already hold every referenced table. Joined tables are wrapped
    in :class:`Rename` nodes (alias qualification), so the whole FROM/
    JOIN/WHERE/GROUP BY/ORDER BY chain executes through the plan
    protocol — columnar end-to-end when the batch protocol is on.
    """
    # -- FROM / JOIN --------------------------------------------------
    prefix_tables = bool(statement.joins)
    schema = catalog.get(statement.table.table).schema
    node: PlanNode = TableScan(statement.table.table)
    if prefix_tables:
        node = Rename(node, statement.table.label)
        schema = schema.prefixed(statement.table.label)
    for join in statement.joins:
        right_schema = catalog.get(join.table.table).schema.prefixed(
            join.table.label
        )
        right_node: PlanNode = Rename(
            TableScan(join.table.table), join.table.label
        )
        right_names = set(right_schema.names)
        keys = []
        for c1, c2 in join.on:
            n1 = f"{c1.qualifier}.{c1.name}" if c1.qualifier else c1.name
            n2 = f"{c2.qualifier}.{c2.name}" if c2.qualifier else c2.name
            first_is_right = n1 in right_names or (
                c1.qualifier == join.table.label
            )
            left_name, right_name = (n2, n1) if first_is_right else (n1, n2)
            keys.append(
                (
                    _resolve(schema, _as_column(left_name)),
                    _resolve(right_schema, _as_column(right_name)),
                )
            )
        join_cls = LeftOuterJoin if join.outer else HashJoin
        node = join_cls(node, right_node, keys=keys)
        schema = joined_schema(schema, right_schema, None)

    # -- WHERE --------------------------------------------------------
    if statement.where is not None:
        node = Select(node, _compile_expr(statement.where))

    # -- GROUP BY / aggregate select ----------------------------------
    has_aggregates = any(_contains_aggregate(i.expr) for i in statement.items)
    if statement.group_by or has_aggregates:
        node = _aggregate_tail(statement, node, schema)
        if statement.distinct:
            node = Distinct(node)
        if statement.order_by:
            node = OrderBy(node, _output_order_keys(statement))
    else:
        # Plain query: ORDER BY may reference columns the projection
        # drops (SQL sorts before projecting), so sort first using
        # select-alias expressions where they match, schema columns
        # otherwise, then project.
        if statement.order_by:
            node = OrderBy(node, _pre_projection_order_keys(statement))
        node = _plain_projection_node(statement, node)
        if statement.distinct:
            node = Distinct(node)

    if statement.limit is not None:
        node = Limit(node, statement.limit)
    return node


def compile_plan(statement: SelectStatement, catalog: Catalog) -> PlanNode:
    """Lower any supported SELECT to a logical plan tree."""
    if statement.ssjoins:
        return compile_ssjoin_plan(statement, catalog)
    return compile_plain_plan(statement, catalog)


def compile_statement(
    statement: SelectStatement,
    catalog: Catalog,
    batch_size: "int | None" = None,
) -> Callable[[], Relation]:
    """Compile *statement* into an executable closure ``() -> Relation``.

    *batch_size* is the plan's morsel capacity (``None`` = the default,
    otherwise ``>= 1``); it applies to SSJOIN and plain statements alike.
    """
    if statement.ssjoins:
        plan = compile_ssjoin_plan(statement, catalog)

        def run_plan() -> Relation:
            return plan.execute(
                ExecutionContext(catalog=catalog, batch_size=batch_size)
            )

        return run_plan

    def run() -> Relation:
        # The plan is built here, not at compile time, so table lookup
        # and name resolution see the catalog as of execution — matching
        # the SSJOIN path, where the catalog is consulted only when the
        # plan runs.
        plan = compile_plain_plan(statement, catalog)
        return plan.execute(
            ExecutionContext(catalog=catalog, batch_size=batch_size)
        )

    return run


def _as_column(name: str) -> ColumnName:
    if "." in name:
        qualifier, _, bare = name.partition(".")
        return ColumnName(bare, qualifier=qualifier)
    return ColumnName(name)


def _output_order_keys(statement: SelectStatement) -> List[Any]:
    """ORDER BY keys for an aggregate query, resolved against the
    projected (select-list) schema — SQL sorts grouped output by its
    output columns."""
    out_schema = Schema(
        [Column(_item_name(item, i)) for i, item in enumerate(statement.items)]
    )
    keys: List[Any] = []
    for item in statement.order_by:
        name = _resolve(out_schema, item.column)
        keys.append((name, "desc") if item.descending else name)
    return keys


def _pre_projection_order_keys(statement: SelectStatement) -> List[Any]:
    """ORDER BY keys for a plain query, honoring select-list aliases.

    Each key is an engine expression bound against the pre-projection
    schema: an alias re-evaluates its select expression, anything else
    resolves as a column reference at bind time.
    """
    alias_exprs: Dict[str, SqlExpr] = {}
    for i, item in enumerate(statement.items):
        if not isinstance(item.expr, Star):
            alias_exprs[_item_name(item, i)] = item.expr

    keys: List[Any] = []
    for item in statement.order_by:
        display = item.column.display()
        if item.column.qualifier is None and display in alias_exprs:
            expr: Expr = _compile_expr(alias_exprs[display])
        else:
            expr = _ResolvingRef(item.column)
        keys.append((expr, "desc") if item.descending else expr)
    return keys


def _plain_projection_node(statement: SelectStatement, node: PlanNode) -> PlanNode:
    if len(statement.items) == 1 and isinstance(statement.items[0].expr, Star):
        return node
    columns = []
    for i, item in enumerate(statement.items):
        if isinstance(item.expr, Star):
            raise PlanError("'*' cannot be mixed with other select items")
        columns.append((_item_name(item, i), _compile_expr(item.expr)))
    return Project(node, columns)


def _aggregate_tail(
    statement: SelectStatement, node: PlanNode, schema: Schema
) -> PlanNode:
    """GroupBy + projection for an aggregate query over *schema* input."""
    # Resolve group keys against the input schema.
    key_names = [_resolve(schema, c) for c in statement.group_by]

    aggregates: List[Aggregate] = []
    item_resolved: Dict[int, str] = {}  # select-item index -> resolved key column
    for i, item in enumerate(statement.items):
        name = _item_name(item, i)
        if isinstance(item.expr, Call) and item.expr.name in _AGGREGATES:
            aggregates.append(_make_aggregate(name, item.expr))
        elif isinstance(item.expr, ColumnName):
            resolved = _resolve(schema, item.expr)
            if resolved not in key_names:
                raise PlanError(
                    f"column {item.expr.display()!r} must appear in GROUP BY "
                    "or inside an aggregate"
                )
            item_resolved[i] = resolved
        elif isinstance(item.expr, Star):
            raise PlanError("'*' is not allowed in an aggregate select list")
        else:
            raise PlanError(
                "select items in an aggregate query must be group columns "
                "or aggregate calls"
            )

    # HAVING: aggregate calls become hidden aggregate columns.
    having_expr = None
    hidden: List[Tuple[str, Call]] = []
    if statement.having is not None:
        rewritten = _extract_having(statement.having, hidden)
        for name, call in hidden:
            aggregates.append(_make_aggregate(name, call))
        having_expr = _compile_expr(rewritten)

    grouped = GroupBy(node, key_names, aggregates, having=having_expr)

    # Project to the SELECT order (drops hidden HAVING columns, renames
    # keys to their bare select-list names).
    columns = []
    for i, item in enumerate(statement.items):
        name = _item_name(item, i)
        if _is_aggregate_call(item.expr):
            columns.append((name, _ResolvingRef(ColumnName(name))))
        else:
            columns.append((name, _ResolvingRef(_as_column(item_resolved[i]))))
    return Project(grouped, columns)


def execute_sql(
    catalog: Catalog,
    sql: str,
    verify: bool = False,
    batch_size: "int | None" = None,
) -> Relation:
    """Parse, compile and execute one SELECT against *catalog*.

    With ``verify=True`` the statement is first checked statically
    (:func:`repro.analysis.check_sql`) and rejected with structured
    diagnostics — :class:`repro.errors.AnalysisError` — before anything
    executes.  *batch_size* is forwarded to the plan's
    :class:`~repro.relational.context.ExecutionContext` as its morsel
    capacity (``None`` = the default; a value below 1 raises
    :class:`~repro.errors.PlanError`); results are identical for every
    capacity.

    >>> from repro.relational import Catalog, Relation
    >>> c = Catalog()
    >>> _ = c.register("t", Relation.from_rows(["a", "w"],
    ...     [("x", 2), ("x", 3), ("y", 10)]))
    >>> execute_sql(c, "SELECT a, SUM(w) AS total FROM t "
    ...                "GROUP BY a HAVING SUM(w) >= 5 ORDER BY a").rows
    (('x', 5), ('y', 10))
    """
    if verify:
        # Imported here: repro.analysis depends on repro.relational.
        from repro.analysis.sql_check import check_sql

        check_sql(catalog, sql)
    return compile_statement(parse(sql), catalog, batch_size=batch_size)()

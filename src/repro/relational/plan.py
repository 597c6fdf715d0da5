"""Logical operator trees with an executor and EXPLAIN rendering.

The paper communicates every SSJoin implementation as an operator tree
(Figures 3–9). This module lets the library build the same trees as data,
execute them against an :class:`~repro.relational.context.ExecutionContext`
(or a bare :class:`~repro.relational.catalog.Catalog`), and pretty-print
them — which is how ``repro explain`` shows users exactly which plan
(basic / prefix-filter / inline / encoded) was chosen.

Since the Layer-7 refactor, SSJoin itself is a first-class node here:
:class:`SSJoinNode` is the *logical* similarity-join operator of the
paper's Figures 7–9, with a real output schema (``a_r, a_s, overlap,
norm_r, norm_s``) so the plan verifier's PV1xx rules propagate through it,
and a physical layer (:mod:`repro.core.physical`) that rewrites it to one
of the basic / prefix / inline / probe / encoded implementations at
execution time, chosen by the cost model over
:mod:`repro.relational.stats` histograms.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import PlanError
from repro.relational import operators
from repro.relational.aggregates import Aggregate, group_by_stream
from repro.relational.batch import (
    Batch,
    BatchStream,
    columnar_relation_from_batches,
    stream_relation,
)
from repro.relational.catalog import Catalog
from repro.relational.context import ExecutionContext
from repro.relational.expressions import Expr
from repro.relational.groupwise import groupwise_apply
from repro.relational.joins import (
    hash_join_stream,
    left_outer_join_stream,
    merge_join_stream,
    nested_loop_join,
)
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema

__all__ = [
    "PlanNode",
    "TableScan",
    "MaterializedInput",
    "PreparedInput",
    "SSJoinNode",
    "Select",
    "Project",
    "Extend",
    "Rename",
    "Distinct",
    "OrderBy",
    "Limit",
    "HashJoin",
    "MergeJoin",
    "LeftOuterJoin",
    "NestedLoopJoin",
    "GroupBy",
    "Groupwise",
    "Custom",
    "explain",
]

#: Output schema of every SSJoin node, fixed so downstream operators and
#: the static verifier can rely on it (mirrors repro.core.basic.RESULT_SCHEMA).
SSJOIN_RESULT_SCHEMA = Schema(["a_r", "a_s", "overlap", "norm_r", "norm_s"])


#: EXPLAIN note of the nodes that wrap a row callable.
_MATERIALIZES = "materializes child (row callable)"


def _tolerant_schema(columns: Sequence[Column]) -> Schema:
    """Build a schema for *static propagation*, dropping duplicate names.

    The runtime operators raise on duplicates; the static checker reports
    that as a diagnostic instead and still wants a usable schema for the
    rest of the tree, so propagation keeps the first occurrence.
    """
    seen = set()
    kept: List[Column] = []
    for c in columns:
        if c.name not in seen:
            seen.add(c.name)
            kept.append(c)
    return Schema(kept)


def _disambiguated_join_schema(
    left: Schema, right: Schema, prefixes: Optional[Tuple[str, str]]
) -> Schema:
    """Static mirror of the equi-join output schema.

    Replicates :func:`repro.relational.joins._prefixed_pair`: with
    *prefixes* both sides are qualified; without, clashing right-side
    names get ``_2``/``_3``... suffixes.
    """
    if prefixes is not None:
        lp, rp = prefixes
        return _tolerant_schema(
            list(left.prefixed(lp).columns) + list(right.prefixed(rp).columns)
        )
    taken = set(left.names)
    cols: List[Column] = list(left.columns)
    for col in right.columns:
        name = col.name
        if name in taken:
            n = 2
            while f"{name}_{n}" in taken:
                n += 1
            name = f"{name}_{n}"
        taken.add(name)
        cols.append(col.renamed(name))
    return Schema(cols)


def _probed_schema(
    fn: Callable[[Relation], Relation], child: Optional[Schema]
) -> Optional[Schema]:
    """Infer an opaque transformer's output schema by probing it.

    Applies *fn* to an **empty** relation carrying the child schema and
    reads the schema of what comes back. For the common schema-preserving
    subqueries (filter, truncate, sort) this returns the child schema
    exactly; for projecting transformers it returns the projected schema.
    Any exception (the transformer needs rows to make sense) degrades to
    ``None`` — unknown, never wrong.
    """
    if child is None:
        return None
    try:
        probed = fn(Relation(child, ()))
    except Exception:
        return None
    if isinstance(probed, Relation):
        return probed.schema
    return None


class PlanNode:
    """Base class of all logical plan nodes.

    Execution is context-threaded: :meth:`execute` accepts an
    :class:`~repro.relational.context.ExecutionContext`, a bare
    :class:`Catalog` (wrapped on the fly — the historical call shape), or
    ``None``, and normalizes it. One context flows through the whole
    tree, so an SSJoin node deep in a plan shares the same metrics, cost
    model, caches and worker pool as its siblings.

    Besides execution, every node participates in **static schema
    propagation**: :meth:`output_schema` computes the schema this node
    would produce from its children's schemas *without executing
    anything*. Nodes wrapping opaque callables (:class:`Custom`,
    :class:`Groupwise`) probe the callable against an empty input to
    recover the schema (see :func:`_probed_schema`); a declared schema
    always wins, and probing failures degrade to ``None`` — the plan
    verifier (:mod:`repro.analysis.plan_verifier`) degrades gracefully on
    unknown subtrees and checks everything else.

    **Evaluation.** A node has one evaluation method, :meth:`batches`:
    it streams the subtree's result as columnar
    :class:`~repro.relational.batch.Batch` morsels of the capacity given
    by :meth:`ExecutionContext.resolved_batch_size`, pulling its
    children's streams. :meth:`execute` folds that stream. Leaves and
    :class:`SSJoinNode` stream a relation they already hold; the three
    nodes that wrap row callables (:class:`NestedLoopJoin`,
    :class:`Groupwise`, :class:`Custom`) materialize their children,
    call the callable and re-stream its result. Results do not depend on
    the morsel capacity.
    """

    #: Child nodes, in order. Populated by subclasses.
    children: Tuple["PlanNode", ...] = ()

    def execute(
        self, context: Union[ExecutionContext, Catalog, None] = None
    ) -> Relation:
        """Evaluate this subtree against *context* and return its result."""
        ctx = ExecutionContext.of(context)
        stream = self.batches(ctx, ctx.resolved_batch_size())
        if stream.source is not None:
            # Nothing but an existing relation re-chopped: hand it back.
            return stream.source
        return columnar_relation_from_batches(stream)

    def batches(self, ctx: ExecutionContext, size: int) -> BatchStream:
        """Stream this subtree's result as columnar morsels of *size* rows."""
        raise NotImplementedError

    def label(self) -> str:
        """One-line description used by :func:`explain`."""
        return type(self).__name__

    def annotations(self, context: ExecutionContext) -> Tuple[str, ...]:
        """Extra EXPLAIN lines (cost estimates etc.), context-aware."""
        size = context.resolved_batch_size()
        return (f"batch: {self._batch_note()}, morsel={size}",)

    def _batch_note(self) -> str:
        """How this node produces its morsels, for EXPLAIN."""
        return "vectorized"

    def output_schema(self, catalog: Optional[Catalog] = None) -> Optional[Schema]:
        """The statically-known output schema, or ``None`` if unknowable.

        Never raises: unknown column references propagate as best-effort
        placeholder columns so one bad reference doesn't hide findings in
        the rest of the tree (the verifier reports the reference itself).
        """
        return None

    def _child_schema(
        self, catalog: Optional[Catalog], index: int = 0
    ) -> Optional[Schema]:
        return self.children[index].output_schema(catalog)


class TableScan(PlanNode):
    """Leaf: read a named table from the catalog."""

    def __init__(self, table: str) -> None:
        self.table = table

    def batches(self, ctx: ExecutionContext, size: int) -> BatchStream:
        return stream_relation(ctx.catalog.get(self.table), size)

    def label(self) -> str:
        return f"Scan({self.table})"

    def _batch_note(self) -> str:
        return "morsel source"

    def output_schema(self, catalog: Optional[Catalog] = None) -> Optional[Schema]:
        if catalog is not None and self.table in catalog:
            return catalog.get(self.table).schema
        return None


class MaterializedInput(PlanNode):
    """Leaf: an already-materialized relation embedded in the plan."""

    def __init__(self, relation: Relation, label_text: str = "input") -> None:
        self.relation = relation
        self._label = label_text

    def batches(self, ctx: ExecutionContext, size: int) -> BatchStream:
        return stream_relation(self.relation, size)

    def label(self) -> str:
        return f"Materialized({self._label}, rows={len(self.relation)})"

    def _batch_note(self) -> str:
        return "morsel source"

    def output_schema(self, catalog: Optional[Catalog] = None) -> Optional[Schema]:
        return self.relation.schema


class PreparedInput(PlanNode):
    """Leaf: a prepared (normalized) set relation embedded in the plan.

    This is the paper's Figure-1 ``R(A, B, norm)`` input as a plan leaf.
    Executed standalone it yields the First-Normal-Form view; an
    :class:`SSJoinNode` parent recognizes it and hands the wrapped
    :class:`~repro.core.prepared.PreparedRelation` (group dicts, caches
    and all) straight to the physical layer, so the plan path costs
    nothing over the historical facade.
    """

    def __init__(self, prepared: Any, label_text: Optional[str] = None) -> None:
        self.prepared = prepared
        self._label = label_text if label_text is not None else prepared.name

    def batches(self, ctx: ExecutionContext, size: int) -> BatchStream:
        return stream_relation(self.prepared.relation, size)

    def label(self) -> str:
        return (
            f"Prepared({self._label}, groups={self.prepared.num_groups}, "
            f"elements={self.prepared.num_elements})"
        )

    def _batch_note(self) -> str:
        return "morsel source"

    def output_schema(self, catalog: Optional[Catalog] = None) -> Optional[Schema]:
        return self.prepared.relation.schema


class SSJoinNode(PlanNode):
    """The logical SSJoin operator: ``R SSJoin_A S`` over normalized sets.

    Children produce normalized set relations — either
    :class:`PreparedInput` leaves (the fast path: no conversion) or any
    subtree yielding rows with columns ``a, b[, w][, norm]`` (a
    :class:`TableScan` over a First-Normal-Form table, as the SQL
    ``SSJOIN`` clause compiles to).

    The node itself is purely logical: which physical implementation runs
    (one of :data:`repro.core.optimizer.IMPLEMENTATIONS`) is
    decided at execution time by :mod:`repro.core.physical` using the
    context's cost model — or forced via *implementation*. After
    execution, :attr:`last_result` holds the full
    :class:`~repro.core.physical.SSJoinResult` (pairs, metrics, chosen
    implementation, cost estimate, parallel report).
    """

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        predicate: Any,
        implementation: str = "auto",
        ordering: Any = None,
        encoding: Any = None,
    ) -> None:
        self.children = (left, right)
        self.predicate = predicate
        self.implementation = implementation
        self.ordering = ordering
        self.encoding = encoding
        #: SSJoinResult of the most recent execution (None before any).
        self.last_result: Any = None

    def batches(self, ctx: ExecutionContext, size: int) -> BatchStream:
        # Imported here: repro.core layers above repro.relational.
        from repro.core.physical import execute_ssjoin_node

        # The physical layer emits its pairs as a ColumnarRelation (five
        # parallel lists straight from the encoded merge), so feeding a
        # parent is pure column slicing — no tuple round-trip.
        self.last_result = execute_ssjoin_node(self, ctx)
        return stream_relation(self.last_result.pairs, size)

    def resolve_sides(self, ctx: ExecutionContext) -> Tuple[Any, Any]:
        """Materialize both children as PreparedRelations.

        :class:`PreparedInput` children pass their prepared relation
        through untouched (identity preserved, so self-joins stay
        self-joins); a :class:`TableScan` of an *attached* table reuses
        the stored table's persisted prepared relation (no re-grouping,
        and its page-backed ``.relation`` stays lazy); any other child
        executes and its relation is normalized via
        ``PreparedRelation.from_relation``.
        """
        from repro.core.prepared import PreparedRelation

        sides: List[Any] = []
        for i, child in enumerate(self.children):
            if isinstance(child, PreparedInput):
                sides.append(child.prepared)
            elif i == 1 and self.children[1] is self.children[0]:
                sides.append(sides[0])
            else:
                stored = None
                if isinstance(child, TableScan):
                    table = ctx.catalog.attached(child.table)
                    if table is not None:
                        stored = table.prepared()
                sides.append(
                    stored
                    if stored is not None
                    else PreparedRelation.from_relation(child.execute(ctx))
                )
        return sides[0], sides[1]

    def label(self) -> str:
        return f"SSJoin[{self.implementation}]({self.predicate!r})"

    def annotations(self, context: ExecutionContext) -> Tuple[str, ...]:
        """Per-implementation cost estimates plus the chosen rewrite."""
        from repro.core.optimizer import CostModel

        try:
            left, right = self.resolve_sides(context)
        except Exception:
            return (
                "cost: (inputs not resolvable statically)",
            ) + super().annotations(context)
        model = context.cost_model or CostModel()
        estimates = model.estimate_all(left, right, self.predicate, self.ordering)
        chosen = (
            estimates[0].implementation
            if self.implementation == "auto"
            else self.implementation
        )
        lines = [f"physical: {chosen}" + (
            " (chosen by cost model)" if self.implementation == "auto" else " (forced)"
        )]
        for e in estimates:
            marker = "*" if e.implementation == chosen else " "
            lines.append(f"{marker} cost[{e.implementation}] = {e.cost:.0f}")
        return tuple(lines) + super().annotations(context)

    def _batch_note(self) -> str:
        return "columnar source"

    def output_schema(self, catalog: Optional[Catalog] = None) -> Optional[Schema]:
        return SSJOIN_RESULT_SCHEMA


class Select(PlanNode):
    """σ over a boolean expression."""

    def __init__(self, child: PlanNode, predicate: Expr) -> None:
        self.children = (child,)
        self.predicate = predicate

    def batches(self, ctx: ExecutionContext, size: int) -> BatchStream:
        return operators.select_stream(
            self.children[0].batches(ctx, size), self.predicate
        )

    def label(self) -> str:
        return f"Select({self.predicate!r})"

    def output_schema(self, catalog: Optional[Catalog] = None) -> Optional[Schema]:
        return self._child_schema(catalog)


class Project(PlanNode):
    """π over plain names or ``(name, Expr)`` derived columns."""

    def __init__(self, child: PlanNode, columns: Sequence) -> None:
        self.children = (child,)
        self.columns = list(columns)

    def batches(self, ctx: ExecutionContext, size: int) -> BatchStream:
        # Zero-column projections stay columnar too: empty-schema batches
        # carry an explicit row count (see Batch.num_rows), so
        # COUNT(*)-shaped plans keep their cardinality.
        pushed = self._pushdown_stream(ctx, size)
        if pushed is not None:
            return pushed
        return operators.project_stream(
            self.children[0].batches(ctx, size), self.columns
        )

    def _pushdown_stream(
        self, ctx: ExecutionContext, size: int
    ) -> Optional[BatchStream]:
        """Projection pushdown into page-backed scans.

        A π of plain column names directly over a :class:`TableScan` of
        an attached table asks the stored relation to stream only those
        columns — the unprojected column segments are never read off
        disk. Derived columns, duplicates, and in-memory tables fall
        through to the generic kernel.
        """
        child = self.children[0]
        if not isinstance(child, TableScan):
            return None
        names = [c for c in self.columns if isinstance(c, str)]
        if len(names) != len(self.columns) or len(set(names)) != len(names):
            return None
        if child.table not in ctx.catalog:
            return None
        relation = ctx.catalog.get(child.table)
        stored = getattr(relation, "iter_stored_batches", None)
        if stored is None or any(n not in relation.schema for n in names):
            return None
        return BatchStream(Schema(names), stored(size, names=names), relation.name)

    def label(self) -> str:
        names = [c if isinstance(c, str) else c[0] for c in self.columns]
        return f"Project({', '.join(names)})"

    def output_schema(self, catalog: Optional[Catalog] = None) -> Optional[Schema]:
        child = self._child_schema(catalog)
        if child is None:
            return None
        cols: List[Column] = []
        for c in self.columns:
            if isinstance(c, str):
                cols.append(child.column(c) if c in child else Column(c))
            else:
                cols.append(Column(c[0]))
        return _tolerant_schema(cols)


class Extend(PlanNode):
    """Append one derived column."""

    def __init__(self, child: PlanNode, column: str, expr: Expr) -> None:
        self.children = (child,)
        self.column = column
        self.expr = expr

    def batches(self, ctx: ExecutionContext, size: int) -> BatchStream:
        return operators.extend_stream(
            self.children[0].batches(ctx, size), self.column, self.expr
        )

    def label(self) -> str:
        return f"Extend({self.column} := {self.expr!r})"

    def output_schema(self, catalog: Optional[Catalog] = None) -> Optional[Schema]:
        child = self._child_schema(catalog)
        if child is None:
            return None
        return _tolerant_schema(list(child.columns) + [Column(self.column)])


class Rename(PlanNode):
    """Qualify every column with a table alias (``x`` → ``alias.x``).

    A schema-only rewrite: the batch kernel re-tags each morsel with the
    prefixed schema and passes every column through by reference — zero
    copies, zero row tuples. The SQL compiler inserts one above each scan
    of a joined table, mirroring SQL's alias qualification.
    """

    def __init__(self, child: PlanNode, prefix: str) -> None:
        self.children = (child,)
        self.prefix = prefix

    def batches(self, ctx: ExecutionContext, size: int) -> BatchStream:
        stream = self.children[0].batches(ctx, size)
        out_schema = stream.schema.prefixed(self.prefix)

        def gen() -> Iterator[Batch]:
            for batch in stream:
                yield Batch(out_schema, batch.columns, num_rows=batch.num_rows)

        return BatchStream(out_schema, gen(), stream.name)

    def label(self) -> str:
        return f"Rename({self.prefix}.*)"

    def _batch_note(self) -> str:
        return "vectorized (zero-copy)"

    def output_schema(self, catalog: Optional[Catalog] = None) -> Optional[Schema]:
        child = self._child_schema(catalog)
        if child is None:
            return None
        return child.prefixed(self.prefix)


class Distinct(PlanNode):
    """δ duplicate elimination."""

    def __init__(self, child: PlanNode) -> None:
        self.children = (child,)

    def batches(self, ctx: ExecutionContext, size: int) -> BatchStream:
        return operators.distinct_stream(self.children[0].batches(ctx, size))

    def label(self) -> str:
        return "Distinct()"

    def output_schema(self, catalog: Optional[Catalog] = None) -> Optional[Schema]:
        return self._child_schema(catalog)


class OrderBy(PlanNode):
    """Sort by keys (see :func:`repro.relational.operators.order_by`)."""

    def __init__(self, child: PlanNode, keys: Sequence) -> None:
        self.children = (child,)
        self.keys = list(keys)

    def batches(self, ctx: ExecutionContext, size: int) -> BatchStream:
        return operators.order_by_stream(
            self.children[0].batches(ctx, size), self.keys, batch_size=size
        )

    def label(self) -> str:
        parts = []
        for key in self.keys:
            target, descending = operators.split_order_key(key)
            text = target if isinstance(target, str) else repr(target)
            parts.append(f"{text} DESC" if descending else text)
        return f"OrderBy({', '.join(parts)})"

    def _batch_note(self) -> str:
        return "vectorized sort (blocking)"

    def output_schema(self, catalog: Optional[Catalog] = None) -> Optional[Schema]:
        return self._child_schema(catalog)


class Limit(PlanNode):
    """Keep the first *n* rows."""

    def __init__(self, child: PlanNode, n: int) -> None:
        self.children = (child,)
        self.n = n

    def batches(self, ctx: ExecutionContext, size: int) -> BatchStream:
        return operators.limit_stream(self.children[0].batches(ctx, size), self.n)

    def label(self) -> str:
        return f"Limit({self.n})"

    def output_schema(self, catalog: Optional[Catalog] = None) -> Optional[Schema]:
        return self._child_schema(catalog)


class _JoinBase(PlanNode):
    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        keys: Any,
        prefixes: Optional[Tuple[str, str]] = None,
    ) -> None:
        self.children = (left, right)
        self.keys = keys
        self.prefixes = prefixes

    def label(self) -> str:
        return f"{type(self).__name__}(keys={self.keys})"

    def _child_streams(
        self, ctx: ExecutionContext, size: int
    ) -> Tuple[BatchStream, BatchStream]:
        return (
            self.children[0].batches(ctx, size),
            self.children[1].batches(ctx, size),
        )

    def output_schema(self, catalog: Optional[Catalog] = None) -> Optional[Schema]:
        left = self._child_schema(catalog, 0)
        right = self._child_schema(catalog, 1)
        if left is None or right is None:
            return None
        return _disambiguated_join_schema(left, right, self.prefixes)


class HashJoin(_JoinBase):
    """Equi-join executed by build/probe hashing."""

    def batches(self, ctx: ExecutionContext, size: int) -> BatchStream:
        left, right = self._child_streams(ctx, size)
        return hash_join_stream(
            left, right, self.keys, prefixes=self.prefixes, batch_size=size
        )

    def _batch_note(self) -> str:
        return "vectorized build/probe"


class MergeJoin(_JoinBase):
    """Equi-join executed by sort-merge."""

    def batches(self, ctx: ExecutionContext, size: int) -> BatchStream:
        left, right = self._child_streams(ctx, size)
        return merge_join_stream(
            left, right, self.keys, prefixes=self.prefixes, batch_size=size
        )

    def _batch_note(self) -> str:
        return "vectorized sort-merge"


class LeftOuterJoin(_JoinBase):
    """LEFT OUTER equi-join (unmatched left rows survive, NULL-padded)."""

    def batches(self, ctx: ExecutionContext, size: int) -> BatchStream:
        left, right = self._child_streams(ctx, size)
        return left_outer_join_stream(
            left, right, self.keys, prefixes=self.prefixes, batch_size=size
        )

    def _batch_note(self) -> str:
        return "vectorized build/probe (outer)"


class NestedLoopJoin(PlanNode):
    """θ-join over an arbitrary row-pair predicate (the UDF plan)."""

    def __init__(
        self,
        left: PlanNode,
        right: PlanNode,
        predicate: Callable[[Tuple[Any, ...], Tuple[Any, ...]], bool],
        prefixes: Optional[Tuple[str, str]] = None,
        description: str = "udf",
    ) -> None:
        self.children = (left, right)
        self.predicate = predicate
        self.prefixes = prefixes
        self.description = description

    def batches(self, ctx: ExecutionContext, size: int) -> BatchStream:
        # The predicate is a row-pair callable: materialize both children,
        # pair them row by row, re-stream the result.
        left = self.children[0].execute(ctx)
        right = self.children[1].execute(ctx)
        return stream_relation(
            nested_loop_join(left, right, self.predicate, prefixes=self.prefixes),
            size,
        )

    def _batch_note(self) -> str:
        return _MATERIALIZES

    def label(self) -> str:
        return f"NestedLoopJoin({self.description})"

    def output_schema(self, catalog: Optional[Catalog] = None) -> Optional[Schema]:
        left = self._child_schema(catalog, 0)
        right = self._child_schema(catalog, 1)
        if left is None or right is None:
            return None
        return _disambiguated_join_schema(left, right, self.prefixes)


class GroupBy(PlanNode):
    """γ with aggregates and optional HAVING."""

    def __init__(
        self,
        child: PlanNode,
        keys: Sequence[str],
        aggregates: Sequence[Aggregate],
        having: Optional[Expr] = None,
    ) -> None:
        self.children = (child,)
        self.keys = list(keys)
        self.aggregates = list(aggregates)
        self.having = having

    def batches(self, ctx: ExecutionContext, size: int) -> BatchStream:
        return group_by_stream(
            self.children[0].batches(ctx, size),
            self.keys,
            self.aggregates,
            having=self.having,
            batch_size=size,
        )

    def _batch_note(self) -> str:
        return "vectorized hash aggregate"

    def label(self) -> str:
        aggs = ", ".join(a.name for a in self.aggregates)
        text = f"GroupBy(keys={self.keys}, aggs=[{aggs}]"
        if self.having is not None:
            text += f", having={self.having!r}"
        return text + ")"

    def output_schema(self, catalog: Optional[Catalog] = None) -> Optional[Schema]:
        child = self._child_schema(catalog)
        if child is None:
            return None
        cols = [
            child.column(k) if k in child else Column(k) for k in self.keys
        ] + [Column(a.name) for a in self.aggregates]
        return _tolerant_schema(cols)


class Groupwise(PlanNode):
    """Groupwise-processing operator: per-group subquery application."""

    def __init__(
        self,
        child: PlanNode,
        keys: Sequence[str],
        subquery: Callable[[Relation], Relation],
        description: str = "subquery",
        declares: Optional[Schema] = None,
    ) -> None:
        self.children = (child,)
        self.keys = list(keys)
        self.subquery = subquery
        self.description = description
        self.declares = declares

    def batches(self, ctx: ExecutionContext, size: int) -> BatchStream:
        # The subquery is a Relation -> Relation callable: materialize the
        # child, apply it per group, re-stream the union.
        child = self.children[0].execute(ctx)
        return stream_relation(
            groupwise_apply(child, self.keys, self.subquery), size
        )

    def _batch_note(self) -> str:
        return _MATERIALIZES

    def label(self) -> str:
        return f"Groupwise(keys={self.keys}, subquery={self.description})"

    def output_schema(self, catalog: Optional[Catalog] = None) -> Optional[Schema]:
        if self.declares is not None:
            return self.declares
        # Undeclared subqueries are probed against an empty group: the
        # schema-preserving common case (filter/truncate/sort) and plain
        # projections both resolve, so PV1xx propagation no longer goes
        # blind below this node; exotic subqueries degrade to None.
        return _probed_schema(self.subquery, self._child_schema(catalog))


class Custom(PlanNode):
    """Escape hatch: wrap an arbitrary relation transformer as a node.

    SSJoin implementations use this for steps (like prefix extraction with
    carried state) that compose several primitive operators.
    """

    def __init__(
        self,
        child: PlanNode,
        fn: Callable[[Relation], Relation],
        description: str,
        declares: Optional[Schema] = None,
    ) -> None:
        self.children = (child,)
        self.fn = fn
        self.description = description
        self.declares = declares

    def batches(self, ctx: ExecutionContext, size: int) -> BatchStream:
        # fn is a Relation -> Relation callable: materialize the child,
        # call it, re-stream what it returns.
        return stream_relation(self.fn(self.children[0].execute(ctx)), size)

    def _batch_note(self) -> str:
        return _MATERIALIZES

    def label(self) -> str:
        return f"Custom({self.description})"

    def output_schema(self, catalog: Optional[Catalog] = None) -> Optional[Schema]:
        if self.declares is not None:
            return self.declares
        return _probed_schema(self.fn, self._child_schema(catalog))


def explain(
    node: PlanNode,
    indent: str = "",
    context: Optional[ExecutionContext] = None,
) -> str:
    """Render a plan tree as an indented multi-line string.

    With a *context*, nodes contribute :meth:`PlanNode.annotations` —
    cost estimates and the chosen physical implementation for SSJoin
    nodes — rendered as ``-- ...`` lines under the node's label.
    """
    if not isinstance(node, PlanNode):
        raise PlanError(f"cannot explain {node!r}")
    lines = [indent + node.label()]
    if context is not None:
        for note in node.annotations(context):
            lines.append(indent + "  -- " + note)
    for child in node.children:
        lines.append(explain(child, indent + "  ", context=context))
    return "\n".join(lines)

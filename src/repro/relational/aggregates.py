"""GROUP BY / HAVING: the aggregation machinery behind every SSJoin plan.

The basic SSJoin (paper Figure 7) is literally::

    SELECT R.A, S.A
    FROM R JOIN S ON R.B = S.B
    GROUP BY R.A, S.A
    HAVING SUM(weight) >= alpha

so this module implements grouping with named aggregate functions and a
HAVING filter expressed over ``group keys ++ aggregate outputs``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from repro.errors import PlanError
from repro.relational.batch import (
    ONE_MORSEL,
    Batch,
    BatchStream,
    columnar_relation_from_batches,
    iter_batches_from_columns,
    stream_relation,
)
from repro.relational.expressions import Expr
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema

__all__ = [
    "Aggregate",
    "agg_sum",
    "agg_count",
    "agg_min",
    "agg_max",
    "agg_avg",
    "agg_collect",
    "group_by",
    "group_by_stream",
]


class Aggregate:
    """A named aggregate: output column name + input expr + reducer.

    Parameters
    ----------
    name:
        Output column name for the aggregate value.
    fn:
        Reducer mapping a list of input values to the aggregate value.
    input_expr:
        Expression evaluated per row to produce the reducer's inputs.
        ``None`` means COUNT(*)-style aggregates that only need row counts.
    kind:
        Optional tag naming a built-in reducer (``"count"``, ``"sum"``,
        ``"min"``, ``"max"``, ``"avg"``, ``"collect"``) so the columnar
        grouped-aggregation kernel can run a per-group accumulator array
        instead of buffering value lists. ``None`` (custom reducer) falls
        back to buffered evaluation through *fn* — still correct, just
        not accumulator-based.
    """

    __slots__ = ("name", "fn", "input_expr", "kind")

    def __init__(
        self,
        name: str,
        fn: Callable[[List[Any]], Any],
        input_expr: Optional[Expr],
        kind: Optional[str] = None,
    ) -> None:
        self.name = name
        self.fn = fn
        self.input_expr = input_expr
        self.kind = kind

    def __repr__(self) -> str:
        return f"Aggregate({self.name})"


def _non_null(values: List[Any]) -> List[Any]:
    return [v for v in values if v is not None]


def agg_sum(name: str, expr: Expr) -> Aggregate:
    """SUM(expr) AS name — NULL inputs are skipped; all-NULL gives NULL."""

    def fn(values: List[Any]) -> Any:
        kept = _non_null(values)
        return sum(kept) if kept else None

    return Aggregate(name, fn, expr, kind="sum")


def agg_count(name: str, expr: Optional[Expr] = None) -> Aggregate:
    """COUNT(*) AS name (or COUNT(expr), counting non-None values)."""
    if expr is None:
        return Aggregate(name, len, None, kind="count")
    return Aggregate(
        name,
        lambda values: sum(1 for v in values if v is not None),
        expr,
        kind="count",
    )


def agg_min(name: str, expr: Expr) -> Aggregate:
    """MIN(expr) AS name — NULL inputs are skipped; all-NULL gives NULL."""

    def fn(values: List[Any]) -> Any:
        kept = _non_null(values)
        return min(kept) if kept else None

    return Aggregate(name, fn, expr, kind="min")


def agg_max(name: str, expr: Expr) -> Aggregate:
    """MAX(expr) AS name — NULL inputs are skipped; all-NULL gives NULL."""

    def fn(values: List[Any]) -> Any:
        kept = _non_null(values)
        return max(kept) if kept else None

    return Aggregate(name, fn, expr, kind="max")


def agg_avg(name: str, expr: Expr) -> Aggregate:
    """AVG(expr) AS name — NULL inputs are skipped; all-NULL gives NULL."""

    def fn(values: List[Any]) -> Any:
        kept = _non_null(values)
        return sum(kept) / len(kept) if kept else None

    return Aggregate(name, fn, expr, kind="avg")


def agg_collect(name: str, expr: Expr) -> Aggregate:
    """Collect all input values into a tuple (ARRAY_AGG analogue).

    Used by the groupwise-processing operator and the inline-set SSJoin
    implementation to materialize per-group element lists.
    """
    return Aggregate(name, tuple, expr, kind="collect")


def group_by(
    relation: Relation,
    keys: Sequence[str],
    aggregates: Sequence[Aggregate],
    having: Optional[Expr] = None,
) -> Relation:
    """Group *relation* by *keys*, compute *aggregates*, filter by *having*.

    Output schema is ``keys ++ [a.name for a in aggregates]``. The HAVING
    expression is bound against that output schema, so it may reference both
    grouping columns and aggregate results (as in SQL).

    >>> r = Relation.from_rows(["a", "w"], [("x", 1), ("x", 2), ("y", 5)])
    >>> from repro.relational.expressions import col
    >>> out = group_by(r, ["a"], [agg_sum("total", col("w"))], having=col("total") >= 3)
    >>> sorted(out.rows)
    [('x', 3), ('y', 5)]
    """
    stream = stream_relation(relation, ONE_MORSEL)
    return columnar_relation_from_batches(
        group_by_stream(stream, keys, aggregates, having=having, batch_size=ONE_MORSEL)
    )


# -- the grouped-aggregation kernel ---------------------------------------------
#
# Hash aggregation over columns: each morsel is mapped to per-row group
# ids once (shared by every aggregate), then each aggregate updates flat
# per-group accumulator arrays in one tight zip loop over its input
# column. Finalize is a single pass emitting flat output columns — no row
# tuples and no per-group row buffering for the built-in kinds.
#
# The arithmetic is pinned (tests hold results to the float bit): groups
# are numbered in first-occurrence order, sums accumulate left-to-right
# from int 0 (identical to ``sum(kept)``), min/max keep the first
# extremal value on ties, and the mean carries the exact (Σ, n) pair and
# divides once at finalize, reproducing ``sum(kept)/len(kept)``.

#: Sentinel distinguishing "no value seen yet" from a NULL input.
_MISSING = object()


class _CountState:
    """COUNT(*) (no input expr) or COUNT(expr) (non-NULL count)."""

    __slots__ = ("counts", "fn")

    def __init__(self, fn: Optional[Callable[[Batch], Sequence[Any]]]) -> None:
        self.counts: List[int] = []
        self.fn = fn

    def update(self, gids: Sequence[int], ngroups: int, batch: Batch) -> None:
        counts = self.counts
        counts.extend([0] * (ngroups - len(counts)))
        if self.fn is None:
            for g in gids:
                counts[g] += 1
        else:
            for g, v in zip(gids, self.fn(batch)):
                if v is not None:
                    counts[g] += 1

    def finalize(self) -> List[Any]:
        return self.counts


class _SumState:
    """SUM / AVG share the (Σ, non-NULL count) accumulator pair."""

    __slots__ = ("sums", "counts", "fn", "mean")

    def __init__(self, fn: Callable[[Batch], Sequence[Any]], mean: bool) -> None:
        self.sums: List[Any] = []
        self.counts: List[int] = []
        self.fn = fn
        self.mean = mean

    def update(self, gids: Sequence[int], ngroups: int, batch: Batch) -> None:
        sums, counts = self.sums, self.counts
        grow = ngroups - len(sums)
        if grow:
            sums.extend([0] * grow)
            counts.extend([0] * grow)
        for g, v in zip(gids, self.fn(batch)):
            if v is not None:
                sums[g] = sums[g] + v
                counts[g] += 1

    def finalize(self) -> List[Any]:
        if self.mean:
            return [
                (s / n if n else None) for s, n in zip(self.sums, self.counts)
            ]
        return [(s if n else None) for s, n in zip(self.sums, self.counts)]


class _MinMaxState:
    """MIN / MAX keep the first extremal value (ties resolve to first)."""

    __slots__ = ("best", "fn", "is_max")

    def __init__(self, fn: Callable[[Batch], Sequence[Any]], is_max: bool) -> None:
        self.best: List[Any] = []
        self.fn = fn
        self.is_max = is_max

    def update(self, gids: Sequence[int], ngroups: int, batch: Batch) -> None:
        best = self.best
        best.extend([_MISSING] * (ngroups - len(best)))
        if self.is_max:
            for g, v in zip(gids, self.fn(batch)):
                if v is not None:
                    cur = best[g]
                    if cur is _MISSING or v > cur:
                        best[g] = v
        else:
            for g, v in zip(gids, self.fn(batch)):
                if v is not None:
                    cur = best[g]
                    if cur is _MISSING or v < cur:
                        best[g] = v

    def finalize(self) -> List[Any]:
        return [(None if v is _MISSING else v) for v in self.best]


class _BufferedState:
    """Fallback for collect and custom reducers: buffer per-group inputs.

    With an input expression the buffers hold its values; without one
    (custom whole-row reducers) they hold row tuples — the only place the
    batch path ever builds rows, and only for non-built-in aggregates.
    """

    __slots__ = ("buffers", "fn", "reduce")

    def __init__(
        self,
        fn: Optional[Callable[[Batch], Sequence[Any]]],
        reduce: Callable[[List[Any]], Any],
    ) -> None:
        self.buffers: List[List[Any]] = []
        self.fn = fn
        self.reduce = reduce

    def update(self, gids: Sequence[int], ngroups: int, batch: Batch) -> None:
        buffers = self.buffers
        while len(buffers) < ngroups:
            buffers.append([])
        values = batch.to_rows() if self.fn is None else self.fn(batch)
        for g, v in zip(gids, values):
            buffers[g].append(v)

    def finalize(self) -> List[Any]:
        return [self.reduce(b) for b in self.buffers]


def _make_state(agg: Aggregate, schema: Schema) -> Any:
    fn = None if agg.input_expr is None else agg.input_expr.bind_batch(schema)
    if agg.kind == "count":
        return _CountState(fn)
    if fn is not None:
        if agg.kind == "sum":
            return _SumState(fn, mean=False)
        if agg.kind == "avg":
            return _SumState(fn, mean=True)
        if agg.kind == "min":
            return _MinMaxState(fn, is_max=False)
        if agg.kind == "max":
            return _MinMaxState(fn, is_max=True)
    return _BufferedState(fn, agg.fn)


def group_by_stream(
    stream: BatchStream,
    keys: Sequence[str],
    aggregates: Sequence[Aggregate],
    having: Optional[Expr] = None,
    batch_size: int = 4096,
) -> BatchStream:
    """:func:`group_by` over a morsel stream.

    A pipeline breaker: the generator consumes the whole child stream
    into the accumulator arrays, finalizes once, applies HAVING as a
    selection vector over the flat output columns, and emits the result
    in *batch_size* morsels, groups in first-occurrence order.
    """
    if not keys and not aggregates:
        raise PlanError("group_by needs at least one key or aggregate")
    schema = stream.schema
    key_pos = schema.positions(list(keys))
    out_schema = Schema(
        [schema.column(k) for k in keys] + [Column(a.name) for a in aggregates]
    )
    states = [_make_state(agg, schema) for agg in aggregates]
    having_sel = having.bind_select(out_schema) if having is not None else None

    def gen() -> Iterator[Batch]:
        index: Dict[Any, int] = {}
        key_store: List[Any] = []
        if not keys:
            # A global aggregate always has exactly one group — even over
            # an empty input (SQL: one row, COUNT(*)=0, others NULL).
            index[()] = 0
            key_store.append(())
        single_key = len(key_pos) == 1
        get = index.get
        for batch in stream:
            n = batch.num_rows
            if n == 0:
                continue
            if key_pos:
                gids: List[int] = []
                append = gids.append
                if single_key:
                    keys_iter: Any = batch.columns[key_pos[0]]
                else:
                    keys_iter = zip(*(batch.columns[p] for p in key_pos))
                for key in keys_iter:
                    gid = get(key)
                    if gid is None:
                        gid = index[key] = len(key_store)
                        key_store.append(key)
                    append(gid)
            else:
                gids = [0] * n
            ngroups = len(key_store)
            for state in states:
                state.update(gids, ngroups, batch)

        # The key -> gid table is as large as the output; drop it before
        # the output columns are built.
        del index, get
        ngroups = len(key_store)
        if ngroups and states:
            # The pre-seeded global group may never have seen a batch
            # (empty input); one empty update grows every accumulator
            # array to ngroups with its seed values.
            pad = Batch(schema, tuple([] for _ in schema), num_rows=0)
            for state in states:
                state.update((), ngroups, pad)
        if single_key:
            key_cols: List[List[Any]] = [key_store]
        else:
            key_cols = [[key[i] for key in key_store] for i in range(len(key_pos))]
        del key_store
        out_cols = key_cols + [state.finalize() for state in states]
        if having_sel is not None and ngroups:
            sel = having_sel(Batch(out_schema, out_cols, num_rows=ngroups))
            if len(sel) < ngroups:
                out_cols = [[c[i] for i in sel] for c in out_cols]
        yield from iter_batches_from_columns(out_schema, out_cols, batch_size)

    return BatchStream(out_schema, gen(), stream.name)

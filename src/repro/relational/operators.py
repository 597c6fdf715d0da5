"""Expression-driven unary relational operators.

Each operator has one implementation: a kernel over a morsel stream
(``*_stream``), used as is by the plan nodes of
:mod:`repro.relational.plan`. The functional ``Relation -> Relation``
spellings (:func:`select`, :func:`project`, ...) hand the kernel their
whole input as one morsel and fold its output. Expressions are bound once
against the stream schema (outside the generators), so unknown-column
errors surface when the operator is built, not when it is drained.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.errors import PlanError
from repro.relational.batch import (
    ONE_MORSEL,
    Batch,
    BatchStream,
    columnar_relation_from_batches,
    stream_relation,
)
from repro.relational.expressions import Expr
from repro.relational.relation import Relation
from repro.relational.schema import Column, Schema

__all__ = [
    "select",
    "project",
    "extend",
    "distinct",
    "order_by",
    "split_order_key",
    "limit",
    "union_all",
    "value_counts",
    "select_stream",
    "project_stream",
    "extend_stream",
    "distinct_stream",
    "order_by_stream",
    "limit_stream",
]


def select(relation: Relation, predicate: Expr) -> Relation:
    """σ — keep rows where the boolean expression *predicate* holds."""
    stream = stream_relation(relation, ONE_MORSEL)
    return columnar_relation_from_batches(select_stream(stream, predicate))


def project(
    relation: Relation,
    columns: Sequence,
) -> Relation:
    """π — bag projection.

    Each item of *columns* is either a plain column name (pass-through) or a
    ``(new_name, Expr)`` pair computing a derived column.
    """
    stream = stream_relation(relation, ONE_MORSEL)
    return columnar_relation_from_batches(project_stream(stream, columns))


def extend(relation: Relation, column: str, expr: Expr) -> Relation:
    """Append a derived column computed by *expr*."""
    stream = stream_relation(relation, ONE_MORSEL)
    return columnar_relation_from_batches(extend_stream(stream, column, expr))


def distinct(relation: Relation, columns: Optional[Sequence[str]] = None) -> Relation:
    """δ — duplicate elimination, optionally after projecting to *columns*."""
    stream = stream_relation(relation, ONE_MORSEL)
    if columns is not None:
        stream = project_stream(stream, list(columns))
    return columnar_relation_from_batches(distinct_stream(stream))


def split_order_key(key: Any) -> "tuple[Any, bool]":
    """Normalize one sort key into ``(target, descending)``.

    *target* is a column name or an :class:`Expr` computing the sort
    value; a bare target sorts ascending, a ``(target, "desc")`` pair
    descending.
    """
    if isinstance(key, (str, Expr)):
        return key, False
    target, direction = key
    return target, str(direction).lower() in ("desc", "descending")


def order_by(
    relation: Relation,
    keys: Sequence,
) -> Relation:
    """Sort by a sequence of ``column``/``Expr`` or ``(key, "desc")`` keys."""
    stream = stream_relation(relation, ONE_MORSEL)
    return columnar_relation_from_batches(order_by_stream(stream, keys, ONE_MORSEL))


def limit(relation: Relation, n: int) -> Relation:
    """Keep the first *n* rows."""
    return columnar_relation_from_batches(
        limit_stream(stream_relation(relation, ONE_MORSEL), n)
    )


def union_all(*relations: Relation) -> Relation:
    """Bag union of any number of union-compatible relations."""
    if not relations:
        raise PlanError("union_all requires at least one relation")
    out = relations[0]
    for rel in relations[1:]:
        out = out.union_all(rel)
    return out


def select_stream(stream: BatchStream, predicate: Expr) -> BatchStream:
    """Vectorized σ: selection-vector compaction per morsel.

    The predicate compiles via :meth:`Expr.bind_select` — comparisons
    against constants and fused AND/OR emit the selection vector in one
    pass. A batch where every row survives passes through by reference;
    a batch where none survive is dropped entirely.
    """
    sel_fn = predicate.bind_select(stream.schema)

    def gen() -> Iterator[Batch]:
        for batch in stream:
            n = batch.num_rows
            if n == 0:
                continue
            sel = sel_fn(batch)
            if len(sel) == n:
                yield batch
            elif sel:
                yield batch.take(sel)

    return BatchStream(stream.schema, gen(), stream.name)


def project_stream(stream: BatchStream, columns: Sequence) -> BatchStream:
    """Vectorized π: pure-name projections are zero-copy column slices;
    derived columns evaluate via one batched expression call each."""
    schema = stream.schema
    if not columns:
        # Empty projection: the output batches have no columns but still
        # carry their row count, so COUNT(*)-shaped plans stay columnar.
        out_schema = Schema([])

        def counted() -> Iterator[Batch]:
            for batch in stream:
                yield Batch(out_schema, (), num_rows=batch.num_rows)

        return BatchStream(out_schema, counted(), stream.name)
    if all(isinstance(item, str) for item in columns):
        positions = schema.positions(columns)
        out_schema = schema.project(columns)

        def passthrough() -> Iterator[Batch]:
            for batch in stream:
                yield Batch(
                    out_schema, tuple(batch.columns[p] for p in positions)
                )

        return BatchStream(out_schema, passthrough(), stream.name)
    names: List[str] = []
    fns = []
    for item in columns:
        if isinstance(item, str):
            pos = schema.position(item)
            names.append(item)
            fns.append(lambda batch, p=pos: batch.columns[p])
        elif isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], Expr):
            name, expr = item
            names.append(name)
            fns.append(expr.bind_batch(schema))
        else:
            raise PlanError(f"cannot interpret projection item {item!r}")
    out_schema = Schema([Column(n) for n in names])

    def gen() -> Iterator[Batch]:
        for batch in stream:
            yield Batch(out_schema, tuple(fn(batch) for fn in fns))

    return BatchStream(out_schema, gen(), stream.name)


def extend_stream(stream: BatchStream, column: str, expr: Expr) -> BatchStream:
    """Vectorized Extend: existing columns pass by reference; the derived
    column is one batched UDF call (``list(map(fn, *cols))``)."""
    fn = expr.bind_batch(stream.schema)
    out_schema = stream.schema.extend([Column(column)])

    def gen() -> Iterator[Batch]:
        for batch in stream:
            yield Batch(out_schema, batch.columns + (fn(batch),))

    return BatchStream(out_schema, gen(), stream.name)


def limit_stream(stream: BatchStream, n: int) -> BatchStream:
    """Vectorized Limit: stop pulling morsels once *n* rows have flowed."""
    if n < 0:
        raise PlanError(f"limit must be non-negative, got {n}")

    def gen() -> Iterator[Batch]:
        remaining = n
        if remaining == 0:
            return
        for batch in stream:
            k = batch.num_rows
            if k <= remaining:
                yield batch
                remaining -= k
                if remaining == 0:
                    return
            else:
                yield Batch(
                    batch.schema,
                    tuple(col[:remaining] for col in batch.columns),
                    num_rows=remaining,
                )
                return

    return BatchStream(stream.schema, gen(), stream.name)


def distinct_stream(stream: BatchStream) -> BatchStream:
    """Vectorized δ: one hash set over zipped key columns, streaming.

    Each morsel contributes a selection vector of first occurrences; a
    batch with no duplicates passes through by reference, a batch of pure
    repeats is dropped. Survivors keep first-seen order.
    """
    schema = stream.schema

    def gen() -> Iterator[Batch]:
        if not len(schema):
            # A zero-column relation has at most one distinct row: ().
            for batch in stream:
                if batch.num_rows:
                    yield Batch(schema, (), num_rows=1)
                    return
            return
        seen: set = set()
        add = seen.add
        for batch in stream:
            cols = batch.columns
            rows_iter = (
                ((v,) for v in cols[0]) if len(cols) == 1 else zip(*cols)
            )
            sel: List[int] = []
            keep = sel.append
            for i, row in enumerate(rows_iter):
                if row not in seen:
                    add(row)
                    keep(i)
            if len(sel) == batch.num_rows:
                yield batch
            elif sel:
                yield batch.take(sel)

    return BatchStream(schema, gen(), stream.name)


def order_by_stream(
    stream: BatchStream, keys: Sequence, batch_size: int
) -> BatchStream:
    """Vectorized sort: accumulate columns, argsort an index array once
    per key (stable, last key first, so mixed ascending/descending
    orderings need no comparator tricks), emit morsels of the permutation.
    """
    schema = stream.schema
    getters = []
    for key in keys:
        target, descending = split_order_key(key)
        if isinstance(target, Expr):
            getters.append((target.bind_batch(schema), None, descending))
        else:
            getters.append((None, schema.position(target), descending))

    def gen() -> Iterator[Batch]:
        whole = columnar_relation_from_batches(stream)
        columns, total = whole.columns, len(whole)
        if total == 0:
            return
        if not columns:
            for lo in range(0, total, batch_size):
                yield Batch(schema, (), num_rows=min(batch_size, total - lo))
            return
        merged = Batch(schema, columns, num_rows=total)
        index = list(range(total))
        for fn, pos, descending in reversed(getters):
            col = columns[pos] if fn is None else fn(merged)
            if not isinstance(col, (list, tuple)):
                col = list(col)
            index.sort(key=col.__getitem__, reverse=descending)
        for lo in range(0, total, batch_size):
            sel = index[lo : lo + batch_size]
            yield Batch(schema, tuple([c[i] for i in sel] for c in columns))

    return BatchStream(schema, gen(), stream.name)


def value_counts(relation: Relation, column: str) -> Dict[Any, int]:
    """Frequency of each distinct value in *column* (helper for stats/IDF)."""
    pos = relation.schema.position(column)
    counts: Dict[Any, int] = {}
    for row in relation.rows:
        v = row[pos]
        counts[v] = counts.get(v, 0) + 1
    return counts

"""Columnar batches: the morsel currency every relational operator speaks.

Operators flow **morsels**: fixed-capacity :class:`Batch` objects holding
parallel column lists under a shared
:class:`~repro.relational.schema.Schema`. Operator kernels amortize
dispatch over thousands of rows (``list(map(fn, col_a, col_b))`` runs the
loop in C), pass untouched columns through by reference, and compact
filters via selection vectors instead of materializing per-row.

The module also provides the two ends of every kernel call —
:func:`stream_relation` chops a materialized relation into morsels,
:func:`columnar_relation_from_batches` folds a batch stream back into a
relation — and :class:`ColumnarRelation`, a Relation that *carries* its
columns and only materializes row tuples on first access, so the SSJoin
physical layer can emit ``(a_r, a_s, overlap, norm_r, norm_s)`` straight
from the encoded merge without a tuple round-trip.
"""

from __future__ import annotations

import sys
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.relational.relation import Relation
from repro.relational.schema import Schema

__all__ = [
    "Batch",
    "BatchStream",
    "ColumnarRelation",
    "DEFAULT_BATCH_SIZE",
    "ONE_MORSEL",
    "columnar_relation_from_batches",
    "iter_batches_from_columns",
    "iter_batches_from_rows",
    "stream_relation",
]

#: Morsel capacity of the plan path: large enough that per-morsel
#: dispatch is noise against per-row work, small enough to stay in cache.
DEFAULT_BATCH_SIZE = 4096

#: A capacity no input exceeds: the functional API (``hash_join(r, s)``)
#: hands each kernel its whole input as a single morsel.
ONE_MORSEL = sys.maxsize


class Batch:
    """One morsel: parallel column lists under a shared schema.

    Columns are position-aligned with ``schema.names``; every column has
    the same length (= :attr:`num_rows`). Columns are *shared by
    reference* between batches wherever possible (projection, pass-through
    filters), so kernels must never mutate a column they received.

    A zero-column batch (empty schema) carries its row count explicitly
    via *num_rows*, so ``SELECT COUNT(*)``-shaped plans — whose
    projections drop every column — stay on the batch protocol without
    losing cardinality. When columns are present the stored count is
    ignored and derived from the first column.
    """

    __slots__ = ("schema", "columns", "_num_rows")

    def __init__(
        self,
        schema: Schema,
        columns: Sequence[Sequence[Any]],
        num_rows: Optional[int] = None,
    ) -> None:
        self.schema = schema
        self.columns: Tuple[Sequence[Any], ...] = tuple(columns)
        if self.columns:
            self._num_rows = len(self.columns[0])
        else:
            self._num_rows = 0 if num_rows is None else num_rows

    @classmethod
    def from_rows(cls, schema: Schema, rows: Sequence[Tuple[Any, ...]]) -> "Batch":
        """Transpose a row slice into columns (the row→batch adapter)."""
        width = len(schema)
        if width == 0:
            return cls(schema, (), num_rows=len(rows))
        if not rows:
            return cls(schema, tuple([] for _ in range(width)))
        if width == 1:
            return cls(schema, ([row[0] for row in rows],))
        return cls(schema, tuple(list(c) for c in zip(*rows)))

    @property
    def num_rows(self) -> int:
        return self._num_rows

    def column(self, position: int) -> Sequence[Any]:
        return self.columns[position]

    def to_rows(self) -> List[Tuple[Any, ...]]:
        """Transpose back into row tuples (the batch→row adapter)."""
        if not self.columns:
            return [()] * self._num_rows
        if len(self.columns) == 1:
            return [(v,) for v in self.columns[0]]
        return list(zip(*self.columns))

    def take(self, selection: Sequence[int]) -> "Batch":
        """Compact this batch to the rows named by *selection* (a sorted
        selection vector of row indices), sharing nothing downstream."""
        return Batch(
            self.schema,
            tuple([col[i] for i in selection] for col in self.columns),
            num_rows=len(selection),
        )

    def __len__(self) -> int:
        return self.num_rows

    def __repr__(self) -> str:
        return f"<Batch {list(self.schema.names)} rows={self.num_rows}>"


class BatchStream:
    """A stream of batches plus the metadata a relation would carry.

    The schema and name ride alongside the iterator so a stream of zero
    batches still folds back into a correctly-shaped empty relation.
    *source* is set when the stream is nothing but a materialized
    relation chopped into morsels (:func:`stream_relation`), so a plan
    whose root is such a node hands that relation back instead of a copy.
    """

    __slots__ = ("schema", "batches", "name", "source")

    def __init__(
        self,
        schema: Schema,
        batches: Iterable[Batch],
        name: Optional[str] = None,
        source: Optional[Relation] = None,
    ) -> None:
        self.schema = schema
        self.batches = batches
        self.name = name
        self.source = source

    def __iter__(self) -> Iterator[Batch]:
        return iter(self.batches)


class ColumnarRelation(Relation):
    """A Relation that carries columns and materializes rows lazily.

    The SSJoin physical layer and the verify engine produce their output
    as five parallel lists; wrapping them here keeps the columnar form
    available to the operator kernels (:attr:`columns`) while every row
    consumer (``.rows``, iteration, ``__eq__``) still sees an ordinary
    Relation — the tuples are built once, on first access.
    """

    __slots__ = ("columns", "_num_rows")

    def __init__(
        self,
        schema: Schema,
        columns: Sequence[Sequence[Any]],
        name: Optional[str] = None,
        num_rows: Optional[int] = None,
    ) -> None:
        self.schema = schema
        self.columns = tuple(columns)
        self.name = name
        if self.columns:
            self._num_rows = len(self.columns[0])
        else:
            self._num_rows = 0 if num_rows is None else num_rows
        _ROWS_SLOT.__set__(self, None)

    @property  # type: ignore[override]
    def rows(self) -> Tuple[Tuple[Any, ...], ...]:
        cached = _ROWS_SLOT.__get__(self, ColumnarRelation)
        if cached is None:
            if self.columns:
                cached = tuple(zip(*self.columns))
            else:
                cached = ((),) * self._num_rows
            _ROWS_SLOT.__set__(self, cached)
        return cached

    def __len__(self) -> int:
        return self._num_rows

    @property
    def num_rows(self) -> int:
        return len(self)

    def column_values(self, name: str) -> Tuple[Any, ...]:
        return tuple(self.columns[self.schema.position(name)])

    def _reschema(self, schema: Schema, name: Optional[str]) -> "ColumnarRelation":
        return ColumnarRelation(schema, self.columns, name, self._num_rows)

    def __reduce__(self) -> Tuple[Any, ...]:
        # The default slot pickling would try to restore through the
        # read-only ``rows`` property; rebuild from columns instead.
        return (
            ColumnarRelation,
            (self.schema, self.columns, self.name, self._num_rows),
        )


#: The base class's ``rows`` slot descriptor, used as backing storage for
#: :class:`ColumnarRelation`'s lazy ``rows`` property.
_ROWS_SLOT = Relation.__dict__["rows"]


def iter_batches_from_rows(
    schema: Schema,
    rows: Sequence[Tuple[Any, ...]],
    batch_size: int,
) -> Iterator[Batch]:
    """Chop a materialized row sequence into morsels."""
    n = len(rows)
    if n == 0:
        return
    for lo in range(0, n, batch_size):
        yield Batch.from_rows(schema, rows[lo : lo + batch_size])


def iter_batches_from_columns(
    schema: Schema,
    columns: Sequence[Sequence[Any]],
    batch_size: int,
    num_rows: Optional[int] = None,
) -> Iterator[Batch]:
    """Slice parallel columns into morsels — no row tuples are built.

    *num_rows* is only consulted for zero-column inputs, where the row
    count cannot be derived from the (absent) columns. An input that
    fits one morsel is yielded as is: slicing would copy every column.
    """
    if not columns:
        n = 0 if num_rows is None else num_rows
        for lo in range(0, n, batch_size):
            yield Batch(schema, (), num_rows=min(batch_size, n - lo))
        return
    n = len(columns[0])
    if 0 < n <= batch_size:
        yield Batch(schema, columns)
        return
    for lo in range(0, n, batch_size):
        yield Batch(schema, tuple(col[lo : lo + batch_size] for col in columns))


def stream_relation(relation: Relation, batch_size: int) -> BatchStream:
    """Chop a materialized relation into a morsel stream.

    A page-backed relation (anything exposing ``iter_stored_batches`` —
    duck-typed so this layer never imports :mod:`repro.storage`) streams
    morsels straight off its mapped pages; a :class:`ColumnarRelation` is
    sliced column-wise (no row tuples are built); a plain
    :class:`Relation` is transposed slice-by-slice.
    """
    stored = getattr(relation, "iter_stored_batches", None)
    if stored is not None:
        batches = stored(batch_size)
    elif isinstance(relation, ColumnarRelation):
        batches = iter_batches_from_columns(
            relation.schema, relation.columns, batch_size, num_rows=len(relation)
        )
    else:
        batches = iter_batches_from_rows(
            relation.schema, relation.rows, batch_size
        )
    return BatchStream(relation.schema, batches, relation.name, source=relation)


def columnar_relation_from_batches(stream: BatchStream) -> "ColumnarRelation":
    """Fold a batch stream into a :class:`ColumnarRelation`.

    Batches are concatenated in arrival order. The single-batch case —
    every result under one morsel — adopts the batch's columns by
    reference.
    """
    it = iter(stream)
    first = next(it, None)
    if first is None:
        return ColumnarRelation(
            stream.schema, [[] for _ in stream.schema], name=stream.name
        )
    second = next(it, None)
    if second is None:
        return ColumnarRelation(
            stream.schema, first.columns, name=stream.name,
            num_rows=first.num_rows,
        )
    columns = [list(c) for c in first.columns]
    total = first.num_rows
    for batch in _chain(second, it):
        total += batch.num_rows
        for acc, col in zip(columns, batch.columns):
            acc.extend(col)
    return ColumnarRelation(
        stream.schema, columns, name=stream.name, num_rows=total
    )


def _chain(head: Batch, rest: Iterator[Batch]) -> Iterator[Batch]:
    yield head
    yield from rest

"""The :class:`Relation`: an immutable, in-memory table of row tuples.

Rows are plain Python tuples in schema order; the operator kernels work on
the columnar form (:class:`~repro.relational.batch.ColumnarRelation` is
the subclass that carries columns and builds the tuples lazily).
Relations are *bags* — duplicate rows are preserved, matching SQL multiset
semantics; use :meth:`Relation.distinct` for set semantics.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import SchemaError
from repro.relational.schema import Column, Schema

__all__ = ["Relation"]


class Relation:
    """An immutable bag of tuples under a :class:`Schema`.

    Construction
    ------------
    >>> r = Relation.from_rows(["name", "age"], [("ann", 31), ("bob", 27)])
    >>> r.num_rows
    2
    >>> r.column_values("name")
    ('ann', 'bob')

    The constructor does not validate row shapes for speed; use
    :meth:`from_rows` with ``validate=True`` or call :meth:`validated`
    when ingesting untrusted data.
    """

    __slots__ = ("schema", "rows", "name")

    def __init__(
        self,
        schema: Schema,
        rows: Sequence[Tuple[Any, ...]],
        name: Optional[str] = None,
    ) -> None:
        self.schema = schema
        self.rows: Tuple[Tuple[Any, ...], ...] = tuple(rows)
        self.name = name

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        columns: Iterable,
        rows: Iterable[Sequence[Any]],
        name: Optional[str] = None,
        validate: bool = False,
    ) -> "Relation":
        """Build a relation from column specs and an iterable of rows."""
        schema = columns if isinstance(columns, Schema) else Schema(columns)
        tuples = [tuple(r) for r in rows]
        if validate:
            for row in tuples:
                schema.validate_row(row)
        return cls(schema, tuples, name=name)

    @classmethod
    def from_dicts(
        cls,
        columns: Iterable,
        records: Iterable[Mapping[str, Any]],
        name: Optional[str] = None,
    ) -> "Relation":
        """Build a relation from mappings; missing keys become ``None``."""
        schema = columns if isinstance(columns, Schema) else Schema(columns)
        names = schema.names
        rows = [tuple(rec.get(n) for n in names) for rec in records]
        return cls(schema, rows, name=name)

    @classmethod
    def empty(cls, columns: Iterable, name: Optional[str] = None) -> "Relation":
        """An empty relation with the given schema."""
        schema = columns if isinstance(columns, Schema) else Schema(columns)
        return cls(schema, (), name=name)

    @classmethod
    def from_tsv(cls, path: "Union[str, os.PathLike]", name: Optional[str] = None) -> "Relation":
        """Load a TSV file: first line is the header; empty cells are NULL.

        Values parse as int, then float, then string — the affinity rule
        the CLI's ``sql`` command uses.
        """
        def parse(cell: str) -> Any:
            if cell == "":
                return None
            try:
                return int(cell)
            except ValueError:
                pass
            try:
                return float(cell)
            except ValueError:
                return cell

        with open(path, encoding="utf-8") as f:
            lines = [line.rstrip("\n") for line in f]
        if not lines:
            raise SchemaError(f"{path} is empty (expected a header line)")
        headers = lines[0].split("\t")
        rows = [
            tuple(parse(cell) for cell in line.split("\t"))
            for line in lines[1:]
            if line
        ]
        return cls.from_rows(headers, rows, name=name)

    def to_tsv(self, path: "Union[str, os.PathLike]") -> None:
        """Write this relation as TSV (NULLs become empty cells)."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("\t".join(self.schema.names) + "\n")
            for row in self.rows:
                f.write("\t".join("" if v is None else str(v) for v in row) + "\n")

    # -- basic protocol --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows)

    def __eq__(self, other: object) -> bool:
        """Bag equality: same schema names and same multiset of rows."""
        if not isinstance(other, Relation):
            return NotImplemented
        if self.schema.names != other.schema.names:
            return False
        return sorted(map(repr, self.rows)) == sorted(map(repr, other.rows))

    def __repr__(self) -> str:
        label = self.name or "Relation"
        return f"<{label} {list(self.schema.names)} rows={len(self)}>"

    # -- accessors ----------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    @property
    def column_names(self) -> Tuple[str, ...]:
        return self.schema.names

    def column_values(self, name: str) -> Tuple[Any, ...]:
        """All values (with duplicates) of one column, in row order."""
        pos = self.schema.position(name)
        return tuple(row[pos] for row in self.rows)

    def row_dicts(self) -> List[dict]:
        """Rows as dictionaries (column name -> value)."""
        names = self.schema.names
        return [dict(zip(names, row)) for row in self.rows]

    def head(self, n: int = 10) -> "Relation":
        """First *n* rows (for inspection)."""
        return Relation(self.schema, self.rows[:n], name=self.name)

    # -- simple algebra (fuller operator set lives in operators/joins) ------------

    def _reschema(self, schema: Schema, name: Optional[str]) -> "Relation":
        """The same data under another schema/name; data is shared."""
        return Relation(schema, self.rows, name=name)

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        """Rename columns; data is shared, not copied."""
        return self._reschema(self.schema.rename(dict(mapping)), self.name)

    def renamed(self, name: str) -> "Relation":
        """Return the same relation under a new *table* name."""
        return self._reschema(self.schema, name)

    def prefixed(self, prefix: str) -> "Relation":
        """Qualify every column name with ``prefix.``."""
        return self._reschema(self.schema.prefixed(prefix), self.name)

    def project(self, names: Sequence[str]) -> "Relation":
        """Bag projection onto *names* (keeps duplicates, like SQL SELECT)."""
        # Imported here: repro.relational.operators imports this module.
        from repro.relational.operators import project

        return project(self, list(names))

    def select(self, predicate: Callable[[Tuple[Any, ...]], bool]) -> "Relation":
        """Filter rows by a row-tuple predicate."""
        return Relation(self.schema, [r for r in self.rows if predicate(r)], name=self.name)

    def select_dict(self, predicate: Callable[[Mapping[str, Any]], bool]) -> "Relation":
        """Filter rows by a predicate over a column-name mapping (slower)."""
        names = self.schema.names
        kept = [r for r in self.rows if predicate(dict(zip(names, r)))]
        return Relation(self.schema, kept, name=self.name)

    def distinct(self) -> "Relation":
        """Duplicate elimination, preserving first-seen order."""
        from repro.relational.operators import distinct

        return distinct(self)

    def extend(
        self,
        column: str,
        fn: Callable[[Tuple[Any, ...]], Any],
        dtype: Optional[type] = None,
    ) -> "Relation":
        """Append a computed column ``column = fn(row)``."""
        schema = self.schema.extend([Column(column, dtype)])
        rows = [row + (fn(row),) for row in self.rows]
        return Relation(schema, rows, name=self.name)

    def order_by(self, names: Sequence[str], reverse: bool = False) -> "Relation":
        """Sort rows by the given columns."""
        from repro.relational.operators import order_by

        return order_by(self, [(n, "desc") if reverse else n for n in names])

    def union_all(self, other: "Relation") -> "Relation":
        """Bag union. Schemas must have identical column names."""
        if self.schema.names != other.schema.names:
            raise SchemaError(
                f"UNION ALL schema mismatch: {self.schema.names} vs {other.schema.names}"
            )
        return Relation(self.schema, self.rows + other.rows, name=self.name)

    def validated(self) -> "Relation":
        """Type-check every row against the schema; returns self on success."""
        for row in self.rows:
            self.schema.validate_row(row)
        return self

"""A small scalar-expression language over relation rows.

SSJoin predicates in the paper are expressions like
``Overlap_B(a_r, a_s) >= 0.8 * R.norm`` — i.e. comparisons between an
aggregate and an arithmetic expression over grouping columns. This module
provides exactly that much expression power, compiled to fast row functions:

>>> from repro.relational.schema import Schema
>>> e = col("norm") * const(0.8) + const(1)
>>> f = e.bind(Schema(["a", "norm"]))
>>> f(("x", 10))
9.0

Expressions are immutable trees; :meth:`Expr.bind` resolves column names to
tuple positions once so evaluation does no dict lookups per row.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Any, Callable, List, Sequence, Tuple

from repro.errors import PlanError
from repro.relational.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.relational.batch import Batch

__all__ = [
    "Expr",
    "ColumnRef",
    "Constant",
    "BinaryOp",
    "UnaryOp",
    "FunctionCall",
    "col",
    "const",
    "maximum",
    "minimum",
]

RowFn = Callable[[Tuple[Any, ...]], Any]

#: Vectorized evaluator: one whole column of values per batch.
BatchFn = Callable[["Batch"], Sequence[Any]]

#: Vectorized predicate: the (ascending) selection vector of surviving rows.
SelectFn = Callable[["Batch"], List[int]]

#: Comparison symbols whose batch predicates compile to direct selection
#: vectors (no intermediate boolean column).
_COMPARISON_SYMBOLS = frozenset((">=", ">", "<=", "<", "=", "<>"))


class Expr:
    """Base class for scalar expressions.

    Supports Python operator overloading to build trees:
    ``col("x") * 0.8 + 1`` etc. Comparisons produce boolean-valued
    expressions usable as selection predicates.
    """

    def bind(self, schema: Schema) -> RowFn:
        """Compile this expression against *schema* into ``row -> value``."""
        raise NotImplementedError

    def bind_batch(self, schema: Schema) -> BatchFn:
        """Compile into ``batch -> column`` for the vectorized path.

        Subclasses override with kernels that evaluate whole columns at
        once; this fallback keeps arbitrary :class:`Expr` subclasses
        working by applying the row function along transposed rows.
        """
        fn = self.bind(schema)
        return lambda batch: [fn(row) for row in batch.to_rows()]

    def bind_select(self, schema: Schema) -> SelectFn:
        """Compile into ``batch -> selection vector`` (surviving indices).

        The fallback evaluates the whole expression as a column and
        enumerates the truthy positions — the truthiness rule of the
        scalar ``if fn(row)``. Comparisons and fused
        conjunctions override this with single-pass kernels.
        """
        vf = self.bind_batch(schema)
        return lambda batch: [i for i, v in enumerate(vf(batch)) if v]

    def columns(self) -> Tuple[str, ...]:
        """All column names referenced by this expression."""
        raise NotImplementedError

    # -- operator sugar ------------------------------------------------------

    def _binary(self, other: Any, op: Callable, symbol: str) -> "BinaryOp":
        return BinaryOp(self, _wrap(other), op, symbol)

    def __add__(self, other: Any) -> "BinaryOp":
        return self._binary(other, operator.add, "+")

    def __radd__(self, other: Any) -> "BinaryOp":
        return _wrap(other)._binary(self, operator.add, "+")

    def __sub__(self, other: Any) -> "BinaryOp":
        return self._binary(other, operator.sub, "-")

    def __rsub__(self, other: Any) -> "BinaryOp":
        return _wrap(other)._binary(self, operator.sub, "-")

    def __mul__(self, other: Any) -> "BinaryOp":
        return self._binary(other, operator.mul, "*")

    def __rmul__(self, other: Any) -> "BinaryOp":
        return _wrap(other)._binary(self, operator.mul, "*")

    def __truediv__(self, other: Any) -> "BinaryOp":
        return self._binary(other, operator.truediv, "/")

    def __ge__(self, other: Any) -> "BinaryOp":
        return self._binary(other, operator.ge, ">=")

    def __gt__(self, other: Any) -> "BinaryOp":
        return self._binary(other, operator.gt, ">")

    def __le__(self, other: Any) -> "BinaryOp":
        return self._binary(other, operator.le, "<=")

    def __lt__(self, other: Any) -> "BinaryOp":
        return self._binary(other, operator.lt, "<")

    def eq(self, other: Any) -> "BinaryOp":
        """Equality comparison (named method; ``==`` is reserved)."""
        return self._binary(other, operator.eq, "=")

    def ne(self, other: Any) -> "BinaryOp":
        return self._binary(other, operator.ne, "<>")

    def and_(self, other: Any) -> "BinaryOp":
        return self._binary(other, lambda a, b: bool(a and b), "AND")

    def or_(self, other: Any) -> "BinaryOp":
        return self._binary(other, lambda a, b: bool(a or b), "OR")


class ColumnRef(Expr):
    """Reference to a named column of the bound schema."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def bind(self, schema: Schema) -> RowFn:
        return operator.itemgetter(schema.position(self.name))

    def bind_batch(self, schema: Schema) -> BatchFn:
        # Zero copy: a column reference *is* the stored column.
        pos = schema.position(self.name)
        return lambda batch: batch.columns[pos]

    def columns(self) -> Tuple[str, ...]:
        return (self.name,)

    def __repr__(self) -> str:
        return self.name


class Constant(Expr):
    """A literal value."""

    __slots__ = ("value",)

    def __init__(self, value: Any) -> None:
        self.value = value

    def bind(self, schema: Schema) -> RowFn:
        value = self.value
        return lambda row: value

    def bind_batch(self, schema: Schema) -> BatchFn:
        value = self.value
        return lambda batch: [value] * batch.num_rows

    def columns(self) -> Tuple[str, ...]:
        return ()

    def __repr__(self) -> str:
        return repr(self.value)


class BinaryOp(Expr):
    """Application of a binary operator to two subexpressions."""

    __slots__ = ("left", "right", "op", "symbol")

    def __init__(self, left: Expr, right: Expr, op: Callable, symbol: str) -> None:
        self.left = left
        self.right = right
        self.op = op
        self.symbol = symbol

    def bind(self, schema: Schema) -> RowFn:
        op = self.op
        # Constant operands are folded into the closure: plan predicates
        # like ``overlap >= 0.8 * norm`` run once per candidate row, so
        # a saved indirection per row is measurable at join scale.
        if isinstance(self.right, Constant):
            lf = self.left.bind(schema)
            rv = self.right.value
            return lambda row: op(lf(row), rv)
        if isinstance(self.left, Constant):
            lv = self.left.value
            rf = self.right.bind(schema)
            return lambda row: op(lv, rf(row))
        lf = self.left.bind(schema)
        rf = self.right.bind(schema)
        return lambda row: op(lf(row), rf(row))

    def bind_batch(self, schema: Schema) -> BatchFn:
        op = self.op
        # Same constant folding as bind(), lifted to columns: the folded
        # comparison runs one C-driven comprehension over the column
        # instead of a closure call per row.
        if isinstance(self.right, Constant):
            lf = self.left.bind_batch(schema)
            rv = self.right.value
            return lambda batch: [op(v, rv) for v in lf(batch)]
        if isinstance(self.left, Constant):
            lv = self.left.value
            rf = self.right.bind_batch(schema)
            return lambda batch: [op(lv, v) for v in rf(batch)]
        lf = self.left.bind_batch(schema)
        rf = self.right.bind_batch(schema)
        return lambda batch: list(map(op, lf(batch), rf(batch)))

    def bind_select(self, schema: Schema) -> SelectFn:
        op = self.op
        # Comparisons against a folded constant emit the selection vector
        # in one pass — no intermediate boolean column is ever built.
        if self.symbol in _COMPARISON_SYMBOLS:
            if isinstance(self.right, Constant):
                lf = self.left.bind_batch(schema)
                rv = self.right.value
                return lambda batch: [
                    i for i, v in enumerate(lf(batch)) if op(v, rv)
                ]
            if isinstance(self.left, Constant):
                lv = self.left.value
                rf = self.right.bind_batch(schema)
                return lambda batch: [
                    i for i, v in enumerate(rf(batch)) if op(lv, v)
                ]
            lf = self.left.bind_batch(schema)
            rf = self.right.bind_batch(schema)
            return lambda batch: [
                i
                for i, (a, b) in enumerate(zip(lf(batch), rf(batch)))
                if op(a, b)
            ]
        # Fused conjunction/disjunction: combine the children's selection
        # vectors instead of materializing boolean columns and AND-ing
        # them row-wise. Both children's vectors are ascending, so the
        # set intersection/union preserves row order.
        if self.symbol == "AND":
            ls = self.left.bind_select(schema)
            rs = self.right.bind_select(schema)

            def fused_and(batch: "Batch") -> List[int]:
                keep = set(rs(batch))
                return [i for i in ls(batch) if i in keep]

            return fused_and
        if self.symbol == "OR":
            ls = self.left.bind_select(schema)
            rs = self.right.bind_select(schema)

            def fused_or(batch: "Batch") -> List[int]:
                return sorted(set(ls(batch)) | set(rs(batch)))

            return fused_or
        return super().bind_select(schema)

    def columns(self) -> Tuple[str, ...]:
        return self.left.columns() + self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} {self.symbol} {self.right!r})"


class UnaryOp(Expr):
    """Application of a unary function to a subexpression."""

    __slots__ = ("child", "op", "symbol")

    def __init__(self, child: Expr, op: Callable, symbol: str) -> None:
        self.child = child
        self.op = op
        self.symbol = symbol

    def bind(self, schema: Schema) -> RowFn:
        cf = self.child.bind(schema)
        op = self.op
        return lambda row: op(cf(row))

    def bind_batch(self, schema: Schema) -> BatchFn:
        cf = self.child.bind_batch(schema)
        op = self.op
        return lambda batch: list(map(op, cf(batch)))

    def columns(self) -> Tuple[str, ...]:
        return self.child.columns()

    def __repr__(self) -> str:
        return f"{self.symbol}({self.child!r})"


class FunctionCall(Expr):
    """An n-ary scalar function over subexpressions (e.g. MAX of two norms)."""

    __slots__ = ("args", "fn", "fname")

    def __init__(self, fname: str, fn: Callable, args: Tuple[Expr, ...]) -> None:
        if not args:
            raise PlanError(f"function {fname} requires at least one argument")
        self.fname = fname
        self.fn = fn
        self.args = args

    def bind(self, schema: Schema) -> RowFn:
        fn = self.fn
        # The joins layer runs similarity UDFs over plain column refs for
        # every candidate pair; resolving those through one C-level
        # itemgetter beats a per-argument closure chain.
        if all(isinstance(a, ColumnRef) for a in self.args):
            positions = [schema.position(a.name) for a in self.args]
            if len(positions) == 1:
                getter = operator.itemgetter(positions[0])
                return lambda row: fn(getter(row))
            getter = operator.itemgetter(*positions)
            return lambda row: fn(*getter(row))
        bound = [a.bind(schema) for a in self.args]
        return lambda row: fn(*[b(row) for b in bound])

    def bind_batch(self, schema: Schema) -> BatchFn:
        fn = self.fn
        # The batched UDF call: map() drives the whole column through the
        # function in C, reading argument columns in place when every
        # argument is a plain column reference.
        if all(isinstance(a, ColumnRef) for a in self.args):
            positions = [schema.position(a.name) for a in self.args]
            return lambda batch: list(
                map(fn, *[batch.columns[p] for p in positions])
            )
        bound = [a.bind_batch(schema) for a in self.args]
        return lambda batch: list(map(fn, *[b(batch) for b in bound]))

    def columns(self) -> Tuple[str, ...]:
        out: Tuple[str, ...] = ()
        for a in self.args:
            out += a.columns()
        return out

    def __repr__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.fname}({inner})"


def _wrap(value: Any) -> Expr:
    """Coerce a Python literal into an :class:`Expr`."""
    return value if isinstance(value, Expr) else Constant(value)


def col(name: str) -> ColumnRef:
    """Shorthand constructor for a column reference."""
    return ColumnRef(name)


def const(value: Any) -> Constant:
    """Shorthand constructor for a literal."""
    return Constant(value)


def maximum(*args: Any) -> FunctionCall:
    """SQL ``GREATEST``: row-wise maximum of the arguments."""
    return FunctionCall("MAX", max, tuple(_wrap(a) for a in args))


def minimum(*args: Any) -> FunctionCall:
    """SQL ``LEAST``: row-wise minimum of the arguments."""
    return FunctionCall("MIN", min, tuple(_wrap(a) for a in args))

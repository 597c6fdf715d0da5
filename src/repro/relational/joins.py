"""Join algorithms: hash join, sort-merge join, nested-loop theta join.

The SSJoin implementations in :mod:`repro.core` are all built from the
equi-joins here (the paper's plans use only equi-joins plus grouping), while
the nested-loop join exists to express the naive UDF-over-cross-product
baseline the paper argues against.

All equi-joins produce the concatenated schema, with *both* sides' columns
prefixed when a prefix pair is supplied — mirroring how SQL disambiguates
``R.B = S.B`` outputs.

Each equi-join has one implementation, a kernel over morsel streams
(``*_stream``): both inputs accumulate into flat column arrays, matching
produces two parallel *index vectors* (one per side, with repeats), and
each output column is a single C-driven gather ``[col[i] for i in idx]`` —
no row tuples anywhere. :func:`hash_join`, :func:`merge_join` and
:func:`left_outer_join` hand the kernel their whole inputs as one morsel
each. The nested-loop family takes row callables and works on row tuples.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

#: A join-key spec: one column name, a list of names (same both sides),
#: or a list of ``(left, right)`` pairs. Normalized by ``_resolve_keys``.
JoinKeys = Union[str, Sequence[Union[str, Tuple[str, str]]]]

from repro.errors import PlanError
from repro.relational.batch import (
    ONE_MORSEL,
    BatchStream,
    columnar_relation_from_batches,
    iter_batches_from_columns,
    stream_relation,
)
from repro.relational.relation import Relation
from repro.relational.schema import Schema

__all__ = [
    "hash_join",
    "merge_join",
    "nested_loop_join",
    "left_outer_join",
    "cross_product",
    "semi_join",
    "joined_schema",
    "hash_join_stream",
    "merge_join_stream",
    "left_outer_join_stream",
    "JoinCounters",
]


class JoinCounters:
    """Mutable counters a caller may pass to observe join effort.

    Attributes
    ----------
    probes:
        Number of probe-side rows processed.
    output_rows:
        Number of result rows emitted.
    comparisons:
        For nested-loop joins, number of predicate evaluations.
    """

    __slots__ = ("probes", "output_rows", "comparisons")

    def __init__(self) -> None:
        self.probes = 0
        self.output_rows = 0
        self.comparisons = 0

    def __repr__(self) -> str:
        return (
            f"JoinCounters(probes={self.probes}, output_rows={self.output_rows}, "
            f"comparisons={self.comparisons})"
        )


def _resolve_keys(keys: JoinKeys) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Normalize a join-key spec into (left_cols, right_cols).

    Accepts a single column name, a list of names (same both sides), or a
    list of ``(left, right)`` pairs.
    """
    if isinstance(keys, str):
        return (keys,), (keys,)
    left: List[str] = []
    right: List[str] = []
    for k in keys:
        if isinstance(k, str):
            left.append(k)
            right.append(k)
        else:
            l, r = k
            left.append(l)
            right.append(r)
    if not left:
        raise PlanError("equi-join requires at least one key column")
    return tuple(left), tuple(right)


def joined_schema(
    left: Schema, right: Schema, prefixes: Optional[Tuple[str, str]]
) -> Schema:
    """The output schema every join here produces: ``left ++ right`` with
    both sides qualified when *prefixes* is given, clashing right-side
    names ``_2``/``_3``-suffixed otherwise."""
    if prefixes is not None:
        lp, rp = prefixes
        return left.prefixed(lp).concat(right.prefixed(rp))
    taken = set(left.names)
    renamed = []
    for col in right.columns:
        name = col.name
        if name in taken:
            n = 2
            while f"{name}_{n}" in taken:
                n += 1
            name = f"{name}_{n}"
        taken.add(name)
        renamed.append(col.renamed(name))
    return left.concat(Schema(renamed))


def _run_equi_join(
    kernel: Callable[..., BatchStream],
    left: Relation,
    right: Relation,
    keys: JoinKeys,
    prefixes: Optional[Tuple[str, str]],
    counters: Optional[JoinCounters],
    probes: int,
) -> Relation:
    """Run a ``*_stream`` join kernel over two whole relations."""
    out = columnar_relation_from_batches(
        kernel(
            stream_relation(left, ONE_MORSEL),
            stream_relation(right, ONE_MORSEL),
            keys,
            prefixes=prefixes,
            batch_size=ONE_MORSEL,
        )
    )
    if counters is not None:
        counters.probes += probes
        counters.output_rows += len(out)
    return out


def hash_join(
    left: Relation,
    right: Relation,
    keys: JoinKeys,
    prefixes: Optional[Tuple[str, str]] = None,
    counters: Optional[JoinCounters] = None,
) -> Relation:
    """Classic build/probe hash equi-join.

    The smaller input is used as the build side; output column order is
    nevertheless always ``left ++ right``.

    Parameters
    ----------
    keys:
        Join keys — see :func:`_resolve_keys` for accepted shapes. Keys refer
        to the *unprefixed* column names.
    prefixes:
        Optional ``(left_prefix, right_prefix)``; when given, output columns
        are qualified, e.g. ``("R", "S")`` yields ``R.B`` / ``S.B``.
    """
    probes = max(len(left), len(right))
    return _run_equi_join(hash_join_stream, left, right, keys, prefixes, counters, probes)


def merge_join(
    left: Relation,
    right: Relation,
    keys: JoinKeys,
    prefixes: Optional[Tuple[str, str]] = None,
    counters: Optional[JoinCounters] = None,
) -> Relation:
    """Sort-merge equi-join (sorts both inputs, then merges key groups).

    Produces the same bag of rows as :func:`hash_join`; exists so the
    optimizer has a genuine physical alternative and so tests can
    cross-validate the two implementations against each other.
    """
    return _run_equi_join(merge_join_stream, left, right, keys, prefixes, counters, len(left))


def nested_loop_join(
    left: Relation,
    right: Relation,
    predicate: Callable[[Tuple[Any, ...], Tuple[Any, ...]], bool],
    prefixes: Optional[Tuple[str, str]] = None,
    counters: Optional[JoinCounters] = None,
) -> Relation:
    """θ-join by exhaustive pairing — the "cross product + UDF" plan.

    *predicate* receives the raw left and right row tuples. This is the plan
    shape the paper says a database is forced into when the similarity
    function is an opaque UDF; it exists as the correctness oracle and the
    worst-case baseline.
    """
    out: List[Tuple[Any, ...]] = []
    for lrow in left.rows:
        for rrow in right.rows:
            if counters is not None:
                counters.comparisons += 1
            if predicate(lrow, rrow):
                out.append(lrow + rrow)
    if counters is not None:
        counters.output_rows += len(out)
    return Relation(joined_schema(left.schema, right.schema, prefixes), out)


def left_outer_join(
    left: Relation,
    right: Relation,
    keys: JoinKeys,
    prefixes: Optional[Tuple[str, str]] = None,
    counters: Optional[JoinCounters] = None,
) -> Relation:
    """Hash-based LEFT OUTER equi-join.

    Left rows without a match are emitted once, padded with NULLs on the
    right. NULL keys never match (as in the inner joins) but the carrying
    left row still survives, per SQL outer-join semantics.
    """
    return _run_equi_join(left_outer_join_stream, left, right, keys, prefixes, counters, len(left))


def cross_product(
    left: Relation,
    right: Relation,
    prefixes: Optional[Tuple[str, str]] = None,
) -> Relation:
    """Unconditional Cartesian product."""
    return nested_loop_join(left, right, lambda a, b: True, prefixes=prefixes)


def semi_join(
    left: Relation,
    right: Relation,
    keys: JoinKeys,
) -> Relation:
    """Left semi-join: left rows having at least one key match in right."""
    lkeys, rkeys = _resolve_keys(keys)
    lpos = left.schema.positions(lkeys)
    rpos = right.schema.positions(rkeys)
    present = set()
    for row in right.rows:
        key = tuple(row[p] for p in rpos)
        if not any(v is None for v in key):
            present.add(key)
    kept = [
        row
        for row in left.rows
        if tuple(row[p] for p in lpos) in present
    ]
    return Relation(left.schema, kept, name=left.name)


# -- the equi-join kernels ------------------------------------------------------
#
# Emission order is part of the contract: probe-major with
# build-insertion-ordered matches for hash, sorted key-group products
# for merge.


def _collect_columns(stream: BatchStream) -> Tuple[Sequence[Sequence[Any]], int]:
    """Drain a stream into one flat column per schema column."""
    whole = columnar_relation_from_batches(stream)
    return whole.columns, len(whole)


def _null_free_key_iter(
    cols: Sequence[Sequence[Any]], positions: Sequence[int]
) -> "Any":
    """Iterate ``(row_index, key)`` pairs, the key a tuple; NULLs kept
    (callers skip them) so indices stay aligned with the input."""
    return enumerate(zip(*(cols[p] for p in positions)))


def hash_join_stream(
    left: BatchStream,
    right: BatchStream,
    keys: JoinKeys,
    prefixes: Optional[Tuple[str, str]] = None,
    batch_size: int = 4096,
) -> BatchStream:
    """Vectorized build/probe hash equi-join (see :func:`hash_join`).

    The smaller accumulated side builds a key → row-index table; probing
    appends to two flat index vectors, and the output columns are gathered
    per side in one pass each, then sliced into morsels.
    """
    lkeys, rkeys = _resolve_keys(keys)
    lpos = left.schema.positions(lkeys)
    rpos = right.schema.positions(rkeys)
    schema = joined_schema(left.schema, right.schema, prefixes)

    def gen() -> "Any":
        lcols, ln = _collect_columns(left)
        rcols, rn = _collect_columns(right)
        build_is_left = ln <= rn
        if build_is_left:
            bcols, bpos, pcols, ppos = lcols, lpos, rcols, rpos
        else:
            bcols, bpos, pcols, ppos = rcols, rpos, lcols, lpos

        table: Dict[Any, List[int]] = {}
        if len(bpos) == 1:
            for i, v in enumerate(bcols[bpos[0]]):
                if v is not None:
                    table.setdefault(v, []).append(i)
        else:
            for i, key in _null_free_key_iter(bcols, bpos):
                if not any(v is None for v in key):
                    table.setdefault(key, []).append(i)

        bidx: List[int] = []
        pidx: List[int] = []
        get = table.get
        if len(ppos) == 1:
            for i, v in enumerate(pcols[ppos[0]]):
                if v is None:
                    continue
                matches = get(v)
                if matches:
                    bidx += matches
                    pidx += [i] * len(matches)
        else:
            for i, key in _null_free_key_iter(pcols, ppos):
                if any(v is None for v in key):
                    continue
                matches = get(key)
                if matches:
                    bidx += matches
                    pidx += [i] * len(matches)

        lidx, ridx = (bidx, pidx) if build_is_left else (pidx, bidx)
        out = [[col[i] for i in lidx] for col in lcols]
        out += [[col[i] for i in ridx] for col in rcols]
        yield from iter_batches_from_columns(schema, out, batch_size)

    return BatchStream(schema, gen())


def merge_join_stream(
    left: BatchStream,
    right: BatchStream,
    keys: JoinKeys,
    prefixes: Optional[Tuple[str, str]] = None,
    batch_size: int = 4096,
) -> BatchStream:
    """Vectorized sort-merge equi-join (see :func:`merge_join`).

    Each side argsorts the NULL-filtered row indices by key (stable, so
    ties keep input order), the merge walks key groups emitting
    index-vector cross products, and output columns are gathered per side.
    """
    lkeys, rkeys = _resolve_keys(keys)
    lpos = left.schema.positions(lkeys)
    rpos = right.schema.positions(rkeys)
    schema = joined_schema(left.schema, right.schema, prefixes)

    def order(
        cols: Sequence[Sequence[Any]], positions: Sequence[int], n: int
    ) -> Tuple[List[int], List[Tuple[Any, ...]]]:
        key_cols = [cols[p] for p in positions]
        idx = [
            i for i in range(n) if not any(c[i] is None for c in key_cols)
        ]
        keyed = [tuple(c[i] for c in key_cols) for i in idx]
        perm = sorted(range(len(idx)), key=keyed.__getitem__)
        return [idx[i] for i in perm], [keyed[i] for i in perm]

    def gen() -> "Any":
        lcols, ln = _collect_columns(left)
        rcols, rn = _collect_columns(right)
        li, lkeyvals = order(lcols, lpos, ln)
        ri, rkeyvals = order(rcols, rpos, rn)

        lidx: List[int] = []
        ridx: List[int] = []
        i = j = 0
        nl, nr = len(li), len(ri)
        while i < nl and j < nr:
            lk = lkeyvals[i]
            rk = rkeyvals[j]
            if lk < rk:
                i += 1
            elif lk > rk:
                j += 1
            else:
                i2 = i
                while i2 < nl and lkeyvals[i2] == lk:
                    i2 += 1
                j2 = j
                while j2 < nr and rkeyvals[j2] == rk:
                    j2 += 1
                group = ri[j:j2]
                width = j2 - j
                for a in range(i, i2):
                    lidx += [li[a]] * width
                    ridx += group
                i, j = i2, j2

        out = [[col[i] for i in lidx] for col in lcols]
        out += [[col[i] for i in ridx] for col in rcols]
        yield from iter_batches_from_columns(schema, out, batch_size)

    return BatchStream(schema, gen())


def left_outer_join_stream(
    left: BatchStream,
    right: BatchStream,
    keys: JoinKeys,
    prefixes: Optional[Tuple[str, str]] = None,
    batch_size: int = 4096,
) -> BatchStream:
    """Vectorized LEFT OUTER equi-join (see :func:`left_outer_join`).

    The right side always builds; the left side
    then **streams** — each left morsel produces its own index vectors
    (build index ``-1`` marking the NULL pad) and is emitted before the
    next is pulled.
    """
    lkeys, rkeys = _resolve_keys(keys)
    lpos = left.schema.positions(lkeys)
    rpos = right.schema.positions(rkeys)
    schema = joined_schema(left.schema, right.schema, prefixes)
    rwidth = len(right.schema)

    def gen() -> "Any":
        rcols, _rn = _collect_columns(right)
        table: Dict[Tuple[Any, ...], List[int]] = {}
        for i, key in _null_free_key_iter(rcols, rpos):
            if not any(v is None for v in key):
                table.setdefault(key, []).append(i)
        get = table.get
        for batch in left:
            lidx: List[int] = []
            ridx: List[int] = []
            for i, key in _null_free_key_iter(batch.columns, lpos):
                matches = None if any(v is None for v in key) else get(key)
                if matches:
                    lidx += [i] * len(matches)
                    ridx += matches
                else:
                    lidx.append(i)
                    ridx.append(-1)
            out = [[col[i] for i in lidx] for col in batch.columns]
            out += [
                [(col[j] if j >= 0 else None) for j in ridx]
                for col in rcols
            ]
            yield from iter_batches_from_columns(schema, out, batch_size)

    return BatchStream(schema, gen())

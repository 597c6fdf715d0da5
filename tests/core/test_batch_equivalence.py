"""The plan path ≡ an oracle by definition, at every morsel capacity.

Hypothesis drives random prepared relations and all six predicate families
(reusing the strategies from the core implementation suite) through
composed plan trees executed at morsel capacities {1, 7, 4096}, for
workers ∈ {1, 2, 4} on the in-process serial backend.  The reference is
not a second engine: it is the SSJoin implementation's own physical
function (``basic_ssjoin``, … — each checked against brute force in
``test_implementations.py``) followed by the relational tail spelled out
in this file as comprehensions, ``nested_loop_join`` with a key-equality
predicate, dicts and ``sorted``.  Every configuration must reproduce the
oracle's rows in order, down to float bits, and its deterministic
counters (``output_pairs``, ``candidate_pairs``, the verification-engine
stats).
"""

import os
from functools import reduce
from operator import add

import pytest
from hypothesis import given, settings

from repro.core.basic import basic_ssjoin
from repro.core.encoded_prefix import encoded_prefix_ssjoin
from repro.core.index import index_probe_ssjoin
from repro.core.inline import inline_ssjoin
from repro.core.metrics import ExecutionMetrics
from repro.core.prefix_filter import prefix_filtered_ssjoin
from repro.core.prepared import PreparedRelation
from repro.core.predicate import OverlapPredicate
from repro.core.ssjoin import SSJoin
from repro.parallel import BACKEND_SERIAL, canonical_sort_key, parallel_ssjoin
from repro.relational.aggregates import (
    agg_avg,
    agg_count,
    agg_max,
    agg_min,
    agg_sum,
)
from repro.relational.batch import ColumnarRelation
from repro.relational.context import ExecutionContext
from repro.relational.expressions import col
from repro.relational.joins import hash_join, nested_loop_join
from repro.relational.plan import (
    Distinct,
    Extend,
    GroupBy,
    HashJoin,
    LeftOuterJoin,
    MergeJoin,
    OrderBy,
    PreparedInput,
    Project,
    Select,
    SSJoinNode,
)
from repro.relational.relation import Relation
from repro.tokenize.sets import WeightedSet

from tests.core.test_implementations import predicates, prepared_relations

#: Each implementation's physical function — the oracle's SSJoin step.
PHYSICAL = {
    "basic": basic_ssjoin,
    "prefix": prefix_filtered_ssjoin,
    "inline": inline_ssjoin,
    "probe": index_probe_ssjoin,
    "encoded-prefix": encoded_prefix_ssjoin,
}

IMPLEMENTATIONS = tuple(PHYSICAL)

WORKERS = (1, 2, 4)

#: Degenerate one-row morsels, a small odd size that never divides the
#: input evenly, and the production default.
BATCH_SIZES = (1, 7, 4096)


@pytest.fixture(scope="module", autouse=True)
def _serial_backend():
    """Route ctx.workers plan executions through the in-process backend."""
    old = os.environ.get("REPRO_PARALLEL_BACKEND")
    os.environ["REPRO_PARALLEL_BACKEND"] = "serial"
    yield
    if old is None:
        del os.environ["REPRO_PARALLEL_BACKEND"]
    else:
        os.environ["REPRO_PARALLEL_BACKEND"] = old


def _ssjoin_oracle(left, right, predicate, implementation, metrics, workers=None):
    """The SSJoin step by definition: ``(a_r, a_s, overlap, norm_r,
    norm_s)`` rows from the implementation's physical function, or from
    the shard merge when *workers* is set."""
    if workers is None:
        pairs = PHYSICAL[implementation](left, right, predicate, metrics=metrics)
    else:
        pairs = parallel_ssjoin(
            left, right, predicate, workers=workers,
            implementation=implementation, metrics=metrics,
        ).pairs
    return list(pairs.rows)


def _build_plan(left, right, predicate, implementation):
    """``SSJoin → σ(norm_r ≤ norm_s) → π̂(weight) → π`` — one node per
    streaming operator family, so every such kernel is on the path."""
    node = SSJoinNode(
        PreparedInput(left),
        PreparedInput(right),
        predicate,
        implementation=implementation,
    )
    filtered = Select(node, col("norm_r") <= col("norm_s"))
    extended = Extend(filtered, "weight", col("overlap") * 2.0 + col("norm_r"))
    return Project(extended, ["a_r", "a_s", "overlap", "weight"])


def _plan_oracle(pairs):
    """σ / π̂ / π of :func:`_build_plan`, spelled over the SSJoin rows."""
    return [
        (a_r, a_s, overlap, overlap * 2.0 + norm_r)
        for a_r, a_s, overlap, norm_r, norm_s in pairs
        if norm_r <= norm_s
    ]


def _run_plan(plan, batch_size, workers):
    metrics = ExecutionMetrics()
    relation = plan.execute(
        ExecutionContext(metrics=metrics, batch_size=batch_size, workers=workers)
    )
    return list(relation.rows), metrics


def _execute(left, right, predicate, implementation, batch_size, workers=None):
    plan = _build_plan(left, right, predicate, implementation)
    return _run_plan(plan, batch_size, workers)


def _assert_counters_equal(got, expected, label):
    assert got.output_pairs == expected.output_pairs, label
    assert got.candidate_pairs == expected.candidate_pairs, label
    assert got.verify_stats() == expected.verify_stats(), label


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
class TestBatchMatchesRow:
    """``SSJoin → σ → π̂ → π`` at every morsel capacity reproduces the
    physical function followed by the same σ/π̂/π as a comprehension."""

    @given(prepared_relations("r"), prepared_relations("s"), predicates())
    @settings(max_examples=25, deadline=None)
    def test_batch_sizes_identical(self, implementation, left, right, predicate):
        oracle_metrics = ExecutionMetrics()
        oracle_rows = _plan_oracle(
            _ssjoin_oracle(left, right, predicate, implementation, oracle_metrics)
        )
        for size in BATCH_SIZES:
            batch_rows, batch_metrics = _execute(
                left, right, predicate, implementation, batch_size=size
            )
            # Exact list equality: same rows, same order, same float bits.
            assert batch_rows == oracle_rows, f"batch_size={size}"
            _assert_counters_equal(
                batch_metrics, oracle_metrics, f"batch_size={size}"
            )

    @given(prepared_relations("r"), prepared_relations("s"), predicates())
    @settings(max_examples=10, deadline=None)
    def test_workers_times_batch_sizes_identical(
        self, implementation, left, right, predicate
    ):
        base_metrics = ExecutionMetrics()
        # The parallel merge emits canonical sorted order; the sequential
        # path keeps first-seen order — compare order-independently but
        # deterministically, by the full row repr.
        expected = sorted(
            _plan_oracle(
                _ssjoin_oracle(left, right, predicate, implementation, base_metrics)
            ),
            key=repr,
        )
        for workers in WORKERS:
            # Across workers only the join counters are pinned here —
            # but across morsel capacities, at a fixed worker count,
            # *every* counter must be identical: batching is pure plumbing.
            reference = None
            for size in BATCH_SIZES:
                rows, metrics = _execute(
                    left, right, predicate, implementation, size, workers
                )
                label = f"workers={workers} batch_size={size}"
                assert sorted(rows, key=repr) == expected, label
                assert metrics.output_pairs == base_metrics.output_pairs, label
                assert (
                    metrics.candidate_pairs == base_metrics.candidate_pairs
                ), label
                if reference is None:
                    reference = metrics
                else:
                    assert (
                        metrics.verify_stats() == reference.verify_stats()
                    ), label


#: Tail plan shapes layered over the SSJoin source — one per blocking
#: kernel family (hash aggregate, HAVING, global aggregate, distinct,
#: build/probe joins, sort-merge, outer join).
TAIL_PLANS = (
    "group-order",
    "having",
    "global-agg",
    "distinct",
    "hash-join",
    "merge-join",
    "left-join",
)


def _tail_sides(kind, left, right):
    """The join shapes equate ``a_r`` with ``a_s``, which only ever match
    when both come from one relation: they run over the self-join."""
    return (left, left) if kind.endswith("-join") else (left, right)


def _tail_plan(kind, left, right, predicate):
    left, right = _tail_sides(kind, left, right)
    base = SSJoinNode(
        PreparedInput(left),
        PreparedInput(right),
        predicate,
        implementation="prefix",
    )
    if kind == "group-order":
        grouped = GroupBy(
            base,
            ["a_r"],
            [
                agg_count("n"),
                agg_sum("s", col("overlap")),
                agg_min("lo", col("norm_s")),
                agg_max("hi", col("norm_s")),
                agg_avg("mean", col("overlap")),
            ],
        )
        return OrderBy(grouped, [("n", "desc"), "a_r"])
    if kind == "having":
        return GroupBy(base, ["a_s"], [agg_count("n")], having=col("n") >= 2)
    if kind == "global-agg":
        return GroupBy(
            base,
            [],
            [agg_count("n"), agg_sum("s", col("overlap")), agg_avg("mean", col("norm_r"))],
        )
    if kind == "distinct":
        return OrderBy(Distinct(Project(base, ["a_r"])), ["a_r"])
    # Join shapes: grouped match counts probed against the distinct set of
    # partners that won the norm comparison, so the outer join really sees
    # unmatched build rows.
    grouped = GroupBy(base, ["a_r"], [agg_count("n")])
    matched = Distinct(
        Project(Select(base, col("norm_s") <= col("norm_r")), ["a_s"])
    )
    if kind == "hash-join":
        return HashJoin(grouped, matched, keys=[("a_r", "a_s")])
    if kind == "merge-join":
        return MergeJoin(grouped, matched, keys=[("a_r", "a_s")])
    return LeftOuterJoin(grouped, matched, keys=[("a_r", "a_s")])


def _by_first_seen(rows, position):
    """``{key: [rows]}`` in first-occurrence key order — GROUP BY by dict."""
    groups = {}
    for row in rows:
        groups.setdefault(row[position], []).append(row)
    return groups


def _total(values):
    """SUM as SQL spells it: left to right from 0, NULL over no rows."""
    return reduce(add, values, 0) if values else None


def _tail_oracle(kind, ssjoin):
    """:func:`_tail_plan` by definition.  *ssjoin* runs the SSJoin step
    and is called once per occurrence of ``base`` in the plan tree."""
    if kind == "group-order":
        grouped = [
            (
                a_r,
                len(g),
                _total([r[2] for r in g]),
                min(r[4] for r in g),
                max(r[4] for r in g),
                _total([r[2] for r in g]) / len(g),
            )
            for a_r, g in _by_first_seen(ssjoin(), 0).items()
        ]
        by_key = sorted(grouped, key=lambda row: row[0])
        return sorted(by_key, key=lambda row: row[1], reverse=True)
    if kind == "having":
        counts = [(a_s, len(g)) for a_s, g in _by_first_seen(ssjoin(), 1).items()]
        return [row for row in counts if row[1] >= 2]
    if kind == "global-agg":
        pairs = ssjoin()
        norms = _total([r[3] for r in pairs])
        return [(
            len(pairs),
            _total([r[2] for r in pairs]),
            norms / len(pairs) if pairs else None,
        )]
    if kind == "distinct":
        return sorted(dict.fromkeys((r[0],) for r in ssjoin()))
    grouped = Relation.from_rows(
        ["a_r", "n"],
        [(a_r, len(g)) for a_r, g in _by_first_seen(ssjoin(), 0).items()],
    )
    matched = Relation.from_rows(
        ["a_s"], dict.fromkeys((r[1],) for r in ssjoin() if r[4] <= r[3])
    )
    same_key = lambda l, r: l[0] == r[0]  # noqa: E731
    if kind == "hash-join":
        # Emission is probe-major and the larger input probes.
        if len(grouped) <= len(matched):
            flipped = nested_loop_join(matched, grouped, same_key)
            return [(a_r, n, a_s) for a_s, a_r, n in flipped.rows]
        return list(nested_loop_join(grouped, matched, same_key).rows)
    if kind == "merge-join":
        return list(
            nested_loop_join(
                grouped.order_by(["a_r"]), matched.order_by(["a_s"]), same_key
            ).rows
        )
    inner = _by_first_seen(nested_loop_join(grouped, matched, same_key).rows, 0)
    return [
        row
        for left_row in grouped.rows
        for row in inner.get(left_row[0], [left_row + (None,)])
    ]


def _execute_tail(kind, left, right, predicate, batch_size, workers=None):
    return _run_plan(_tail_plan(kind, left, right, predicate), batch_size, workers)


@pytest.mark.parametrize("kind", TAIL_PLANS)
class TestVectorizedTailMatchesRow:
    """Aggregation, sort, distinct and join kernels reproduce their
    definitions (dict / ``sorted`` / first-seen / nested loop) bit for
    bit at every morsel capacity."""

    @given(prepared_relations("r"), prepared_relations("s"), predicates())
    @settings(max_examples=15, deadline=None)
    def test_batch_sizes_identical(self, kind, left, right, predicate):
        oracle_metrics = ExecutionMetrics()
        sides = _tail_sides(kind, left, right)
        oracle_rows = _tail_oracle(
            kind,
            lambda: _ssjoin_oracle(*sides, predicate, "prefix", oracle_metrics),
        )
        for size in BATCH_SIZES:
            batch_rows, batch_metrics = _execute_tail(
                kind, left, right, predicate, batch_size=size
            )
            assert batch_rows == oracle_rows, f"{kind} batch_size={size}"
            _assert_counters_equal(
                batch_metrics, oracle_metrics, f"{kind} batch_size={size}"
            )

    @given(prepared_relations("r"), prepared_relations("s"), predicates())
    @settings(max_examples=5, deadline=None)
    def test_workers_fixed_batch_sizes_identical(
        self, kind, left, right, predicate
    ):
        # Parallel SSJoin merges shards in canonical order, which can
        # permute group discovery order relative to the sequential scan —
        # so the oracle's SSJoin step is the shard merge at that worker
        # count.
        sides = _tail_sides(kind, left, right)
        for workers in WORKERS:
            oracle_metrics = ExecutionMetrics()
            oracle_rows = _tail_oracle(
                kind,
                lambda: _ssjoin_oracle(
                    *sides, predicate, "prefix", oracle_metrics, workers
                ),
            )
            for size in BATCH_SIZES:
                rows, metrics = _execute_tail(
                    kind, left, right, predicate, batch_size=size, workers=workers
                )
                label = f"{kind} workers={workers} batch_size={size}"
                assert rows == oracle_rows, label
                _assert_counters_equal(metrics, oracle_metrics, label)


def test_columnar_algebra_is_zero_copy():
    """Figure 7's ``joined.project(["a_r", "a_s"]).distinct()`` must not
    build a row tuple per join row to drop six columns."""
    r = Relation.from_rows(["a_r", "b"], [("x", 1), ("y", 1), ("y", 2)])
    s = Relation.from_rows(["a_s", "b_s"], [("p", 1), ("q", 2)])
    joined = hash_join(r, s, keys=[("b", "b_s")])
    out = joined.rename({"a_r": "l", "a_s": "r"}).project(["r", "l"])
    assert isinstance(out, ColumnarRelation)
    assert out.column_names == ("r", "l")
    assert out.columns[0] is joined.columns[2]
    assert out.columns[1] is joined.columns[0]
    # Already distinct: δ hands back its input's columns.
    for same in (joined.prefixed("j"), joined.renamed("j"), joined.distinct()):
        assert isinstance(same, ColumnarRelation)
        assert all(a is b for a, b in zip(same.columns, joined.columns))
    assert list(joined.project(["b"]).distinct().rows) == [(1,), (2,)]


class TestSerialBackendBoundaryAdapter:
    """Satellite 2: one shared boundary adapter for the serial backend."""

    LEFT = {
        "r0": WeightedSet({"a": 0.5, "b": 1.0, "c": 2.0}),
        "r1": WeightedSet({"b": 1.0, "c": 2.0, "d": 0.25}),
        "r2": WeightedSet({"a": 0.5, "e": 1.5}),
        "r3": WeightedSet({"c": 2.0, "e": 1.5, "f": 3.0}),
    }
    RIGHT = {
        "s0": WeightedSet({"a": 0.5, "b": 1.0}),
        "s1": WeightedSet({"c": 2.0, "d": 0.25, "e": 1.5}),
        "s2": WeightedSet({"e": 1.5, "f": 3.0, "g": 0.8}),
    }

    def _relations(self):
        left = PreparedRelation.from_sets(self.LEFT, name="r")
        right = PreparedRelation.from_sets(self.RIGHT, name="s")
        return left, right, OverlapPredicate.absolute(1.0)

    def test_columnar_pairs_and_metrics_match_sequential(self):
        left, right, predicate = self._relations()
        seq_metrics = ExecutionMetrics()
        seq = SSJoin(left, right, predicate).execute(
            "encoded-prefix", metrics=seq_metrics
        )
        expected = sorted(seq.pairs.rows, key=canonical_sort_key)
        for workers in WORKERS:
            metrics = ExecutionMetrics()
            result = parallel_ssjoin(
                left,
                right,
                predicate,
                workers=workers,
                implementation="encoded-prefix",
                metrics=metrics,
                backend=BACKEND_SERIAL,
            )
            # When shards actually ran, the canonical adapter hands back
            # a columnar relation — the workers shipped columns and no
            # path re-materialized rows (workers=1 short-circuits to the
            # sequential engine, whose output stays row-backed).
            if result.parallel.mode != "sequential":
                assert isinstance(result.pairs, ColumnarRelation), workers
            assert list(result.pairs.rows) == expected, workers
            _assert_counters_equal(metrics, seq_metrics, workers)

    def test_sequential_fallback_uses_same_adapter(self):
        # A plan other than encoded-prefix runs in-process under any
        # worker count, and flows through the same _canonical_relation
        # adapter as the merged parallel result.
        left, right, predicate = self._relations()
        result = parallel_ssjoin(
            left,
            right,
            predicate,
            workers=2,
            implementation="prefix",
            backend=BACKEND_SERIAL,
        )
        assert result.parallel.mode == "sequential"
        rows = list(result.pairs.rows)
        assert rows == sorted(rows, key=canonical_sort_key)

"""The SSJoin facade is a *thin shim* over the plan path — provably.

Satellite 1 of the Layer-7 refactor: ``SSJoin``/``ssjoin()`` must behave
exactly like a hand-built one-node plan (``SSJoinNode`` over
``PreparedInput`` leaves executed against an ``ExecutionContext``) — the
same result rows down to float bits, and the same ``ExecutionMetrics``
counters — for every physical implementation × workers ∈ {1, 2, 4}.
Workers run on the in-process serial backend so the suite stays fast and
deterministic; the process backend is covered by ``tests/parallel``.
"""

import dataclasses
import random

import pytest

from repro.core import optimizer
from repro.core.encoded import global_encoding_cache
from repro.core.metrics import ExecutionMetrics
from repro.core.predicate import OverlapPredicate
from repro.core.prepared import PreparedRelation
from repro.core.ssjoin import SSJoin, ssjoin
from repro.parallel import BACKEND_SERIAL
from repro.relational.context import ExecutionContext
from repro.relational.plan import PreparedInput, SSJoinNode
from repro.tokenize.words import words

IMPLEMENTATIONS = optimizer.IMPLEMENTATIONS + ("auto",)

WORKERS = (1, 2, 4)

# Timings (phase_seconds) and per-shard telemetry (parallel_stats) vary
# run to run; every other field is a deterministic counter.
_NONDETERMINISTIC = {"phase_seconds", "parallel_stats"}


def _counters(metrics):
    return {
        f.name: getattr(metrics, f.name)
        for f in dataclasses.fields(metrics)
        if f.name not in _NONDETERMINISTIC
    }


def _corpus(seed, n):
    rng = random.Random(seed)
    vocab = [f"tok{i}" for i in range(30)]
    return [
        " ".join(rng.sample(vocab, rng.randint(2, 6))) for _ in range(n)
    ]


@pytest.fixture(autouse=True)
def serial_backend(monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL_BACKEND", BACKEND_SERIAL)


@pytest.fixture(scope="module")
def operands():
    left = PreparedRelation.from_strings(_corpus(7, 40), words, name="R")
    right = PreparedRelation.from_strings(_corpus(11, 35), words, name="S")
    return left, right


def _plan_path(left, right, predicate, implementation, workers):
    """Execute the join as an explicit plan tree, no facade involved."""
    # Cold encoding cache, so hit/miss counters match the facade's run.
    global_encoding_cache().clear()
    left_leaf = PreparedInput(left)
    right_leaf = left_leaf if right is left else PreparedInput(right)
    node = SSJoinNode(left_leaf, right_leaf, predicate, implementation=implementation)
    metrics = ExecutionMetrics()
    relation = node.execute(ExecutionContext(metrics=metrics, workers=workers))
    return relation, node.last_result, metrics


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
class TestFacadeMatchesPlanPath:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_two_relation_join(self, operands, implementation, workers):
        left, right = operands
        predicate = OverlapPredicate.two_sided(0.6)

        global_encoding_cache().clear()
        facade_metrics = ExecutionMetrics()
        facade = ssjoin(
            left,
            right,
            predicate,
            implementation=implementation,
            metrics=facade_metrics,
            workers=None if workers == 1 else workers,
        )
        relation, result, plan_metrics = _plan_path(
            left, right, predicate, implementation,
            None if workers == 1 else workers,
        )

        # Bit-identical rows: keys, overlaps, and norms, same order.
        assert list(facade.pairs.rows) == list(relation.rows)
        assert facade.implementation == result.implementation
        assert _counters(facade_metrics) == _counters(plan_metrics)

    @pytest.mark.parametrize("workers", WORKERS)
    def test_self_join(self, operands, implementation, workers):
        left, _ = operands
        predicate = OverlapPredicate.one_sided(0.7, side="left")

        global_encoding_cache().clear()
        facade_metrics = ExecutionMetrics()
        facade = ssjoin(
            left,
            left,
            predicate,
            implementation=implementation,
            metrics=facade_metrics,
            workers=None if workers == 1 else workers,
        )
        relation, result, plan_metrics = _plan_path(
            left, left, predicate, implementation,
            None if workers == 1 else workers,
        )

        assert list(facade.pairs.rows) == list(relation.rows)
        assert facade.implementation == result.implementation
        assert _counters(facade_metrics) == _counters(plan_metrics)


class TestWorkersAgree:
    """Worker counts change telemetry, never answers or counters."""

    @pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
    def test_results_stable_across_worker_counts(self, operands, implementation):
        left, right = operands
        predicate = OverlapPredicate.absolute(2.0)
        baseline = None
        for workers in WORKERS:
            facade = ssjoin(
                left,
                right,
                predicate,
                implementation=implementation,
                workers=None if workers == 1 else workers,
            )
            rows = sorted(facade.pairs.rows)
            if baseline is None:
                baseline = rows
            else:
                assert rows == baseline, f"workers={workers}"


class TestShimIsThin:
    """The facade exposes the very node the plan path would build."""

    def test_plan_returns_ssjoin_node(self, operands):
        left, right = operands
        op = SSJoin(left, right, OverlapPredicate.absolute(1.0))
        node = op.plan("prefix")
        assert isinstance(node, SSJoinNode)
        assert node.implementation == "prefix"
        assert node.children[0].prepared is left
        assert node.children[1].prepared is right

    def test_facade_execute_populates_plan_result(self, operands):
        left, right = operands
        op = SSJoin(left, right, OverlapPredicate.absolute(2.0))
        result = op.execute("basic")
        assert op.plan("basic").last_result is result

"""Satellite 3: parallel == sequential, for every predicate × plan × workers.

Hypothesis drives random prepared relations and all six predicate
families (reusing the strategies from the core implementation suite)
through ``parallel_ssjoin`` with workers ∈ {1, 2, 4} on the in-process
serial backend, asserting *exact* equality with the sequential operator:
the same canonically-sorted row list — keys, overlaps, and norms, down
to float bits — and the same merged ``output_pairs`` /
``candidate_pairs`` totals.
"""

import pytest
from hypothesis import given, settings

from repro.core.encoded import EncodingCache
from repro.core.metrics import ExecutionMetrics
from repro.core.optimizer import IMPLEMENTATIONS
from repro.core.predicate import OverlapPredicate
from repro.core.prepared import PreparedRelation
from repro.core.ssjoin import SSJoin
from repro.errors import PlanError
from repro.joins.jaccard_join import jaccard_resemblance_join
from repro.parallel import BACKEND_SERIAL, canonical_sort_key, parallel_ssjoin

from repro.tokenize.words import words

from tests.core.test_implementations import (
    oracle,
    predicates,
    prepared_relations,
)
from tests.core.test_ssjoin_facade import EXPECTED_NAMES

WORKERS = (1, 2, 4)


def _sequential(left, right, predicate, implementation):
    metrics = ExecutionMetrics()
    result = SSJoin(left, right, predicate).execute(
        implementation, metrics=metrics
    )
    return sorted(result.pairs.rows, key=canonical_sort_key), metrics


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
class TestParallelMatchesSequential:
    @given(prepared_relations("r"), prepared_relations("s"), predicates())
    @settings(max_examples=40, deadline=None)
    def test_rows_and_metrics_identical(
        self, implementation, left, right, predicate
    ):
        expected_rows, expected_metrics = _sequential(
            left, right, predicate, implementation
        )
        for workers in WORKERS:
            metrics = ExecutionMetrics()
            result = parallel_ssjoin(
                left,
                right,
                predicate,
                workers=workers,
                implementation=implementation,
                metrics=metrics,
                backend=BACKEND_SERIAL,
            )
            # Exact list equality: same rows, same order, same float bits.
            assert list(result.pairs.rows) == expected_rows, (
                f"workers={workers}"
            )
            assert metrics.output_pairs == expected_metrics.output_pairs
            assert metrics.candidate_pairs == expected_metrics.candidate_pairs
            assert result.implementation == implementation

    @given(prepared_relations("r"), prepared_relations("s"), predicates())
    @settings(max_examples=25, deadline=None)
    def test_matches_oracle(self, implementation, left, right, predicate):
        result = parallel_ssjoin(
            left,
            right,
            predicate,
            workers=2,
            implementation=implementation,
            backend=BACKEND_SERIAL,
        )
        assert result.pair_set() == oracle(left, right, predicate)


class TestStrategySelection:
    @given(prepared_relations("r"), prepared_relations("s"), predicates())
    @settings(max_examples=20, deadline=None)
    def test_strategy_follows_plan_family(self, left, right, predicate):
        """Only encoded-prefix runs in shards; every other plan runs
        in-process under ``workers=2``, with the sequential rows and
        counters."""
        for implementation in ("basic", "prefix", "inline", "probe"):
            expected_rows, expected_metrics = _sequential(
                left, right, predicate, implementation
            )
            metrics = ExecutionMetrics()
            result = parallel_ssjoin(
                left,
                right,
                predicate,
                workers=2,
                implementation=implementation,
                metrics=metrics,
                backend=BACKEND_SERIAL,
            )
            report = result.parallel
            assert report.mode == "sequential", implementation
            assert report.workers == 1
            assert report.requested == 2
            assert list(result.pairs.rows) == expected_rows, implementation
            assert metrics.verify_stats() == expected_metrics.verify_stats()
            assert metrics.output_pairs == expected_metrics.output_pairs
            assert metrics.candidate_pairs == expected_metrics.candidate_pairs
        report = parallel_ssjoin(
            left,
            right,
            predicate,
            workers=2,
            implementation="encoded-prefix",
            backend=BACKEND_SERIAL,
        ).parallel
        if report.mode == "parallel":
            assert report.workers == 2
        else:
            # Empty inputs run in-process.
            assert left.num_groups == 0
            assert report.workers == 1

    def test_unpriced_referee_runs_in_process(self):
        """``probe`` has no cost estimate and no shard plan: a worker
        count runs it in-process, as ``probe``, with the sequential rows."""
        rel = PreparedRelation.from_strings(
            [f"the tok{i} tok{i + 1}" for i in range(12)], words
        )
        pred = OverlapPredicate.two_sided(0.5)
        result = parallel_ssjoin(rel, rel, pred, workers=2, implementation="probe")
        assert result.parallel.mode == "sequential"
        assert result.parallel.requested == 2
        assert result.implementation == "probe"
        assert list(result.pairs.rows) == _sequential(rel, rel, pred, "probe")[0]

    @given(prepared_relations("r"), prepared_relations("s"), predicates())
    @settings(max_examples=20, deadline=None)
    def test_workers_one_is_sequential_mode(self, left, right, predicate):
        report = parallel_ssjoin(
            left,
            right,
            predicate,
            workers=1,
            backend=BACKEND_SERIAL,
        ).parallel
        assert report is not None
        assert report.mode == "sequential"
        assert report.workers == 1

    def test_workers_one_encodes_into_the_context_cache(self):
        rel = PreparedRelation.from_strings(["a b c", "a b d", "c d e"], words)
        cache = EncodingCache()
        parallel_ssjoin(
            rel, rel, OverlapPredicate.two_sided(0.5), workers=1,
            implementation="encoded-prefix", encoding_cache=cache,
        )
        assert cache.stats()["entries"] == 1

    def test_removed_plan_name_is_rejected_with_the_stated_list(self):
        rel = PreparedRelation.from_strings(["a b c", "a b d"], words)
        with pytest.raises(PlanError) as exc:
            parallel_ssjoin(
                rel, rel, OverlapPredicate.absolute(1.0),
                workers=2, implementation="encoded-probe", backend=BACKEND_SERIAL,
            )
        assert str(exc.value).endswith(EXPECTED_NAMES)

    @pytest.mark.parametrize("workers", [True, 0, "auto", "fast"])
    def test_rejects_bool_and_bad_values(self, workers):
        rel = PreparedRelation.from_strings(["a b c", "a b d"], words)
        pred = OverlapPredicate.two_sided(0.5)
        with pytest.raises(PlanError, match="workers must be an int >= 1"):
            parallel_ssjoin(rel, rel, pred, workers=workers, backend=BACKEND_SERIAL)
        with pytest.raises(PlanError, match="workers must be an int >= 1"):
            SSJoin(rel, rel, pred).execute("encoded-prefix", workers=workers)
        with pytest.raises(PlanError, match="workers must be an int >= 1"):
            jaccard_resemblance_join(["a b c", "a b d"], threshold=0.5, workers=workers)

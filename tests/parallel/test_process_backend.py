"""Process-pool backend: real multi-process runs match the serial backend.

These tests actually spawn a ``ProcessPoolExecutor`` (2 workers), so
they use one modest fixed dataset rather than Hypothesis-driven inputs —
the property coverage lives in ``test_parallel_equivalence`` on the
in-process serial backend, which runs the *same* shard code.
"""

import pytest

from repro.core.metrics import ExecutionMetrics
from repro.core.predicate import OverlapPredicate
from repro.core.prepared import PreparedRelation
from repro.core.ssjoin import SSJoin
from repro.parallel import (
    BACKEND_PROCESS,
    BACKEND_SERIAL,
    canonical_sort_key,
    parallel_ssjoin,
)
from repro.tokenize.words import words

_LEFT_STRINGS = [
    "microsoft corp redmond wa",
    "microsoft corporation",
    "intl business machines armonk",
    "international business machines corp",
    "oracle systems corp",
    "oracle corporation redwood shores",
    "sun microsystems inc",
    "data cleaning services llc",
    "similarity joins r us",
    "prefix filter heavy industries",
    "weighted set operations gmbh",
    "token dictionary builders",
]
_RIGHT_STRINGS = [
    "microsoft corp",
    "intl business machines corp",
    "oracle corp",
    "sun microsystems",
    "data cleaning service",
    "similarity join operators",
    "prefix filtering industries",
    "weighted sets operation",
    "token dictionaries builder",
    "completely unrelated entry",
]


@pytest.fixture(scope="module")
def relations():
    left = PreparedRelation.from_strings(_LEFT_STRINGS, words, name="L")
    right = PreparedRelation.from_strings(_RIGHT_STRINGS, words, name="R")
    return left, right


@pytest.mark.parametrize(
    "implementation", ["encoded-prefix", "prefix", "basic"]
)
def test_process_backend_matches_sequential(relations, implementation):
    left, right = relations
    predicate = OverlapPredicate.two_sided(0.4)

    sequential = SSJoin(left, right, predicate).execute(implementation)
    expected = sorted(sequential.pairs.rows, key=canonical_sort_key)

    serial_rows = None
    for backend in (BACKEND_SERIAL, BACKEND_PROCESS):
        metrics = ExecutionMetrics()
        result = parallel_ssjoin(
            left,
            right,
            predicate,
            workers=2,
            implementation=implementation,
            metrics=metrics,
            backend=backend,
        )
        assert list(result.pairs.rows) == expected, backend
        assert metrics.output_pairs == sequential.metrics.output_pairs
        assert metrics.candidate_pairs == sequential.metrics.candidate_pairs
        if serial_rows is None:
            serial_rows = list(result.pairs.rows)
        else:
            assert list(result.pairs.rows) == serial_rows

        report = result.parallel
        assert report is not None
        assert report.requested == 2
        if implementation != "encoded-prefix":
            # Only the encoded-prefix plan runs in shards.
            assert report.mode == "sequential"
            assert report.workers == 1
            continue
        assert report.mode == "parallel"
        assert report.workers == 2
        assert report.backend == backend
        assert report.n_shards >= 2
        assert report.wall_seconds > 0
        # Per-shard telemetry present and internally consistent.
        assert len(report.shards) == report.n_shards
        assert sum(t.rows for t in report.shards) >= len(expected)
        for t in report.shards:
            assert t.seconds >= 0
        assert report.critical_path_seconds <= report.serial_shard_seconds + 1e-9


def test_metrics_carry_parallel_stats(relations):
    left, right = relations
    metrics = ExecutionMetrics()
    result = parallel_ssjoin(
        left,
        right,
        OverlapPredicate.two_sided(0.5),
        workers=2,
        implementation="encoded-prefix",
        metrics=metrics,
        backend=BACKEND_PROCESS,
    )
    stats = metrics.parallel_stats
    assert stats is not None
    assert stats == result.parallel.to_dict()
    for key in ("mode", "workers", "n_shards", "wall_seconds",
                "critical_path_seconds", "shards"):
        assert key in stats


def test_facade_workers_round_trip(relations):
    """`SSJoin.execute(workers=...)` delegates to the parallel executor."""
    left, right = relations
    predicate = OverlapPredicate.two_sided(0.4)
    sequential = SSJoin(left, right, predicate).execute("encoded-prefix")
    expected = sorted(sequential.pairs.rows, key=canonical_sort_key)

    result = SSJoin(left, right, predicate).execute(
        "encoded-prefix", workers=2
    )
    assert list(result.pairs.rows) == expected
    assert result.parallel is not None
    assert result.parallel.workers == 2

"""Benchmark harness: threshold sweeps with phase-level timing capture.

The paper's figures are sweeps — each similarity join run at thresholds
0.80–0.95 under each SSJoin implementation, with per-phase times (Prep /
Prefix-filter / SSJoin / Filter). :class:`SweepRunner` runs such sweeps over
any join callable that returns a
:class:`~repro.joins.base.SimilarityJoinResult` and collects
:class:`SweepRecord` rows that the reporting module renders into the
paper's tables and figure series.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.metrics import ExecutionMetrics
from repro.errors import BenchmarkConfigError
from repro.joins.base import SimilarityJoinResult

__all__ = ["SweepRecord", "SweepRunner", "time_call"]


@dataclass
class SweepRecord:
    """One (threshold, implementation) cell of a figure."""

    label: str
    threshold: float
    implementation: str
    total_seconds: float
    phase_seconds: Dict[str, float]
    candidate_pairs: int
    output_pairs: int
    similarity_comparisons: int
    result_pairs: int
    prepared_rows: int
    extra: Dict[str, Any] = field(default_factory=dict)

    def phase(self, name: str) -> float:
        return self.phase_seconds.get(name, 0.0)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form of this cell (the ``repro-bench/v1`` record
        shape — see EXPERIMENTS.md for the file-level schema)."""
        return {
            "label": self.label,
            "threshold": self.threshold,
            "implementation": self.implementation,
            "total_seconds": self.total_seconds,
            "phase_seconds": dict(self.phase_seconds),
            "candidate_pairs": self.candidate_pairs,
            "output_pairs": self.output_pairs,
            "similarity_comparisons": self.similarity_comparisons,
            "result_pairs": self.result_pairs,
            "prepared_rows": self.prepared_rows,
            "extra": dict(self.extra),
        }


class SweepRunner:
    """Run a join callable across thresholds × implementations.

    The callable signature is ``fn(threshold, implementation) ->
    SimilarityJoinResult``; dataset construction should be closed over so
    it is not re-timed per cell (mirroring the paper, whose Prep phase is
    the *set preparation*, not data loading).
    """

    def __init__(self, label: str, fn: Callable[[float, str], SimilarityJoinResult]):
        self.label = label
        self.fn = fn
        self.records: List[SweepRecord] = []

    def run(
        self,
        thresholds: Sequence[float],
        implementations: Sequence[str] = ("basic", "prefix", "inline"),
        repeats: int = 1,
    ) -> List[SweepRecord]:
        """Execute the sweep; keeps the fastest repeat per cell."""
        if repeats < 1:
            raise BenchmarkConfigError(f"repeats must be >= 1, got {repeats}")
        if not thresholds:
            raise BenchmarkConfigError("thresholds must be non-empty")
        for threshold in thresholds:
            for implementation in implementations:
                best: Optional[SweepRecord] = None
                for _ in range(repeats):
                    result = self.fn(threshold, implementation)
                    record = self._record(threshold, implementation, result)
                    if best is None or record.total_seconds < best.total_seconds:
                        best = record
                assert best is not None
                self.records.append(best)
        return self.records

    def _record(
        self, threshold: float, implementation: str, result: SimilarityJoinResult
    ) -> SweepRecord:
        m: ExecutionMetrics = result.metrics
        extra: Dict[str, Any] = {}
        if m.parallel_stats is not None:
            # The parallel executor's telemetry becomes the record's (and
            # the repro-bench/v1 JSON's) ``parallel`` block.
            extra["parallel"] = m.parallel_stats
        if m.verify_candidates:
            # Verification-engine per-stage counters (candidates in,
            # position-pruned by the weight pre-test, bitmap-pruned,
            # intersections run).
            extra["verify"] = m.verify_stats()
        return SweepRecord(
            extra=extra,
            label=self.label,
            threshold=threshold,
            implementation=result.implementation,
            total_seconds=m.total_seconds,
            phase_seconds=dict(m.phase_seconds),
            candidate_pairs=m.candidate_pairs,
            output_pairs=m.output_pairs,
            similarity_comparisons=m.similarity_comparisons,
            result_pairs=m.result_pairs,
            prepared_rows=m.prepared_rows,
        )

    def by_implementation(self, implementation: str) -> List[SweepRecord]:
        return [r for r in self.records if r.implementation == implementation]


def time_call(fn: Callable[[], Any]) -> tuple:
    """``(seconds, result)`` of one call — for ad-hoc measurements."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result

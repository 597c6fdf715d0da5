"""Execution metrics: the phase timings and counters the paper reports.

Figures 10–13 split each run into **Prep / Prefix-filter / SSJoin / Filter**
phases; Table 1 counts similarity-function invocations; Table 2 reports
SSJoin input and output sizes. :class:`ExecutionMetrics` collects all of
these, and every SSJoin implementation and similarity join threads one
through its phases.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Optional

__all__ = ["ExecutionMetrics", "PHASE_PREP", "PHASE_PREFIX", "PHASE_SSJOIN", "PHASE_FILTER"]

PHASE_PREP = "prep"
PHASE_PREFIX = "prefix_filter"
PHASE_SSJOIN = "ssjoin"
PHASE_FILTER = "filter"

#: Canonical phase order for reports.
PHASES = (PHASE_PREP, PHASE_PREFIX, PHASE_SSJOIN, PHASE_FILTER)


@dataclass  # repro: ignore[RL204] -- mutable by design: counters accumulate during execution
class ExecutionMetrics:
    """Counters and per-phase wall-clock timings for one join execution.

    Attributes
    ----------
    phase_seconds:
        Accumulated wall-clock time per phase name. Phases may be entered
        multiple times; durations add up.
    prepared_rows:
        Rows of the normalized input fed to the SSJoin (Table 2's
        "SSJoin Input").
    prefix_rows:
        Rows surviving the prefix filter (both sides combined).
    equijoin_rows:
        Element-level matches produced by the core equi-join.
    candidate_pairs:
        Distinct ⟨R.A, S.A⟩ group pairs compared against the predicate —
        rows of the logical plan's candidate relation, both ``(g, h)``
        and ``(h, g)`` on a self-join even when one evaluation serves
        both (see ``verify_candidates``).
    output_pairs:
        Pairs satisfying the SSJoin predicate.
    similarity_comparisons:
        Invocations of the post-filter similarity UDF (Table 1's metric).
    result_pairs:
        Final pairs after the similarity post-filter.
    encode_cache_hits / encode_cache_misses:
        Encoding-cache outcomes for the dictionary-encoded fast path: a
        hit means the ``TokenDictionary`` + columnar arrays of a previous
        content-identical input pair were reused; a miss means they were
        built (and cached) for this execution.
    verify_candidates / verify_bitmap_pruned / verify_position_pruned /
    verify_merges_run / verify_merges_early_exited:
        Per-stage verification-engine counters (:mod:`repro.core.verify`),
        counting *evaluations performed* (one per unordered pair on a
        mirrored self-join, so ``verify_candidates <= candidate_pairs``):
        candidates entering the engine, candidates killed by the bitmap
        XOR-popcount bound, candidates killed by the weight pre-test (the
        remaining-weight bound at both sets' first positions, which runs
        before the popcount), and overlap intersections actually run.
        ``verify_merges_early_exited`` counts the count-merges the ppjoin
        and allpairs extensions abandon once their required overlap is
        unreachable.  All zero when the engine is disabled or the plan
        has no engine.
    parallel_stats:
        When the run went through :mod:`repro.parallel`, the
        ``ParallelReport.to_dict()`` telemetry — strategy, worker count,
        per-shard timings — for the bench harness's ``parallel`` block.
    """

    phase_seconds: Dict[str, float] = field(default_factory=dict)
    prepared_rows: int = 0
    prefix_rows: int = 0
    equijoin_rows: int = 0
    candidate_pairs: int = 0
    output_pairs: int = 0
    similarity_comparisons: int = 0
    result_pairs: int = 0
    encode_cache_hits: int = 0
    encode_cache_misses: int = 0
    verify_candidates: int = 0
    verify_bitmap_pruned: int = 0
    verify_position_pruned: int = 0
    verify_merges_run: int = 0
    verify_merges_early_exited: int = 0
    implementation: Optional[str] = None
    parallel_stats: Optional[Dict[str, Any]] = None
    #: Open-ended side-channel telemetry keyed by subsystem — e.g.
    #: ``extra["encoding_cache"]`` carries the tiered cache's
    #: hit/miss/eviction/disk-hit counters, ``extra["storage"]`` the
    #: buffer-pool stats when the run scanned attached tables.
    extra: Dict[str, Any] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Context manager accumulating wall time into phase *name*."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + elapsed

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    def seconds(self, name: str) -> float:
        return self.phase_seconds.get(name, 0.0)

    def merge(self, other: "ExecutionMetrics") -> None:
        """Fold another metrics object into this one (for multi-stage joins)."""
        for name, secs in other.phase_seconds.items():
            self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + secs
        self.prepared_rows += other.prepared_rows
        self.prefix_rows += other.prefix_rows
        self.equijoin_rows += other.equijoin_rows
        self.candidate_pairs += other.candidate_pairs
        self.output_pairs += other.output_pairs
        self.similarity_comparisons += other.similarity_comparisons
        self.result_pairs += other.result_pairs
        self.encode_cache_hits += other.encode_cache_hits
        self.encode_cache_misses += other.encode_cache_misses
        self.verify_candidates += other.verify_candidates
        self.verify_bitmap_pruned += other.verify_bitmap_pruned
        self.verify_position_pruned += other.verify_position_pruned
        self.verify_merges_run += other.verify_merges_run
        self.verify_merges_early_exited += other.verify_merges_early_exited
        if other.parallel_stats is not None:
            # Last writer wins: the executor folds shard metrics into the
            # parent, and the parent's report is attached afterwards.
            self.parallel_stats = other.parallel_stats
        # Subsystem snapshots: newer snapshot per key replaces the older.
        self.extra.update(other.extra)

    def summary(self) -> str:
        """Human-readable one-paragraph summary."""
        times = ", ".join(
            f"{p}={self.phase_seconds[p]:.3f}s" for p in PHASES if p in self.phase_seconds
        )
        text = (
            f"[{self.implementation or 'ssjoin'}] {times} | "
            f"prepared={self.prepared_rows} prefix={self.prefix_rows} "
            f"equijoin={self.equijoin_rows} candidates={self.candidate_pairs} "
            f"output={self.output_pairs} udf_calls={self.similarity_comparisons} "
            f"final={self.result_pairs}"
        )
        if self.encode_cache_hits or self.encode_cache_misses:
            text += f" encode_cache={self.encode_cache_hits}h/{self.encode_cache_misses}m"
        if self.verify_candidates:
            text += (
                f" verify={self.verify_candidates}c"
                f"/{self.verify_bitmap_pruned}b"
                f"/{self.verify_position_pruned}p"
                f"/{self.verify_merges_run}m"
                f"/{self.verify_merges_early_exited}x"
            )
        return text

    def verify_stats(self) -> Dict[str, int]:
        """The verification-engine counters as a dict (bench telemetry)."""
        return {
            "candidates": self.verify_candidates,
            "bitmap_pruned": self.verify_bitmap_pruned,
            "position_pruned": self.verify_position_pruned,
            "merges_run": self.verify_merges_run,
            "merges_early_exited": self.verify_merges_early_exited,
        }

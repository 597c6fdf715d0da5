"""Cost-based choice among SSJoin implementations.

Section 5 observes "there is not always a clear winner between the basic
and prefix-filtered implementations", which "motivates the requirement for
a cost-based decision", and Section 7 states the intent to integrate SSJoin
with a query optimizer. This module supplies that optimizer.

The model is deliberately simple and histogram-exact where it can be:

* The **basic** plan's dominant cost is the element equi-join, whose output
  size is computed *exactly* from the element frequency histograms
  (``Σ_t f_R(t)·f_S(t)``), plus grouping that same row count.
* The **prefix** plans' costs are the prefix extraction (sorting each
  group), the far smaller equi-join of prefixes (again histogram-exact,
  over the *actual* extracted prefixes), and a verification term — regroup
  joins proportional to candidate-pair set sizes for the plain prefix plan,
  an encoded-set overlap per candidate for the inline plan.
* The **dictionary-encoded** plan (``encoded-prefix``) shares the prefix
  shape but with integer-native per-row constants, plus a one-time encode
  term that drops to zero when the encoding cache already holds this input
  pair — which is how repeat workloads (sweeps, re-planning) automatically
  route to the fast path.

The tuple index-probe plan (``probe``) is runnable by name — it is the
independent referee the equivalence suites and the benchmark harness
compare against — but is not priced, so ``auto`` never chooses it.

Because prefixes are cheap to extract relative to any join, the optimizer
*actually extracts them* and prices the real filtered relations instead of
guessing — the same trick a DBMS plays with sampled statistics, with the
sample rate turned up to 100%.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.encoded import encoding_tier
from repro.core.ordering import ElementOrdering, frequency_ordering
from repro.core.predicate import OverlapPredicate
from repro.core.prefix_filter import prefix_filter_relation
from repro.core.prepared import PreparedRelation
from repro.core.verify import (
    choose_signature_bits,
    estimated_prune_fraction,
    predicate_strictness,
)
from repro.errors import OptimizerError, PlanError
from repro.relational.stats import ColumnStats, estimate_equijoin_size

if TYPE_CHECKING:  # the optimizer only touches Relation in estimates
    from repro.relational.relation import Relation

__all__ = [
    "IMPLEMENTATIONS",
    "CostEstimate",
    "CostModel",
    "choose_implementation",
    "unknown_implementation",
]

#: Every plan runnable by name — the one place the names are listed.
#: :meth:`CostModel.estimate_all` prices all of them except ``probe``.
IMPLEMENTATIONS = ("basic", "prefix", "inline", "probe", "encoded-prefix")


def unknown_implementation(name: str) -> PlanError:
    """The error every entry point raises for a name outside the list."""
    return PlanError(
        f"unknown implementation {name!r}; expected one of "
        f"{', '.join(IMPLEMENTATIONS)} or auto"
    )


@dataclass(frozen=True)
class CostEstimate:
    """Estimated cost of one implementation, with its drivers.

    ``cost`` is in abstract row-operation units — only comparisons between
    estimates are meaningful, mirroring the paper's unitless "time units".
    """

    implementation: str
    cost: float
    details: Dict[str, float] = field(default_factory=dict)

    def __repr__(self) -> str:
        drivers = ", ".join(f"{k}={v:.0f}" for k, v in self.details.items())
        return f"CostEstimate({self.implementation}, cost={self.cost:.0f}, {drivers})"


class CostModel:
    """Per-row cost constants, tunable if a deployment calibrates them."""

    #: cost of producing one equi-join output row (hash probe + emit)
    JOIN_ROW = 1.0
    #: cost of hashing one input row into a join or group table
    BUILD_ROW = 0.6
    #: cost of aggregating one row in GROUP BY
    GROUP_ROW = 0.8
    #: cost of sorting one element during prefix extraction
    PREFIX_ELEMENT = 0.4
    #: cost of one regroup-join row during prefix verification
    VERIFY_ROW = 1.2
    #: cost of one encoded-set overlap evaluation per candidate element
    INLINE_ELEMENT = 0.5
    #: fixed per-candidate overhead of the inline UDF call
    INLINE_PAIR = 2.0
    #: cost of interning + array-encoding one element into the dictionary
    #: layer (paid only on an encoding-cache miss)
    ENCODE_ELEMENT = 0.15
    #: cost of one merge-intersection step during encoded verification —
    #: an int compare on sorted arrays, far below VERIFY_ROW's regroup-join
    #: row cost
    MERGE_ELEMENT = 0.15
    #: cost of one int-keyed index/posting visit in the encoded plan
    #: (discovery probes and index builds)
    ENCODED_POSTING = 0.35
    #: cost of one verification-engine bound evaluation per candidate
    #: (XOR-popcount plus the positional check — paid before any merge)
    VERIFY_BOUND = 0.4
    #: cost of packing one element into a bit signature (paid alongside
    #: the encode term, i.e. only on an encoding-cache miss)
    SIGNATURE_ELEMENT = 0.05
    #: cost of reading one 4 KiB page from a persisted encoding (mmap
    #: fault + checksum + array adoption) — charged instead of
    #: ENCODE_ELEMENT when the encoding cache's disk tier holds the pair
    PAGE_IO = 8.0
    #: estimated on-disk bytes per encoded element (one i64 id + one f64
    #: weight), used to convert element counts into page counts
    BYTES_PER_ELEMENT = 16
    #: fixed cost of forking + warming up one worker process
    PARALLEL_SPAWN = 2500.0
    #: per-shard submit/pickle/result overhead of one pool task
    PARALLEL_TASK = 40.0
    #: per-element cost of shipping the payload to one worker
    #: (pickle + unpickle of the columnar arrays or prepared groups)
    PARALLEL_SHIP = 0.08

    def estimate_all(
        self,
        left: PreparedRelation,
        right: PreparedRelation,
        predicate: OverlapPredicate,
        ordering: Optional[ElementOrdering] = None,
    ) -> List[CostEstimate]:
        """Cost every plan ``auto`` may choose; cheapest first."""
        if ordering is None:
            ordering = frequency_ordering(left, right)

        lstats = _element_stats(left)
        rstats = _element_stats(right)
        join_rows = float(estimate_equijoin_size(lstats, rstats))
        n_left = left.num_elements
        n_right = right.num_elements

        basic = CostEstimate(
            "basic",
            self.BUILD_ROW * (n_left + n_right)
            + self.JOIN_ROW * join_rows
            + self.GROUP_ROW * join_rows,
            {"equijoin_rows": join_rows, "input_rows": n_left + n_right},
        )

        # Extract the real prefixes and price the filtered join exactly.
        pl = prefix_filter_relation(left, predicate, ordering, side="left")
        pr = prefix_filter_relation(right, predicate, ordering, side="right")
        plstats = ColumnStats.from_relation(pl, "b")
        prstats = ColumnStats.from_relation(pr, "b")
        prefix_join_rows = float(estimate_equijoin_size(plstats, prstats))
        prefix_cost = self.PREFIX_ELEMENT * (n_left + n_right)

        avg_left = n_left / max(left.num_groups, 1)
        avg_right = n_right / max(right.num_groups, 1)
        # Candidate pairs are at most the filtered join rows; use that as
        # the (pessimistic) estimate of pairs needing verification.
        candidates = prefix_join_rows

        prefix = CostEstimate(
            "prefix",
            prefix_cost
            + self.BUILD_ROW * (len(pl) + len(pr))
            + self.JOIN_ROW * prefix_join_rows
            + self.VERIFY_ROW * candidates * (avg_left + avg_right)
            + self.GROUP_ROW * candidates * min(avg_left, avg_right),
            {
                "prefix_rows": float(len(pl) + len(pr)),
                "prefix_join_rows": prefix_join_rows,
                "est_candidates": candidates,
            },
        )

        inline = CostEstimate(
            "inline",
            prefix_cost
            + self.BUILD_ROW * (len(pl) + len(pr))
            + self.JOIN_ROW * prefix_join_rows
            + self.INLINE_PAIR * candidates
            + self.INLINE_ELEMENT * candidates * min(avg_left, avg_right),
            {
                "prefix_rows": float(len(pl) + len(pr)),
                "prefix_join_rows": prefix_join_rows,
                "est_candidates": candidates,
            },
        )

        # Dictionary-encoded plan: the same shape as prefix but with
        # int-native per-row costs, plus a one-time encode term that the
        # encoding cache amortizes away on repeat workloads.
        # The facade encodes under the *user's* ordering key (None when it
        # defaulted to joint frequency), so probe both cache keys.
        tier = encoding_tier(left, right, None) or encoding_tier(
            left, right, ordering
        )
        cached = tier == "memory"
        if cached:
            encode_cost = 0.0
        elif tier == "disk":
            # A persisted encoding exists: charge page I/O for decoding
            # the columnar arrays instead of the per-element re-encode.
            from repro.storage.pages import PAGE_SIZE

            est_pages = 1.0 + (n_left + n_right) * self.BYTES_PER_ELEMENT / PAGE_SIZE
            encode_cost = self.PAGE_IO * est_pages
        else:
            encode_cost = self.ENCODE_ELEMENT * (n_left + n_right)

        # Verification-engine factors. The engine bypasses itself (width
        # 0) on loose predicates, in which case every extra term vanishes
        # and the encoded costs reduce to the engine-off model exactly.
        n_groups = left.num_groups + right.num_groups
        mean_norm = (
            (sum(left.norms.values()) + sum(right.norms.values())) / n_groups
            if n_groups
            else 0.0
        )
        strictness = predicate_strictness(predicate, mean_norm)
        verify_bits = choose_signature_bits(
            lstats.num_distinct + rstats.num_distinct, strictness
        )
        prune = estimated_prune_fraction(strictness) if verify_bits else 0.0
        signature_cost = (
            0.0 if cached or not verify_bits else self.SIGNATURE_ELEMENT * (n_left + n_right)
        )

        encoded_prefix = CostEstimate(
            "encoded-prefix",
            encode_cost
            + signature_cost
            + self.ENCODED_POSTING * (len(pl) + len(pr) + prefix_join_rows)
            + (self.VERIFY_BOUND * candidates if verify_bits else 0.0)
            + self.MERGE_ELEMENT * candidates * (1.0 - prune) * (avg_left + avg_right),
            {
                "encode_rows": 0.0 if cached else float(n_left + n_right),
                "prefix_rows": float(len(pl) + len(pr)),
                "prefix_join_rows": prefix_join_rows,
                "est_candidates": candidates,
                "est_prune_fraction": prune,
            },
        )
        return sorted([basic, prefix, inline, encoded_prefix], key=lambda e: e.cost)

    def parallel_cost(
        self,
        sequential_cost: float,
        workers: int,
        ship_elements: int,
        oversplit: int = 4,
    ) -> float:
        """Modeled cost of running a *sequential_cost* plan on *workers*.

        Per-shard work divides across workers (the shard planners
        balance; oversplit + largest-first dispatch absorbs skew), while
        three overheads are added back: process spawn per worker, task
        dispatch per shard, and payload shipping — *ship_elements* set
        elements pickled to every worker.  ``workers <= 1`` is exactly
        the sequential cost, which is what makes ``workers="auto"``'s
        crossover safe: below it the scheduler resolves to 1 and the
        executor never spawns.
        """
        if workers <= 1:
            return sequential_cost
        n_shards = workers * max(oversplit, 1)
        return (
            sequential_cost / workers
            + self.PARALLEL_SPAWN * workers
            + self.PARALLEL_TASK * n_shards
            + self.PARALLEL_SHIP * ship_elements * workers
        )


def choose_implementation(
    left: PreparedRelation,
    right: PreparedRelation,
    predicate: OverlapPredicate,
    ordering: Optional[ElementOrdering] = None,
    model: Optional[CostModel] = None,
) -> CostEstimate:
    """Pick the cheapest implementation under the cost model."""
    estimates = (model or CostModel()).estimate_all(left, right, predicate, ordering)
    if not estimates:
        raise OptimizerError("no implementations could be costed")
    return estimates[0]


def _element_stats(prepared: PreparedRelation) -> ColumnStats:
    """Element (``b`` column) statistics of a prepared relation.

    Built from the group dicts directly — equivalent to
    ``ColumnStats.from_relation(prepared.relation, "b")`` without forcing
    the First-Normal-Form materialization.
    """
    freq = prepared.element_frequencies()
    return ColumnStats(
        num_rows=prepared.num_elements, num_distinct=len(freq), frequencies=freq
    )

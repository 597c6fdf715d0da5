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
  group), the far smaller equi-join of prefixes (a histogram product
  again, over the prefixes of a sample of groups), and a verification
  term — regroup joins proportional to candidate-pair set sizes for the
  plain prefix plan, an encoded-set overlap per candidate for the inline
  plan.
* The **dictionary-encoded** plan (``encoded-prefix``) shares the prefix
  shape but with integer-native per-row constants, plus a one-time encode
  term that drops to zero when the encoding cache already holds this input
  pair — which is how repeat workloads (sweeps, re-planning) automatically
  route to the fast path.

The tuple index-probe plan (``probe``) is runnable by name — it is the
independent referee the equivalence suites and the benchmark harness
compare against — but is not priced, so ``auto`` never chooses it.

Planning must cost less than the join it plans, so the prefix statistics
are sampled: a deterministic stride sample of at most ``SAMPLE_GROUPS``
groups per side has its real prefixes extracted
(:func:`repro.core.prefixes.group_prefix`, the helper the prefix plans run)
into a token histogram, and the counts are scaled by ``n/k`` per side — so
a side with at most ``SAMPLE_GROUPS`` groups is priced exactly. In a
self-join (one relation, or equal fingerprints) both sides sample the same
keys, and a group's prefix meets *itself* whenever the group is sampled —
probability ``k/n``, not the ``(k/n)²`` of a pair of groups — so that
diagonal is scaled by ``n/k`` on its own; on address data it is most of
the prefix join. With no ordering given the sample is sorted by the
joint-frequency key itself: planning never sorts the vocabulary.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, List, Optional

from repro.core.encoded import encoding_tier
from repro.core.ordering import ElementOrdering, frequency_key, joint_frequencies
from repro.core.predicate import OverlapPredicate
from repro.core.prefixes import group_prefix
from repro.core.prepared import PreparedRelation
from repro.core.verify import (
    choose_signature_bits,
    estimated_prune_fraction,
    predicate_strictness,
)
from repro.errors import OptimizerError, PlanError

__all__ = [
    "IMPLEMENTATIONS",
    "SAMPLE_GROUPS",
    "CostEstimate",
    "CostModel",
    "choose_implementation",
    "unknown_implementation",
]

#: Every plan runnable by name — the one place the names are listed.
#: :meth:`CostModel.estimate_all` prices all of them except ``probe``.
IMPLEMENTATIONS = ("basic", "prefix", "inline", "probe", "encoded-prefix")

#: Most groups per side whose prefixes :meth:`CostModel.estimate_all`
#: extracts; a side with no more than this is priced exactly.
SAMPLE_GROUPS = 2048


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
        # Two places, zeros trimmed: counts stay whole, fractions stay visible.
        drivers = ", ".join(
            f"{k}=" + f"{v:.2f}".rstrip("0").rstrip(".") for k, v in self.details.items()
        )
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
    #: (the weight pre-test and the XOR-popcount test — paid before any
    #: overlap is summed)
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
        lfreq = left.element_frequencies()
        rfreq = right.element_frequencies()
        join_rows = float(_histogram_join(lfreq, rfreq))
        n_left = left.num_elements
        n_right = right.num_elements

        basic = CostEstimate(
            "basic",
            self.BUILD_ROW * (n_left + n_right)
            + self.JOIN_ROW * join_rows
            + self.GROUP_ROW * join_rows,
            {"equijoin_rows": join_rows, "input_rows": n_left + n_right},
        )

        # Extract the real prefixes of a bounded sample and scale up.
        key = (
            ordering.key
            if ordering is not None
            else frequency_key(lfreq if left is right else joint_frequencies(left, right))
        )
        self_join = left is right or (
            left.fingerprint() == right.fingerprint()
            and left.groups.keys() == right.groups.keys()
        )
        lkeys = _sample_keys(left)
        rkeys = lkeys if self_join else _sample_keys(right)
        lscale = left.num_groups / len(lkeys) if lkeys else 1.0
        rscale = right.num_groups / len(rkeys) if rkeys else 1.0
        lprefixes = [
            group_prefix(left.groups[a], left.norms[a], predicate.left_filter_threshold, key)
            for a in lkeys
        ]
        rprefixes = [
            group_prefix(right.groups[a], right.norms[a], predicate.right_filter_threshold, key)
            for a in rkeys
        ]
        sample_join = _histogram_join(
            Counter(chain.from_iterable(lprefixes)), Counter(chain.from_iterable(rprefixes))
        )
        # A group's two prefixes are cuts of one sorted list, so they share
        # the shorter one; sampled with its group, not with a pair of groups.
        diagonal = (
            sum(min(len(p), len(q)) for p, q in zip(lprefixes, rprefixes))
            if self_join
            else 0
        )
        prefix_rows = min(lscale * sum(map(len, lprefixes)), float(n_left)) + min(
            rscale * sum(map(len, rprefixes)), float(n_right)
        )
        prefix_join_rows = min(
            lscale * rscale * (sample_join - diagonal) + lscale * diagonal, join_rows
        )
        prefix_cost = self.PREFIX_ELEMENT * (n_left + n_right)

        avg_left = n_left / max(left.num_groups, 1)
        avg_right = n_right / max(right.num_groups, 1)
        # Candidate pairs are at most the filtered join rows; use that as
        # the (pessimistic) estimate of pairs needing verification.
        candidates = prefix_join_rows

        prefix = CostEstimate(
            "prefix",
            prefix_cost
            + self.BUILD_ROW * prefix_rows
            + self.JOIN_ROW * prefix_join_rows
            + self.VERIFY_ROW * candidates * (avg_left + avg_right)
            + self.GROUP_ROW * candidates * min(avg_left, avg_right),
            {
                "prefix_rows": prefix_rows,
                "prefix_join_rows": prefix_join_rows,
                "est_candidates": candidates,
            },
        )

        inline = CostEstimate(
            "inline",
            prefix_cost
            + self.BUILD_ROW * prefix_rows
            + self.JOIN_ROW * prefix_join_rows
            + self.INLINE_PAIR * candidates
            + self.INLINE_ELEMENT * candidates * min(avg_left, avg_right),
            {
                "prefix_rows": prefix_rows,
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
        verify_bits = choose_signature_bits(len(lfreq) + len(rfreq), strictness)
        prune = estimated_prune_fraction(strictness) if verify_bits else 0.0
        signature_cost = (
            0.0 if cached or not verify_bits else self.SIGNATURE_ELEMENT * (n_left + n_right)
        )

        encoded_prefix = CostEstimate(
            "encoded-prefix",
            encode_cost
            + signature_cost
            + self.ENCODED_POSTING * (prefix_rows + prefix_join_rows)
            + (self.VERIFY_BOUND * candidates if verify_bits else 0.0)
            + self.MERGE_ELEMENT * candidates * (1.0 - prune) * (avg_left + avg_right),
            {
                "encode_rows": 0.0 if cached else float(n_left + n_right),
                "prefix_rows": prefix_rows,
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


def _sample_keys(prepared: PreparedRelation) -> List[Any]:
    """Every group key up to ``SAMPLE_GROUPS``, an even stride of that
    many beyond — deterministic, so one input always plans the same."""
    keys = list(prepared.groups)
    n = len(keys)
    if n <= SAMPLE_GROUPS:
        return keys
    return [keys[i * n // SAMPLE_GROUPS] for i in range(SAMPLE_GROUPS)]


def _histogram_join(left: Dict[Any, int], right: Dict[Any, int]) -> int:
    """Exact equi-join size of two value histograms, ``Σ_t f_L(t)·f_R(t)``."""
    small, large = (left, right) if len(left) <= len(right) else (right, left)
    return sum(n * large.get(e, 0) for e, n in small.items())

"""Index-probe SSJoin: the inverted-index strategy of Sarawagi & Kirpal [13].

The paper's related-work section contrasts its operator-composition
approach with [13]'s "fixed implementation based on inverted indexes", and
its Section 5 observes the SQL optimizer never picked index plans — hence
the argument for cost-based choice. To make that argument testable, this
module implements the index plan as a fourth physical implementation:

1. build an inverted index ``element -> [(a_s, weight, norm_s)]`` over the
   right relation;
2. probe it once per left group, accumulating per-``a_s`` overlap — the
   OptMerge-style early termination applies the prefix idea on the *probe*
   side: only the left group's β-prefix elements consult the index to
   discover candidates, while the remaining (suffix) elements only update
   overlaps of candidates already discovered;
3. emit pairs satisfying the predicate.

Correct for the same reason the prefix-filtered plan is: a qualifying pair
must share a left-prefix element with the right set (Lemma 1 applied with
the right-side filter threshold at zero, i.e. the whole right set indexed).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.basic import RESULT_SCHEMA
from repro.core.metrics import (
    PHASE_FILTER,
    PHASE_PREP,
    PHASE_SSJOIN,
    ExecutionMetrics,
)
from repro.core.ordering import ElementOrdering, frequency_ordering
from repro.core.predicate import OverlapPredicate, prefix_beta
from repro.core.prefixes import prefix_of_sorted
from repro.core.prepared import PreparedRelation
from repro.relational.relation import Relation

__all__ = ["InvertedIndex", "index_probe_ssjoin"]


class InvertedIndex:
    """Element → postings over a prepared relation.

    Postings carry ``(group_key, weight, norm)`` so a probe can accumulate
    weighted overlaps and evaluate normalized predicates without touching
    the base relation again.
    """

    def __init__(self, prepared: PreparedRelation) -> None:
        self.prepared = prepared
        self._postings: Dict[Any, List[Tuple[Any, float, float]]] = {}
        for a, wset in prepared.groups.items():
            norm = prepared.norms[a]
            for element, weight in wset.items():
                self._postings.setdefault(element, []).append((a, weight, norm))

    def postings(self, element: Any) -> List[Tuple[Any, float, float]]:
        return self._postings.get(element, [])

    @property
    def num_elements(self) -> int:
        return len(self._postings)

    @property
    def num_postings(self) -> int:
        return sum(len(p) for p in self._postings.values())

    def __repr__(self) -> str:
        return (
            f"InvertedIndex(elements={self.num_elements}, "
            f"postings={self.num_postings})"
        )


def index_probe_ssjoin(
    left: PreparedRelation,
    right: PreparedRelation,
    predicate: OverlapPredicate,
    ordering: Optional[ElementOrdering] = None,
    metrics: Optional[ExecutionMetrics] = None,
    index: Optional[InvertedIndex] = None,
) -> Relation:
    """Probe-side SSJoin; returns a :data:`RESULT_SCHEMA` relation.

    Pass a prebuilt *index* to amortize index construction across calls
    (the lookup-workload pattern [13] optimizes for).
    """
    m = metrics if metrics is not None else ExecutionMetrics()
    m.implementation = "probe"

    with m.phase(PHASE_PREP):
        if ordering is None:
            ordering = frequency_ordering(left, right)
        if index is None:
            index = InvertedIndex(right)
        m.prepared_rows += left.num_elements + index.num_postings

    out_rows: List[Tuple] = []
    with m.phase(PHASE_SSJOIN):
        for a_r, wset in left.groups.items():
            norm_r = left.norms[a_r]
            beta = prefix_beta(wset.norm, predicate.left_filter_threshold(norm_r))
            ordered = wset.sorted_elements(ordering.key)
            prefix = prefix_of_sorted([(e, wset.weight(e)) for e in ordered], beta)
            if not prefix:
                continue
            prefix_set = set(prefix)

            # Discovery pass: only prefix elements can introduce candidates.
            overlaps: Dict[Any, float] = {}
            norms_s: Dict[Any, float] = {}
            for element in prefix:
                weight = wset.weight(element)
                for a_s, _w_s, norm_s in index.postings(element):
                    overlaps[a_s] = overlaps.get(a_s, 0.0) + weight
                    norms_s[a_s] = norm_s
            if not overlaps:
                continue
            m.candidate_pairs += len(overlaps)

            # Completion pass: suffix elements only grow known candidates.
            candidates = overlaps.keys()
            for element in ordered:
                if element in prefix_set:
                    continue
                weight = wset.weight(element)
                for a_s, _w_s, _norm_s in index.postings(element):
                    if a_s in overlaps:
                        overlaps[a_s] += weight
            m.equijoin_rows += sum(1 for _ in candidates)

            for a_s, overlap in overlaps.items():
                if predicate.satisfied(overlap, norm_r, norms_s[a_s]):
                    out_rows.append((a_r, a_s, overlap, norm_r, norms_s[a_s]))

    with m.phase(PHASE_FILTER):
        result = Relation(RESULT_SCHEMA, out_rows)
        m.output_pairs += len(result)
    return result

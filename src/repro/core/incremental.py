"""Incremental SSJoin: maintain a self-join under record arrivals.

Warehouses are not static; new customer rows arrive and must be checked
against everything already ingested — without recomputing the whole join.
:class:`IncrementalSSJoin` keeps prefix indexes over the groups seen so
far and, per arriving group, returns exactly the directed pairs the batch
self-join would gain — including both directions of asymmetric predicates
(a 1-sided containment bound gives ``(new, old)`` and ``(old, new)``
*different* thresholds, so each direction gets its own Lemma-1 probe).

Two indexes are maintained: stored groups' **right**-side prefixes (probed
by a new group's left prefix, covering ``(new, old)`` pairs) and stored
groups' **left**-side prefixes (probed by a new group's right prefix,
covering ``(old, new)`` pairs). Candidates are verified with the exact
set overlap, so the answer is exact whatever the ordering.

The global element ordering is fixed at construction (Lemma 1 holds under
*any* fixed order, so correctness never depends on it). For filtering
power, seed it from a representative sample via
:meth:`IncrementalSSJoin.from_sample`; as the live distribution drifts the
filter only gets *weaker*, never wrong.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.metrics import ExecutionMetrics
from repro.core.ordering import ElementOrdering, frequency_ordering
from repro.core.predicate import OverlapPredicate, prefix_beta
from repro.core.prefixes import prefix_of_sorted
from repro.core.prepared import PreparedRelation
from repro.errors import ReproError
from repro.tokenize.sets import WeightedSet

if TYPE_CHECKING:  # deferred: tokenize.weights imports are cycle-prone
    from repro.tokenize.weights import WeightTable

__all__ = ["IncrementalSSJoin"]


class IncrementalSSJoin:
    """A self-join maintained under ``add()`` calls.

    >>> pred = OverlapPredicate.absolute(2.0)
    >>> inc = IncrementalSSJoin(pred)
    >>> inc.add("r1", WeightedSet({"a": 1.0, "b": 1.0, "c": 1.0}))
    []
    >>> inc.add("r2", WeightedSet({"a": 1.0, "b": 1.0, "z": 1.0}))
    [('r1', 'r2', 2.0), ('r2', 'r1', 2.0)]
    """

    def __init__(
        self,
        predicate: OverlapPredicate,
        ordering: Optional[ElementOrdering] = None,
        metrics: Optional[ExecutionMetrics] = None,
    ) -> None:
        self.predicate = predicate
        self.ordering = ordering if ordering is not None else ElementOrdering({}, "arrival")
        self.metrics = metrics if metrics is not None else ExecutionMetrics()
        self.metrics.implementation = "incremental"
        self._groups: Dict[Any, WeightedSet] = {}
        self._norms: Dict[Any, float] = {}
        #: element -> [keys]: stored groups' right-side prefix postings.
        self._right_index: Dict[Any, List[Any]] = {}
        #: element -> [keys]: stored groups' left-side prefix postings.
        self._left_index: Dict[Any, List[Any]] = {}

    @classmethod
    def from_sample(
        cls,
        predicate: OverlapPredicate,
        sample: PreparedRelation,
        metrics: Optional[ExecutionMetrics] = None,
    ) -> "IncrementalSSJoin":
        """Seed the element ordering from a representative sample."""
        return cls(predicate, ordering=frequency_ordering(sample), metrics=metrics)

    # -- state ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._groups)

    def __contains__(self, key: object) -> bool:
        return key in self._groups

    def group(self, key: Any) -> WeightedSet:
        return self._groups[key]

    def keys(self) -> Tuple[Any, ...]:
        return tuple(self._groups)

    # -- internals ----------------------------------------------------------------

    def _prefix(
        self, wset: WeightedSet, ordered: List[Any], side: str, norm: float
    ) -> List[Any]:
        bound = (
            self.predicate.left_filter_threshold(norm)
            if side == "left"
            else self.predicate.right_filter_threshold(norm)
        )
        beta = prefix_beta(wset.norm, bound)
        return prefix_of_sorted([(e, wset.weight(e)) for e in ordered], beta)

    # -- the operation ----------------------------------------------------------

    def add(
        self,
        key: Any,
        wset: WeightedSet,
        norm: Optional[float] = None,
    ) -> List[Tuple[Any, Any, float]]:
        """Ingest one group; return its matches against everything prior.

        Returns directed ``(left_key, right_key, overlap)`` triples —
        exactly the rows the batch self-join result would gain by adding
        this group (minus the self-pair). The new group is then indexed so
        later arrivals see it.
        """
        if key in self._groups:
            raise ReproError(f"group {key!r} already ingested")
        effective_norm = wset.norm if norm is None else float(norm)
        ordered = wset.sorted_elements(self.ordering.key)

        # Direction (new, old): new is the left operand.
        new_left_candidates: Set[Any] = set()
        for element in self._prefix(wset, ordered, "left", effective_norm):
            new_left_candidates.update(self._right_index.get(element, ()))
        # Direction (old, new): new is the right operand.
        new_right_candidates: Set[Any] = set()
        for element in self._prefix(wset, ordered, "right", effective_norm):
            new_right_candidates.update(self._left_index.get(element, ()))
        self.metrics.candidate_pairs += len(new_left_candidates) + len(
            new_right_candidates
        )

        results: List[Tuple[Any, Any, float]] = []
        overlap_cache: Dict[Any, float] = {}

        def exact_overlap(other_key: Any) -> float:
            if other_key not in overlap_cache:
                self.metrics.similarity_comparisons += 1
                overlap_cache[other_key] = wset.overlap(self._groups[other_key])
            return overlap_cache[other_key]

        for other_key in new_left_candidates:
            overlap = exact_overlap(other_key)
            if overlap > 0 and self.predicate.satisfied(
                overlap, effective_norm, self._norms[other_key]
            ):
                results.append((key, other_key, overlap))
        for other_key in new_right_candidates:
            overlap = exact_overlap(other_key)
            if overlap > 0 and self.predicate.satisfied(
                overlap, self._norms[other_key], effective_norm
            ):
                results.append((other_key, key, overlap))
        self.metrics.output_pairs += len(results)

        # Index the new group's prefixes for future probes.
        for element in self._prefix(wset, ordered, "right", effective_norm):
            self._right_index.setdefault(element, []).append(key)
        for element in self._prefix(wset, ordered, "left", effective_norm):
            self._left_index.setdefault(element, []).append(key)

        self._groups[key] = wset
        self._norms[key] = effective_norm
        results.sort(key=lambda r: (repr(r[0]), repr(r[1])))
        return results

    def add_tokens(
        self,
        key: Any,
        tokens: Sequence[Any],
        weights: Optional["WeightTable"] = None,
        norm: Optional[float] = None,
    ) -> List[Tuple[Any, Any, float]]:
        """Convenience: ordinal-encode *tokens* and :meth:`add` the set."""
        from repro.tokenize.weights import build_weighted_set

        return self.add(key, build_weighted_set(tokens, weights=weights), norm=norm)

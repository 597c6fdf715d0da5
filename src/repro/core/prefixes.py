"""Prefix extraction under a global ordering (paper Lemma 1).

``prefix_β(r)`` is "the subset corresponding to the shortest prefix (in
sorted order), the weights of whose elements add up to more than β".
Lemma 1: if ``wt(s1 ∩ s2) ≥ α`` then with ``β_i = wt(s_i) − α`` the two
prefixes intersect — so an equi-join of prefixes loses no qualifying pair.

Degenerate cases, handled here and exercised by the property tests:

* ``β < 0`` (i.e. α > wt(s)): the group can never reach overlap α, so the
  empty prefix — pruning the whole group — is sound.
* ``β ≥ wt(s)``: no proper prefix exceeds β; the whole set is kept
  (no filtering), which is trivially sound.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

from repro.core.ordering import ElementOrdering
from repro.core.predicate import OVERLAP_EPSILON
from repro.tokenize.sets import WeightedSet

__all__ = ["prefix_elements", "prefix_set", "prefix_of_sorted", "group_prefix"]


def prefix_of_sorted(
    elements_with_weights: Sequence[Tuple[Any, float]], beta: float
) -> List[Any]:
    """Prefix of an *already sorted* (element, weight) sequence.

    Returns the shortest prefix whose cumulative weight strictly exceeds
    *beta*; the whole list if none does; the empty list if ``beta < 0``.
    """
    if beta < 0:
        return []
    out: List[Any] = []
    cumulative = 0.0
    for element, weight in elements_with_weights:
        out.append(element)
        cumulative += weight
        if cumulative > beta:
            return out
    return out  # cumulative never exceeded beta: keep everything


def prefix_elements(
    wset: WeightedSet, ordering: ElementOrdering, beta: float
) -> List[Any]:
    """``prefix_β`` of a weighted set under *ordering* (Lemma 1's filter)."""
    ordered = wset.sorted_elements(ordering.key)
    return prefix_of_sorted([(e, wset.weight(e)) for e in ordered], beta)


def group_prefix(
    wset: WeightedSet,
    norm: float,
    bound_fn: Callable[[float], float],
    key: Callable[[Any], Any],
) -> List[Any]:
    """Lemma-1 prefix of one join group under sort key *key*, with
    ``β = wt(Set(a)) − bound_fn(norm)`` (*bound_fn*: the predicate's
    per-side threshold lower bound). The tuple prefix plans emit exactly
    these prefixes and the optimizer's sample prices them."""
    # Widen beta by the shared overlap epsilon so boundary pairs that
    # satisfied() admits are never pruned (Lemma 1 with alpha - eps).
    beta = wset.norm - bound_fn(norm) + OVERLAP_EPSILON
    ordered = wset.sorted_elements(key)
    return prefix_of_sorted([(e, wset.weight(e)) for e in ordered], beta)


def prefix_set(
    wset: WeightedSet, ordering: ElementOrdering, beta: float
) -> WeightedSet:
    """Same as :func:`prefix_elements` but returned as a WeightedSet."""
    return wset.restrict(prefix_elements(wset, ordering, beta))

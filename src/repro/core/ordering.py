"""Global element orderings ``O`` for the prefix-filter (Section 4.3.2).

Lemma 1 holds for *any* fixed total order, but the order decides how many
candidates survive: ordering elements by **increasing frequency** puts rare
elements in the kept prefix and pushes heavy hitters ("the", "inc") into the
dropped suffix, minimizing the filtered equi-join. The paper implements this
via IDF weights, "since high frequency elements have lower weights, we
filter them out first."

Alternative orderings (random, decreasing frequency) are provided for the
ablation benchmark that demonstrates the choice matters.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Mapping, Tuple

from repro.core.prepared import PreparedRelation
from repro.tokenize.weights import WeightTable

__all__ = [
    "ElementOrdering",
    "frequency_key",
    "frequency_ordering",
    "joint_frequencies",
    "joint_frequency_ranks",
    "weight_ordering",
    "random_ordering",
    "reverse_frequency_ordering",
]


class ElementOrdering:
    """A fixed total order over set elements.

    Internally a rank table (element -> position). The sort key is a plain
    ``int`` — the hot loops of every prefix plan call :meth:`key` once per
    element per sort, so it must not allocate. Unseen elements sort after
    all ranked ones: on first sight each is assigned the next
    sentinel-offset rank in a secondary overflow table, which keeps the
    order total, stable across repeat queries, and allocation-free (the
    pre-PR implementation returned a fresh ``(rank, repr)`` tuple per
    call; see the encoded layer in :mod:`repro.core.dictionary` for the
    fully integer-native form of the same idea).
    """

    #: Default cap on the memoized overflow table. Past it, unseen
    #: elements fall back to a computed (memory-free) rank, so a
    #: long-lived ordering probed with an endless stream of new elements
    #: cannot grow without bound.
    DEFAULT_MAX_OVERFLOW = 1 << 16

    def __init__(
        self,
        ranks: Dict[Any, int],
        description: str = "custom",
        max_overflow: int = DEFAULT_MAX_OVERFLOW,
    ) -> None:
        if max_overflow < 0:
            raise ValueError(f"max_overflow must be >= 0, got {max_overflow}")
        self._ranks = ranks
        self.description = description
        self._sentinel = len(ranks)
        self._overflow: Dict[Any, int] = {}
        self._max_overflow = max_overflow
        # Computed fallback ranks start after every possible memoized
        # rank, so the three tiers (ranked < memoized < computed) never
        # interleave even as the overflow table fills.
        self._fallback_base = self._sentinel + max_overflow

    def key(self, element: Any) -> int:
        """Sort key implementing the total order (an ``int`` rank).

        Ranked elements return their table rank; unseen elements get
        ``sentinel + k`` where ``k`` is their first-seen position in the
        overflow table — always after every ranked element, and the same
        rank every time the element is queried again. Once the overflow
        table holds ``max_overflow`` entries, further unseen elements get
        a *computed* rank derived from their repr: still deterministic
        (identical across processes, even), still after every memoized
        rank, but requiring no storage. It is injective because ``repr``
        starts with a printable character, so the big-endian integer of
        its UTF-8 bytes never collides across distinct reprs.
        """
        rank = self._ranks.get(element)
        if rank is not None:
            return rank
        overflow = self._overflow
        rank = overflow.get(element)
        if rank is None:
            if len(overflow) < self._max_overflow:
                rank = self._sentinel + len(overflow)
                overflow[element] = rank
            else:
                rank = self._fallback_base + int.from_bytes(
                    repr(element).encode("utf-8"), "big"
                )
        return rank

    @property
    def overflow_size(self) -> int:
        """Number of memoized unseen-element ranks (bounded by
        ``max_overflow``)."""
        return len(self._overflow)

    def __call__(self, element: Any) -> int:
        return self.key(element)

    def rank_table(self) -> Dict[Any, int]:
        """The materialized element -> rank mapping (the paper's
        "order table" one would join with in SQL)."""
        return dict(self._ranks)

    def __repr__(self) -> str:
        return f"ElementOrdering({self.description}, |ranked|={len(self._ranks)})"


def joint_frequencies(*relations: PreparedRelation) -> Dict[Any, int]:
    """Element -> number of groups containing it, summed over *relations*."""
    freq: Dict[Any, int] = {}
    for rel in relations:
        for e, n in rel.element_frequencies().items():
            freq[e] = freq.get(e, 0) + n
    return freq


def frequency_key(
    frequencies: Mapping[Any, int], tiebreak: Callable[[Any], Any] = repr
) -> Callable[[Any], Tuple[int, Any]]:
    """Sort key of the default order ``O``: rarest first, ties by repr — the
    one statement of the rule, shared by the rank table, the dictionary ids
    and the optimizer's sample sorts so that their prefixes coincide."""
    return lambda e: (frequencies[e], tiebreak(e))


def joint_frequency_ranks(*relations: PreparedRelation) -> Dict[Any, int]:
    """Rank table of the default order over the joint universe.

    When every argument is the same relation the table is memoized on it,
    so a self-join sorts its vocabulary once however many orderings and
    dictionaries are derived from it. Callers must not mutate the table.
    """
    owner = relations[0] if len(set(map(id, relations))) == 1 else None
    if owner is not None and owner._frequency_ranks is not None:
        return owner._frequency_ranks
    # One relation with itself ranks as it does alone (k·f orders as f): no merge.
    freq = owner.element_frequencies() if owner is not None else joint_frequencies(*relations)
    ranks = {e: i for i, e in enumerate(sorted(freq, key=frequency_key(freq)))}
    if owner is not None:
        owner._frequency_ranks = ranks
    return ranks


def frequency_ordering(*relations: PreparedRelation) -> ElementOrdering:
    """Increasing joint frequency — the paper's recommended order.

    Ties are broken by element repr so the order is stable across runs.
    """
    return ElementOrdering(
        joint_frequency_ranks(*relations), description="increasing-frequency"
    )


def reverse_frequency_ordering(*relations: PreparedRelation) -> ElementOrdering:
    """Decreasing frequency — the adversarial order, for the ablation.

    Keeps the most common elements in every prefix, maximizing candidate
    pairs; Lemma 1 still guarantees correctness.
    """
    freq = joint_frequencies(*relations)
    ranked = sorted(freq, key=lambda e: (-freq[e], repr(e)))
    return ElementOrdering(
        {e: i for i, e in enumerate(ranked)}, description="decreasing-frequency"
    )


def weight_ordering(
    weights: WeightTable, *relations: PreparedRelation
) -> ElementOrdering:
    """Decreasing IDF weight — the paper's actual implementation device.

    With IDF weights this coincides with increasing frequency over the
    fitted corpus; it differs only on tokens the weight table has not seen.
    """
    universe = set()
    for rel in relations:
        for wset in rel.groups.values():
            universe.update(wset.elements())
    ranked = sorted(universe, key=lambda e: (-weights.element_weight(e), repr(e)))
    return ElementOrdering(
        {e: i for i, e in enumerate(ranked)}, description="decreasing-weight"
    )


def random_ordering(
    seed: int, *relations: PreparedRelation
) -> ElementOrdering:
    """A random (but seeded, hence reproducible) total order — ablation."""
    universe = sorted(
        {e for rel in relations for wset in rel.groups.values() for e in wset.elements()},
        key=repr,
    )
    rng = random.Random(seed)
    rng.shuffle(universe)
    return ElementOrdering(
        {e: i for i, e in enumerate(universe)}, description=f"random(seed={seed})"
    )

"""Token dictionary: dense integer ids realizing the ordering ``O``.

Section 4.3.2 fixes a global total order over set elements and takes each
group's β-prefix under it. Every tuple-based plan realizes that order by
calling :meth:`ElementOrdering.key` once per element per sort — a Python-
level comparison in the hottest loop of Figures 10–13. The encoded
execution layer instead *interns* every element into a dense ``int`` id
assigned in increasing joint-frequency order, so that

* the ordering ``O`` **is** integer comparison (``id_1 < id_2`` iff the
  element of ``id_1`` precedes that of ``id_2`` under ``O``), and
* prefix extraction over a group whose ids are kept sorted is plain array
  slicing.

This is the substrate PPJoin-family systems assume (frequency-ranked
integer tokens; Xiao et al., WWW 2008) and what bitmap-filter approaches
build their dense bitsets over.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.ordering import ElementOrdering, frequency_key, joint_frequency_ranks
from repro.core.prepared import PreparedRelation
from repro.errors import ReproError
from repro.tokenize.sets import WeightedSet

__all__ = ["TokenDictionary"]


class TokenDictionary:
    """An immutable interning table ``element -> dense int id``.

    Ids are dense (``0 .. len-1``) and assigned in the order of the global
    ordering ``O``, so comparing ids compares elements under ``O``.

    >>> d = TokenDictionary.from_frequencies({"the": 3, "cat": 1})
    >>> d.id_of("cat") < d.id_of("the")   # rarer element ranks first
    True
    """

    __slots__ = ("_ids", "_elements", "description")

    def __init__(self, ids: Mapping[Any, int], description: str = "custom") -> None:
        self._ids: Dict[Any, int] = dict(ids)
        self.description = description
        if sorted(self._ids.values()) != list(range(len(self._ids))):
            raise ReproError("dictionary ids must be dense 0..n-1")
        self._elements: Optional[List[Any]] = None  # lazy inverse table

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_relations(
        cls,
        *relations: PreparedRelation,
        ordering: Optional[ElementOrdering] = None,
    ) -> "TokenDictionary":
        """Intern the joint universe of *relations*.

        With no *ordering*, the ids are
        :func:`repro.core.ordering.joint_frequency_ranks` — the rank table
        of :func:`~repro.core.ordering.frequency_ordering` — so the encoded
        plans' prefixes coincide with the tuple plans'. An explicit
        *ordering* (ablation orders, custom ranks) is honored instead.
        """
        if ordering is None:
            return cls(joint_frequency_ranks(*relations), description="joint-frequency")
        universe = {e: None for rel in relations for e in rel.element_frequencies()}
        ranked = sorted(universe, key=ordering.key)
        return cls(
            {e: i for i, e in enumerate(ranked)},
            description=f"ordering:{ordering.description}",
        )

    @classmethod
    def from_frequencies(
        cls,
        frequencies: Mapping[Any, int],
        tiebreak: Callable[[Any], Any] = repr,
    ) -> "TokenDictionary":
        """Intern a precomputed frequency histogram, rarest first."""
        ranked = sorted(frequencies, key=frequency_key(frequencies, tiebreak))
        return cls({e: i for i, e in enumerate(ranked)}, description="frequency")

    # -- lookups ---------------------------------------------------------------

    def id_of(self, element: Any) -> int:
        """The dense id of *element*; raises for un-interned elements."""
        try:
            return self._ids[element]
        except KeyError:
            raise ReproError(
                f"element {element!r} is not in the dictionary; encoded plans "
                "require a dictionary built over both join sides"
            ) from None

    def get(self, element: Any, default: Optional[int] = None) -> Optional[int]:
        return self._ids.get(element, default)

    def element_of(self, token_id: int) -> Any:
        """Invert an id back to its element (lazy inverse table)."""
        if self._elements is None:
            inverse: List[Any] = [None] * len(self._ids)
            for e, i in self._ids.items():
                inverse[i] = e
            self._elements = inverse
        return self._elements[token_id]

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, element: object) -> bool:
        return element in self._ids

    def covers(self, elements: Iterable[Any]) -> bool:
        """Whether every element is interned (cheap encodability probe)."""
        return all(e in self._ids for e in elements)

    # -- encoding --------------------------------------------------------------

    def encode_sorted(self, wset: WeightedSet) -> Tuple[array, array]:
        """Encode a weighted set as parallel ``(ids, weights)`` arrays.

        Ids come back ascending — i.e. the set is already sorted by the
        ordering ``O`` — so a β-prefix is a leading slice of both arrays.
        """
        ids = self._ids
        pairs = sorted((ids[e], w) for e, w in wset.items())
        return (
            array("q", [p[0] for p in pairs]),
            array("d", [p[1] for p in pairs]),
        )

    def to_ordering(self) -> ElementOrdering:
        """The equivalent :class:`ElementOrdering` (rank table = id table)."""
        return ElementOrdering(
            dict(self._ids), description=f"dictionary({self.description})"
        )

    def __repr__(self) -> str:
        return f"TokenDictionary({self.description}, |universe|={len(self._ids)})"

"""Inverted index over dictionary-encoded int ids.

``int id -> [(group pos, weight)]`` postings over an
:class:`~repro.core.encoded.EncodedPreparedRelation`.  No join plan
probes it; it is the in-memory form of the ``index/*`` segments a
``.rpsf`` page file persists, which :mod:`repro.storage.store` decodes
back into this class.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.encoded import EncodedPreparedRelation

__all__ = ["EncodedInvertedIndex"]


class EncodedInvertedIndex:
    """``int id -> [(right group pos, weight)]`` over an encoded relation."""

    __slots__ = ("encoded", "_postings")

    def __init__(self, encoded: EncodedPreparedRelation) -> None:
        self.encoded = encoded
        postings: Dict[int, List[Tuple[int, float]]] = {}
        for g, ids in enumerate(encoded.ids):
            weights = encoded.weights[g]
            for i, t in enumerate(ids):
                postings.setdefault(t, []).append((g, weights[i]))
        self._postings = postings

    def postings(self, token_id: int) -> List[Tuple[int, float]]:
        return self._postings.get(token_id, [])

    @property
    def num_elements(self) -> int:
        return len(self._postings)

    @property
    def num_postings(self) -> int:
        return sum(len(p) for p in self._postings.values())

    def __repr__(self) -> str:
        return (
            f"EncodedInvertedIndex(elements={self.num_elements}, "
            f"postings={self.num_postings})"
        )

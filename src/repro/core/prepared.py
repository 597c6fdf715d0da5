"""Normalized set representation: the ``R(A, B, norm)`` relations of Figure 1.

A :class:`PreparedRelation` is the "string to set" stage of Figure 2 made
concrete: each group key ``a`` (a string, record id, author name, …) is
associated with a weighted element set, materialized both

* relationally — a row ``(a, b, w, norm)`` per element, the First-Normal-Form
  representation the paper insists on (Section 2), consumed by the basic and
  prefix-filter plans; and
* as a dict of :class:`~repro.tokenize.sets.WeightedSet` — consumed by the
  verification stages and the inline-set plan.

The *norm* is configurable per the paper: string length, set cardinality,
or total set weight.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.tokenize.elements import ordinal_encode
from repro.tokenize.sets import WeightedSet
from repro.tokenize.weights import UnitWeights, WeightTable

__all__ = ["PreparedRelation", "NORM_WEIGHT", "NORM_CARDINALITY", "NORM_LENGTH"]

#: norm = total element weight of the set (Jaccard-style predicates).
NORM_WEIGHT = "weight"
#: norm = number of elements in the set.
NORM_CARDINALITY = "cardinality"
#: norm = length of the source string (edit-distance reduction).
NORM_LENGTH = "length"

#: Schema of every prepared relation, fixed so plans can rely on it.
PREPARED_SCHEMA = Schema(["a", "b", "w", "norm"])


class PreparedRelation:
    """Groups of weighted elements keyed by the join attribute ``A``."""

    def __init__(
        self,
        groups: Mapping[Any, WeightedSet],
        norms: Optional[Mapping[Any, float]] = None,
        name: str = "prepared",
    ) -> None:
        self.name = name
        self.groups: Dict[Any, WeightedSet] = dict(groups)
        if norms is None:
            self.norms: Dict[Any, float] = {a: s.norm for a, s in self.groups.items()}
        else:
            missing = set(self.groups) - set(norms)
            if missing:
                raise ReproError(f"norms missing for groups: {sorted(map(repr, missing))[:5]}")
            self.norms = {a: float(norms[a]) for a in self.groups}
        self._relation: Optional[Relation] = None
        self._fingerprint: Optional[int] = None
        self._num_elements: Optional[int] = None
        self._element_frequencies: Optional[Dict[Any, int]] = None
        #: memo of repro.core.ordering.joint_frequency_ranks(self, ...)
        self._frequency_ranks: Optional[Dict[Any, int]] = None

    # -- constructors ------------------------------------------------------------

    @classmethod
    def from_strings(
        cls,
        values: Iterable[str],
        tokenizer: Callable[[str], Sequence[Any]],
        weights: Optional[WeightTable] = None,
        norm: str = NORM_WEIGHT,
        name: str = "prepared",
    ) -> "PreparedRelation":
        """Prepare distinct strings: tokenize, ordinal-encode, weigh.

        Duplicate input strings collapse into one group (the SSJoin operator
        joins *distinct* values of ``A`` by definition).
        """
        table = weights if weights is not None else UnitWeights()
        groups: Dict[Any, WeightedSet] = {}
        norms: Dict[Any, float] = {}
        for value in values:
            if value in groups:
                continue
            elements = ordinal_encode(tokenizer(value))
            wset = WeightedSet({e: table.weight(e[0]) for e in elements})
            groups[value] = wset
            norms[value] = _norm_value(norm, value, wset)
        return cls(groups, norms, name=name)

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[Tuple[Any, Any]],
        weights: Optional[WeightTable] = None,
        norm: str = NORM_WEIGHT,
        name: str = "prepared",
    ) -> "PreparedRelation":
        """Prepare from explicit ``(a, b)`` pairs — the relational form.

        This is how non-textual joins (co-occurrence, soft FDs) enter
        SSJoin: the pairs *are* the normalized representation already, e.g.
        ``(author, paper_title)`` rows. Duplicate ``(a, b)`` pairs are
        ordinal-encoded into multiset elements.
        """
        table = weights if weights is not None else UnitWeights()
        by_group: Dict[Any, List[Any]] = {}
        for a, b in pairs:
            by_group.setdefault(a, []).append(b)
        groups: Dict[Any, WeightedSet] = {}
        norms: Dict[Any, float] = {}
        for a, tokens in by_group.items():
            elements = ordinal_encode(tokens)
            wset = WeightedSet({e: table.weight(e[0]) for e in elements})
            groups[a] = wset
            norms[a] = _norm_value(norm, a if isinstance(a, str) else "", wset)
        return cls(groups, norms, name=name)

    @classmethod
    def from_relation(
        cls,
        relation: Relation,
        weights: Optional[WeightTable] = None,
        norm: str = NORM_WEIGHT,
        name: Optional[str] = None,
    ) -> "PreparedRelation":
        """Re-prepare a First-Normal-Form relation produced by a plan.

        Accepts anything with at least ``a`` and ``b`` columns — a
        :class:`TableScan` over a normalized table, a filtered prepared
        view, or the output of an arbitrary subtree feeding an SSJoin
        node. When a ``w`` column is present it supplies the element
        weights (*weights* must then be ``None``); when a ``norm`` column
        is present it supplies the group norms, otherwise norms are
        recomputed per *norm*.
        """
        schema = relation.schema
        for required in ("a", "b"):
            if required not in schema:
                raise ReproError(
                    f"cannot prepare relation {relation.name!r}: missing "
                    f"column {required!r} (need at least a, b)"
                )
        pa = schema.position("a")
        pb = schema.position("b")
        pw = schema.position("w") if "w" in schema else None
        pn = schema.position("norm") if "norm" in schema else None
        if pw is not None and weights is not None:
            raise ReproError(
                "relation carries a 'w' column and an explicit weight "
                "table was given; use one source of weights, not both"
            )
        table = weights if weights is not None else UnitWeights()

        by_group: Dict[Any, List[Tuple[Any, Optional[float]]]] = {}
        norms_in: Dict[Any, float] = {}
        for row in relation.rows:
            a = row[pa]
            w = float(row[pw]) if pw is not None else None
            by_group.setdefault(a, []).append((row[pb], w))
            if pn is not None:
                norms_in[a] = float(row[pn])
        groups: Dict[Any, WeightedSet] = {}
        norms: Dict[Any, float] = {}
        for a, pairs in by_group.items():
            elements = ordinal_encode([b for b, _ in pairs])
            wset = WeightedSet(
                {
                    e: (w if w is not None else table.weight(e[0]))
                    for e, (_, w) in zip(elements, pairs)
                }
            )
            groups[a] = wset
            norms[a] = norms_in.get(a, _norm_value(norm, a if isinstance(a, str) else "", wset))
        return cls(groups, norms, name=name if name is not None else relation.name)

    @classmethod
    def from_sets(
        cls,
        groups: Mapping[Any, WeightedSet],
        norms: Optional[Mapping[Any, float]] = None,
        name: str = "prepared",
    ) -> "PreparedRelation":
        """Wrap pre-built weighted sets directly."""
        return cls(groups, norms, name=name)

    # -- views ---------------------------------------------------------------------

    @property
    def relation(self) -> Relation:
        """The normalized ``(a, b, w, norm)`` relation (built lazily, cached)."""
        if self._relation is None:
            rows: List[Tuple[Any, Any, float, float]] = []
            for a, wset in self.groups.items():
                n = self.norms[a]
                rows.extend((a, b, w, n) for b, w in wset.items())
            self._relation = Relation(PREPARED_SCHEMA, rows, name=self.name)
        return self._relation

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def num_elements(self) -> int:
        """Total rows of the normalized relation (memoized — groups are
        fixed after construction, and the executor reads this on every
        parallel dispatch)."""
        if self._num_elements is None:
            self._num_elements = sum(len(s) for s in self.groups.values())
        return self._num_elements

    def group(self, a: Any) -> WeightedSet:
        return self.groups[a]

    def norm(self, a: Any) -> float:
        return self.norms[a]

    def keys(self) -> Tuple[Any, ...]:
        return tuple(self.groups)

    def fingerprint(self) -> int:
        """Content hash over groups, weights, and norms (memoized).

        Two relations prepared from the same values with the same
        tokenizer and weight table fingerprint identically, which is what
        lets the encoding cache (:mod:`repro.core.encoded`) recognize a
        repeat workload across freshly-built instances. Hash collisions
        are possible, so cache consumers must verify content on a hit.
        """
        if self._fingerprint is None:
            self._fingerprint = hash(
                (
                    len(self.groups),
                    frozenset(
                        (a, wset, self.norms[a]) for a, wset in self.groups.items()
                    ),
                )
            )
        return self._fingerprint

    def element_frequencies(self) -> Dict[Any, int]:
        """How many groups contain each element (drives the ordering O).

        Memoized like :attr:`num_elements`; callers must not mutate it.
        """
        if self._element_frequencies is None:
            freq: Dict[Any, int] = {}
            for wset in self.groups.values():
                for e in wset:
                    freq[e] = freq.get(e, 0) + 1
            self._element_frequencies = freq
        return self._element_frequencies

    def __len__(self) -> int:
        return len(self.groups)

    def __repr__(self) -> str:
        return (
            f"<PreparedRelation {self.name!r} groups={self.num_groups} "
            f"elements={self.num_elements}>"
        )


def _norm_value(kind: str, source_string: str, wset: WeightedSet) -> float:
    if kind == NORM_WEIGHT:
        return wset.norm
    if kind == NORM_CARDINALITY:
        return float(len(wset))
    if kind == NORM_LENGTH:
        return float(len(source_string))
    raise ReproError(f"unknown norm kind {kind!r}; expected weight/cardinality/length")

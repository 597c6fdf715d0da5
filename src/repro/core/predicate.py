"""SSJoin overlap predicates (paper Definition 1).

An SSJoin predicate is a conjunction ``AND_i { Overlap_B(a_r, a_s) >= e_i }``
where each ``e_i`` is an expression over constants and the norms of the two
groups. Example 2 names the three shapes that matter in practice —
*absolute*, *1-sided normalized* and *2-sided normalized* overlap — and the
edit-distance reduction (Property 4) adds a ``max(norm_r, norm_s)`` form.

Every bound exposes, besides its exact value, per-side *lower bounds* given
only that side's norm. Lemma 1's prefix length for a group ``s`` is
``β = wt(s) − α``; when α is normalized the filter must use a sound lower
bound on α knowable from that side alone (Section 4.2's "Normalized Overlap
Predicates" discussion). A side whose lower bound is ⩽ 0 simply keeps its
whole set — which is exactly the paper's rule that a 1-sided predicate can
prefix-filter only the normalized side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.errors import PredicateError

__all__ = [
    "OVERLAP_EPSILON",
    "OVERLAP_RELATIVE_EPSILON",
    "OVERLAP_SHRINK",
    "prefix_beta",
    "Bound",
    "AbsoluteBound",
    "LeftNormBound",
    "RightNormBound",
    "MaxNormBound",
    "SumNormBound",
    "OverlapPredicate",
]


#: Absolute tolerance for overlap comparisons. Summing float weights in
#: different orders (equi-join + GROUP BY vs. threshold arithmetic) drifts
#: by ~1e-15 per element; every comparison in the operator — HAVING, the
#: inline UDF filter, and the prefix β — uses this same epsilon so all
#: three physical implementations agree on boundary pairs.
OVERLAP_EPSILON = 1e-9

#: Relative tolerance on top of OVERLAP_EPSILON. The drift is a few ulps
#: of the sum, so it grows with the weights: seven weights summing to
#: 4.6e6 differ by 2 ulps (1.9e-9) between two orders, past the absolute
#: epsilon, and a set could fail to match itself. Every comparison scales
#: its threshold by OVERLAP_SHRINK before subtracting OVERLAP_EPSILON.
OVERLAP_RELATIVE_EPSILON = 1e-12
OVERLAP_SHRINK = 1.0 - OVERLAP_RELATIVE_EPSILON


def prefix_beta(set_weight: float, bound: float) -> float:
    """Lemma 1's ``β = wt(s) − α``, widened by both overlap tolerances so
    that no pair :meth:`OverlapPredicate.satisfied` admits is pruned."""
    return set_weight - bound * OVERLAP_SHRINK + OVERLAP_EPSILON


class Bound:
    """One conjunct ``Overlap >= e_i``; subclasses define the expression."""

    def value(self, left_norm: float, right_norm: float) -> float:
        """The exact threshold ``e_i`` for a concrete pair of group norms."""
        raise NotImplementedError

    def lower_bound_left(self, left_norm: float) -> float:
        """Sound lower bound on ``e_i`` knowing only the left group's norm.

        Must satisfy ``lower_bound_left(l) <= value(l, r)`` for every r ⩾ 0.
        """
        raise NotImplementedError

    def lower_bound_right(self, right_norm: float) -> float:
        """Mirror of :meth:`lower_bound_left` for the right side."""
        raise NotImplementedError


@dataclass(frozen=True)
class AbsoluteBound(Bound):
    """``Overlap >= alpha`` for a constant alpha (Example 2, absolute)."""

    alpha: float

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise PredicateError(f"absolute overlap bound must be positive, got {self.alpha!r}")

    def value(self, left_norm: float, right_norm: float) -> float:
        return self.alpha

    def lower_bound_left(self, left_norm: float) -> float:
        return self.alpha

    def lower_bound_right(self, right_norm: float) -> float:
        return self.alpha

    def __repr__(self) -> str:
        return f"Overlap >= {self.alpha:g}"


@dataclass(frozen=True)
class LeftNormBound(Bound):
    """``Overlap >= fraction * norm(a_r) + offset`` (1-sided, R side).

    This is the Jaccard-containment reduction: ``JC(r, s) >= θ`` becomes
    ``Overlap >= θ·wt(Set(r))``.
    """

    fraction: float
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.fraction < 0:
            raise PredicateError(f"fraction must be non-negative, got {self.fraction!r}")

    def value(self, left_norm: float, right_norm: float) -> float:
        return self.fraction * left_norm + self.offset

    def lower_bound_left(self, left_norm: float) -> float:
        return self.fraction * left_norm + self.offset

    def lower_bound_right(self, right_norm: float) -> float:
        # Knows nothing about the left norm; only the constant part is sound.
        return self.offset

    def __repr__(self) -> str:
        text = f"Overlap >= {self.fraction:g}*R.norm"
        if self.offset:
            text += f" + {self.offset:g}"
        return text


@dataclass(frozen=True)
class RightNormBound(Bound):
    """``Overlap >= fraction * norm(a_s) + offset`` (1-sided, S side)."""

    fraction: float
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.fraction < 0:
            raise PredicateError(f"fraction must be non-negative, got {self.fraction!r}")

    def value(self, left_norm: float, right_norm: float) -> float:
        return self.fraction * right_norm + self.offset

    def lower_bound_left(self, left_norm: float) -> float:
        return self.offset

    def lower_bound_right(self, right_norm: float) -> float:
        return self.fraction * right_norm + self.offset

    def __repr__(self) -> str:
        text = f"Overlap >= {self.fraction:g}*S.norm"
        if self.offset:
            text += f" + {self.offset:g}"
        return text


@dataclass(frozen=True)
class MaxNormBound(Bound):
    """``Overlap >= fraction * max(norm_r, norm_s) + offset``.

    The edit-distance reduction (Property 4) is the instance
    ``Overlap >= max(|σ1|, |σ2|) − q + 1 − ε·q``, i.e. fraction 1 with
    offset ``1 − q − ε·q`` when norms hold string lengths.
    """

    fraction: float
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.fraction < 0:
            raise PredicateError(f"fraction must be non-negative, got {self.fraction!r}")

    def value(self, left_norm: float, right_norm: float) -> float:
        return self.fraction * max(left_norm, right_norm) + self.offset

    def lower_bound_left(self, left_norm: float) -> float:
        # max(l, r) >= l, so fraction*l + offset is a sound lower bound.
        return self.fraction * left_norm + self.offset

    def lower_bound_right(self, right_norm: float) -> float:
        return self.fraction * right_norm + self.offset

    def __repr__(self) -> str:
        text = f"Overlap >= {self.fraction:g}*max(R.norm, S.norm)"
        if self.offset:
            text += f" + {self.offset:g}"
        return text


@dataclass(frozen=True)
class SumNormBound(Bound):
    """``Overlap >= f_l·norm_r + f_r·norm_s + offset`` (both norms, linear).

    The hamming-distance reduction is the instance
    ``HD(s1, s2) ≤ k  ⇔  Overlap ≥ (wt(s1) + wt(s2) − k)/2``, i.e.
    fractions ``(0.5, 0.5)`` with offset ``−k/2``.
    """

    left_fraction: float
    right_fraction: float
    offset: float = 0.0

    def __post_init__(self) -> None:
        if self.left_fraction < 0 or self.right_fraction < 0:
            raise PredicateError(
                f"fractions must be non-negative, got "
                f"({self.left_fraction!r}, {self.right_fraction!r})"
            )

    def value(self, left_norm: float, right_norm: float) -> float:
        return self.left_fraction * left_norm + self.right_fraction * right_norm + self.offset

    def lower_bound_left(self, left_norm: float) -> float:
        # Non-negative right fraction: the bound is minimized at norm_s = 0.
        return self.left_fraction * left_norm + self.offset

    def lower_bound_right(self, right_norm: float) -> float:
        return self.right_fraction * right_norm + self.offset

    def __repr__(self) -> str:
        return (
            f"Overlap >= {self.left_fraction:g}*R.norm + "
            f"{self.right_fraction:g}*S.norm + {self.offset:g}"
        )


class OverlapPredicate:
    """A conjunction of :class:`Bound` conjuncts.

    Since every conjunct must hold, the effective overlap threshold for a
    pair is the **maximum** of the bound values. Constructors for the three
    shapes of Example 2 are provided as classmethods.

    Note on degenerate thresholds: equi-join-based SSJoin implementations
    can only ever observe pairs sharing at least one element, so pairs whose
    effective threshold is ⩽ 0 (which are satisfied vacuously) are *not*
    produced unless they overlap. Callers with such degenerate pairs (e.g.
    very short strings under the edit-distance reduction) must handle them
    out of band — see :mod:`repro.joins.edit_join`.
    """

    def __init__(self, bounds: Iterable[Bound]) -> None:
        self.bounds: Tuple[Bound, ...] = tuple(bounds)
        if not self.bounds:
            raise PredicateError("an SSJoin predicate needs at least one bound")
        for b in self.bounds:
            if not isinstance(b, Bound):
                raise PredicateError(f"{b!r} is not a Bound")

    def __eq__(self, other: object) -> bool:
        # Content equality: bounds are frozen dataclasses, so two predicates
        # built from the same parameters (e.g. two_sided(0.85) twice) compare
        # equal — prefix-length caches key on the predicate and must hit
        # across equal instances, not just the identical object.
        if not isinstance(other, OverlapPredicate):
            return NotImplemented
        return type(self) is type(other) and self.bounds == other.bounds

    def __hash__(self) -> int:
        return hash((type(self), self.bounds))

    # -- constructors for the paper's named forms ------------------------------

    @classmethod
    def absolute(cls, alpha: float) -> "OverlapPredicate":
        """Example 2 bullet 1: ``Overlap_B(a_r, a_s) >= alpha``."""
        return cls([AbsoluteBound(alpha)])

    @classmethod
    def one_sided(cls, fraction: float, side: str = "left") -> "OverlapPredicate":
        """Example 2 bullet 2: ``Overlap >= fraction · norm`` of one side."""
        if side == "left":
            return cls([LeftNormBound(fraction)])
        if side == "right":
            return cls([RightNormBound(fraction)])
        raise PredicateError(f"side must be 'left' or 'right', got {side!r}")

    @classmethod
    def two_sided(cls, fraction: float) -> "OverlapPredicate":
        """Example 2 bullet 3: overlap ⩾ fraction of *both* norms."""
        return cls([LeftNormBound(fraction), RightNormBound(fraction)])

    @classmethod
    def max_norm(cls, fraction: float, offset: float = 0.0) -> "OverlapPredicate":
        """``Overlap >= fraction·max(norms) + offset`` (edit-join form)."""
        return cls([MaxNormBound(fraction, offset)])

    # -- evaluation ------------------------------------------------------------

    def threshold(self, left_norm: float, right_norm: float) -> float:
        """Effective overlap threshold for a pair: max over conjunct values."""
        return max(b.value(left_norm, right_norm) for b in self.bounds)

    def satisfied(self, overlap: float, left_norm: float, right_norm: float) -> bool:
        """Does an observed overlap satisfy every conjunct?

        The two tolerances absorb float round-off from summing weights in
        a different order than the threshold arithmetic.
        """
        return overlap + OVERLAP_EPSILON >= self.admission_threshold(left_norm, right_norm)

    def admission_threshold(self, left_norm: float, right_norm: float) -> float:
        """:meth:`threshold` less its relative tolerance: the value that
        ``overlap + OVERLAP_EPSILON`` must reach."""
        return self.threshold(left_norm, right_norm) * OVERLAP_SHRINK

    def left_filter_threshold(self, left_norm: float) -> float:
        """Sound overlap lower bound for prefix-filtering a left group."""
        return max(b.lower_bound_left(left_norm) for b in self.bounds)

    def right_filter_threshold(self, right_norm: float) -> float:
        """Sound overlap lower bound for prefix-filtering a right group."""
        return max(b.lower_bound_right(right_norm) for b in self.bounds)

    def __repr__(self) -> str:
        return " AND ".join(repr(b) for b in self.bounds)

"""Shard planning: tile the encoded-prefix join's token-id space.

The dictionary id space ``[0, |universe|)`` is tiled into contiguous
ranges, and each shard owns the slice of the prefix inverted index whose
token ids fall in its range (the PPJoin-family token sharding; Vernica
et al.'s prefix-token MapReduce join).  A candidate pair can share
prefix tokens across several ranges; the shard owning the pair's
*smallest* common prefix token id emits it (every shard can decide
ownership locally because it holds both sides' full id arrays), so
candidate enumeration never duplicates pairs.

The planner's output is checked by the ``SSJ108`` invariant rule
(:func:`repro.analysis.invariants.verify_shards`): the ranges must tile
the dictionary ordering without gap or overlap.

Ranges are cut at ~equal estimated cost (per-token posting products),
and the executor plans several shards per worker so its largest-first
dispatch can absorb skew from heavy tokens.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.errors import PlanError

__all__ = ["ShardDescriptor", "plan_token_range_shards"]


@dataclass(frozen=True)
class ShardDescriptor:
    """One unit of parallel work: the token-id range ``[lo, hi)``.

    ``est_cost`` is the planner's relative cost estimate, used for
    largest-first dispatch — comparisons only, no unit.
    """

    shard_id: int
    lo: int = 0
    hi: int = 0
    est_cost: float = 0.0
    #: Positions of the left/right groups whose β-prefix intersects
    #: ``[lo, hi)``, ascending, with the parallel entry in ``*_starts``
    #: giving the offset of the group's first in-range prefix token.  The
    #: planner records both during the same prefix walk that builds its
    #: cost histogram, so a worker visits only the groups that can
    #: contribute to its range — and starts each walk at the right offset
    #: with no per-group bisects.  ``None`` (not planned, e.g. a hand-built
    #: descriptor) falls back to scanning every group.
    left_groups: Optional[Tuple[int, ...]] = None
    right_groups: Optional[Tuple[int, ...]] = None
    left_starts: Optional[Tuple[int, ...]] = None
    right_starts: Optional[Tuple[int, ...]] = None

    def __repr__(self) -> str:
        return f"<Shard {self.shard_id} ids[{self.lo}:{self.hi}) cost~{self.est_cost:.0f}>"


def plan_token_range_shards(
    left_ids: Sequence[Sequence[int]],
    left_prefix: Sequence[int],
    right_ids: Sequence[Sequence[int]],
    right_prefix: Sequence[int],
    universe: int,
    n_shards: int,
) -> List[ShardDescriptor]:
    """Tile the dictionary id space into ~cost-equal contiguous ranges.

    The per-token cost estimate is the prefix-filter equi-join work that
    token induces: ``rp(t)`` postings to index plus ``lp(t) * rp(t)``
    probe hits, where ``lp``/``rp`` count the token's occurrences in the
    left/right *prefixes*.  Ranges are cut whenever the running cost
    passes an equal share, so a single heavy token may own a whole shard
    — exactly what largest-first dispatch wants to see early.
    """
    if n_shards < 1:
        raise PlanError(f"n_shards must be >= 1, got {n_shards}")
    if universe <= 0:
        return []
    lp = [0] * universe
    rp = [0] * universe
    for g, k in enumerate(right_prefix):
        for t in right_ids[g][:k]:
            rp[t] += 1
    for g, k in enumerate(left_prefix):
        for t in left_ids[g][:k]:
            lp[t] += 1
    # Cost of owning token t — only tokens that occur in some prefix can
    # induce work, so the cut walk is sparse: zero-cost ids between two
    # occupied tokens just ride along with whichever range covers them.
    # (Prefixes keep each group's rarest tokens, so the occupied set is
    # far smaller than the id space and one dense filtering pass beats a
    # per-id cost walk.)
    occupied = [t for t in range(universe) if rp[t] or lp[t]]
    n = min(n_shards, universe)
    if occupied:
        total = sum(rp[t] * (1 + lp[t]) for t in occupied)
        n = min(n, len(occupied))
    else:
        total = 0.0
    share = total / n if n else 0.0

    shards: List[ShardDescriptor] = []
    lo = 0
    acc = 0.0
    for i, t in enumerate(occupied):
        acc += rp[t] * (1 + lp[t])
        remaining_cuts = n - len(shards) - 1
        # Cut when the share is met, but always leave enough occupied
        # tokens for the remaining shards so no shard comes out empty.
        if (
            remaining_cuts > 0
            and acc >= share
            and (len(occupied) - (i + 1)) >= remaining_cuts
        ):
            shards.append(
                ShardDescriptor(
                    shard_id=len(shards),
                    lo=lo, hi=t + 1, est_cost=acc,
                )
            )
            lo = t + 1
            acc = 0.0
    shards.append(
        ShardDescriptor(
            shard_id=len(shards),
            lo=lo, hi=universe, est_cost=acc,
        )
    )

    # Second pass: per-shard intersecting-group lists, so each worker
    # walks only the groups that can touch its range (the naive
    # alternative — every shard bisecting every group — is O(G·S) and
    # dominates shard runtime once shards outnumber heavy tokens).
    # Prefix ids are ascending within a group, so consecutive ids map to
    # non-decreasing shard ids and a last-appended check dedups.
    token_shard = [0] * universe
    for s in shards:
        token_shard[s.lo : s.hi] = [s.shard_id] * (s.hi - s.lo)
    left_lists: List[List[int]] = [[] for _ in shards]
    right_lists: List[List[int]] = [[] for _ in shards]
    left_starts: List[List[int]] = [[] for _ in shards]
    right_starts: List[List[int]] = [[] for _ in shards]
    for lists, starts, all_ids, prefix in (
        (right_lists, right_starts, right_ids, right_prefix),
        (left_lists, left_starts, left_ids, left_prefix),
    ):
        for g, k in enumerate(prefix):
            last = -1
            for pos, t in enumerate(all_ids[g][:k]):
                sid = token_shard[t]
                if sid != last:
                    lists[sid].append(g)
                    starts[sid].append(pos)
                    last = sid
    return [
        replace(s, left_groups=tuple(left_lists[s.shard_id]),
                right_groups=tuple(right_lists[s.shard_id]),
                left_starts=tuple(left_starts[s.shard_id]),
                right_starts=tuple(right_starts[s.shard_id]))
        for s in shards
    ]

"""Prefix-filtered SSJoin implementation (paper Figure 8).

Pipeline, exactly as in the figure:

1. **prefix-filter(R)**, **prefix-filter(S)** — each group keeps only its
   ``β``-prefix under the global ordering ``O`` where
   ``β = wt(Set(a)) − α̂(a)`` and ``α̂`` is the sound per-side lower bound of
   the predicate threshold (Lemma 1 + Section 4.2's normalized-predicate
   rules).
2. Equi-join the two small filtered relations on ``B`` and project the
   distinct ⟨R.A, S.A⟩ **candidate pairs** ``T``.
3. Join ``T`` back with the *base* relations ``R`` and ``S`` to regroup the
   full element sets of each candidate pair.
4. Group by pair and apply the HAVING overlap check — identical to the
   basic plan's finish, but over a far smaller input.

The prefix extraction is the groupwise-processing operator of Section 4.3.3
specialized to "mark the prefix of each group while scanning groups ordered
by (A, O)"; :func:`prefix_filter_relation` streams groups that way.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.basic import _having_expr
from repro.core.metrics import (
    PHASE_FILTER,
    PHASE_PREFIX,
    PHASE_PREP,
    PHASE_SSJOIN,
    ExecutionMetrics,
)
from repro.core.ordering import ElementOrdering, frequency_ordering
from repro.core.predicate import OverlapPredicate
from repro.core.prefixes import group_prefix
from repro.core.prepared import PreparedRelation
from repro.relational.aggregates import agg_sum, group_by
from repro.relational.expressions import col
from repro.relational.joins import hash_join
from repro.relational.relation import Relation
from repro.relational.schema import Schema

__all__ = ["prefix_filter_relation", "prefix_filtered_ssjoin"]

_FILTERED_SCHEMA = Schema(["a", "b", "w", "norm"])


def prefix_filter_relation(
    prepared: PreparedRelation,
    predicate: OverlapPredicate,
    ordering: ElementOrdering,
    side: str,
) -> Relation:
    """``prefix-filter(R, pred)``: one row per kept prefix element.

    *side* is ``"left"`` or ``"right"`` and selects which per-side threshold
    lower bound applies. Groups whose β is negative (they can never satisfy
    the predicate) vanish entirely; groups with a non-restrictive bound pass
    through whole.
    """
    bound_fn = (
        predicate.left_filter_threshold if side == "left" else predicate.right_filter_threshold
    )
    rows: List[Tuple] = []
    for a, wset in prepared.groups.items():
        norm = prepared.norms[a]
        kept = group_prefix(wset, norm, bound_fn, ordering.key)
        rows.extend((a, b, wset.weight(b), norm) for b in kept)
    return Relation(_FILTERED_SCHEMA, rows, name=f"prefix({prepared.name})")


def prefix_filtered_ssjoin(
    left: PreparedRelation,
    right: PreparedRelation,
    predicate: OverlapPredicate,
    ordering: Optional[ElementOrdering] = None,
    metrics: Optional[ExecutionMetrics] = None,
) -> Relation:
    """Execute the Figure 8 plan; returns a :data:`RESULT_SCHEMA` relation."""
    m = metrics if metrics is not None else ExecutionMetrics()
    m.implementation = "prefix"

    with m.phase(PHASE_PREP):
        base_r = left.relation.rename({"a": "a_r", "b": "b_r", "w": "w_r", "norm": "norm_r"})
        base_s = right.relation.rename({"a": "a_s", "b": "b_s", "w": "w_s", "norm": "norm_s"})
        m.prepared_rows += len(base_r) + len(base_s)
        if ordering is None:
            ordering = frequency_ordering(left, right)

    with m.phase(PHASE_PREFIX):
        pr = prefix_filter_relation(left, predicate, ordering, side="left")
        ps = prefix_filter_relation(right, predicate, ordering, side="right")
        m.prefix_rows += len(pr) + len(ps)

    with m.phase(PHASE_SSJOIN):
        # Candidate enumeration: tiny equi-join of the two prefixes.
        matched = hash_join(
            pr.rename({"a": "a_r", "b": "b", "w": "w_r_p", "norm": "norm_r_p"}),
            ps.rename({"a": "a_s", "b": "b_s", "w": "w_s_p", "norm": "norm_s_p"}),
            keys=[("b", "b_s")],
        )
        candidates = matched.project(["a_r", "a_s"]).distinct()
        m.candidate_pairs += len(candidates)

        # Regroup: join candidates back with both base relations (the extra
        # joins the inline variant exists to avoid). The base sides are
        # renamed first so the join outputs have no column-name clashes.
        with_r = hash_join(
            candidates,
            base_r.rename({"a_r": "ra"}),
            keys=[("a_r", "ra")],
        ).project(["a_r", "a_s", "b_r", "w_r", "norm_r"])
        full = hash_join(
            with_r,
            base_s.rename({"a_s": "sa"}),
            keys=[("a_s", "sa"), ("b_r", "b_s")],
        )
        m.equijoin_rows += len(full)

    with m.phase(PHASE_FILTER):
        grouped = group_by(
            full,
            keys=["a_r", "norm_r", "a_s", "norm_s"],
            aggregates=[agg_sum("overlap", col("w_r"))],
            having=_having_expr(predicate, "overlap", "norm_r", "norm_s"),
        )
        result = grouped.project(["a_r", "a_s", "overlap", "norm_r", "norm_s"])
        m.output_pairs += len(result)
    return result

"""Basic SSJoin implementation (paper Figure 7).

The plan is literally the SQL the paper describes::

    SELECT R.A, S.A, SUM(R.w) AS overlap
    FROM   R JOIN S ON R.B = S.B
    GROUP BY R.A, R.norm, S.A, S.norm
    HAVING SUM(R.w) >= <predicate threshold>

Any ⟨R.A, S.A⟩ pair with non-zero overlap appears in the equi-join; grouping
sums the weights of the joined elements (which *is* the overlap, thanks to
the ordinal multiset encoding); HAVING applies the overlap predicate. The
weakness the paper highlights — the equi-join explodes when frequent tokens
("the", "inc") appear on both sides — is visible in the
``equijoin_rows`` metric.
"""

from __future__ import annotations

from typing import Optional

from repro.core.metrics import (
    PHASE_PREP,
    PHASE_SSJOIN,
    ExecutionMetrics,
)
from repro.core.predicate import OVERLAP_EPSILON, OverlapPredicate
from repro.core.prepared import PreparedRelation
from repro.relational.aggregates import agg_sum, group_by
from repro.relational.expressions import Expr, FunctionCall, col
from repro.relational.joins import hash_join
from repro.relational.relation import Relation
from repro.relational.schema import Schema

__all__ = ["basic_ssjoin", "RESULT_SCHEMA"]

#: Output schema shared by every SSJoin implementation.
RESULT_SCHEMA = Schema(["a_r", "a_s", "overlap", "norm_r", "norm_s"])


def _having_expr(
    predicate: OverlapPredicate, overlap_col: str, lnorm_col: str, rnorm_col: str
) -> Expr:
    """HAVING: overlap (+ε for float round-off) >= predicate threshold —
    :meth:`OverlapPredicate.satisfied` as an expression."""
    threshold = FunctionCall(
        "THRESHOLD", predicate.admission_threshold, (col(lnorm_col), col(rnorm_col))
    )
    return (col(overlap_col) + OVERLAP_EPSILON) >= threshold


def basic_ssjoin(
    left: PreparedRelation,
    right: PreparedRelation,
    predicate: OverlapPredicate,
    metrics: Optional[ExecutionMetrics] = None,
) -> Relation:
    """Execute the Figure 7 plan; returns a :data:`RESULT_SCHEMA` relation.

    Only pairs sharing at least one element can be produced (see the
    degenerate-threshold note on :class:`OverlapPredicate`).
    """
    m = metrics if metrics is not None else ExecutionMetrics()
    m.implementation = "basic"

    with m.phase(PHASE_PREP):
        r = left.relation.rename({"a": "a_r", "b": "b", "w": "w_r", "norm": "norm_r"})
        s = right.relation.rename({"a": "a_s", "b": "b_s", "w": "w_s", "norm": "norm_s"})
        m.prepared_rows += len(r) + len(s)

    with m.phase(PHASE_SSJOIN):
        joined = hash_join(r, s, keys=[("b", "b_s")])
        m.equijoin_rows += len(joined)

        grouped = group_by(
            joined,
            keys=["a_r", "norm_r", "a_s", "norm_s"],
            aggregates=[agg_sum("overlap", col("w_r"))],
            having=_having_expr(predicate, "overlap", "norm_r", "norm_s"),
        )
        # Candidate pairs in the basic plan = all non-zero-overlap pairs,
        # i.e. the number of groups before HAVING. Recover it from the join
        # result cheaply via a distinct count.
        m.candidate_pairs += len(joined.project(["a_r", "a_s"]).distinct())
        result = grouped.project(["a_r", "a_s", "overlap", "norm_r", "norm_s"])
        m.output_pairs += len(result)
    return result

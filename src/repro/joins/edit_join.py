"""Edit-distance / edit-similarity joins via SSJoin (paper Section 3.1).

The reduction is Property 4 (from Gravano et al. [9]): strings within edit
distance ε share at least ``max(|σ1|, |σ2|) − q + 1 − ε·q`` q-grams. With
the prepared relations carrying string *length* as the norm, that is the
SSJoin predicate ``Overlap ≥ max(norm_r, norm_s) − (q − 1) − ε·q`` — a
:class:`~repro.core.predicate.MaxNormBound`. Candidates are then verified
with the exact (banded, early-exit) edit-distance UDF, per Figure 3.

Degenerate pairs — both strings so short that the bound is non-positive —
cannot be found by any equi-join (they may share no q-gram at all), so they
are verified by brute force among the short strings only. This mirrors how
the customized algorithm of [9] special-cases short strings.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.metrics import PHASE_FILTER, PHASE_PREP, ExecutionMetrics
from repro.core.predicate import MaxNormBound, OverlapPredicate
from repro.core.prepared import NORM_LENGTH, PreparedRelation
from repro.errors import PredicateError
from repro.joins.base import (
    MatchPair,
    SimilarityJoinResult,
    canonical_self_pairs,
    compose_join_plan,
    run_join_plan,
    similarity_udf,
)
from repro.sim.edit import edit_distance_within, edit_similarity
from repro.tokenize.qgrams import qgrams

__all__ = ["edit_distance_join", "edit_similarity_join"]


def _prepare(
    values: Sequence[str], q: int, name: str
) -> PreparedRelation:
    return PreparedRelation.from_strings(
        values, lambda s: qgrams(s, q), norm=NORM_LENGTH, name=name
    )


def _short_string_pairs(
    left_short: Sequence[str],
    right_short: Sequence[str],
    budget_fn,
    metrics: ExecutionMetrics,
) -> List[Tuple[str, str]]:
    """Brute-force verification among degenerate (short) strings."""
    out: List[Tuple[str, str]] = []
    for a in left_short:
        for b in right_short:
            metrics.similarity_comparisons += 1
            if edit_distance_within(a, b, budget_fn(a, b)) is not None:
                out.append((a, b))
    return out


def edit_distance_join(
    left: Sequence[str],
    right: Optional[Sequence[str]] = None,
    epsilon: int = 1,
    q: int = 3,
    implementation: str = "auto",
    workers: Optional[int] = None,
) -> SimilarityJoinResult:
    """All pairs within edit distance *epsilon* (the form addressed in [9]).

    *right=None* performs a self-join of *left* returning each unordered
    pair once, identity pairs excluded.

    >>> res = edit_distance_join(["microsoft", "mcrosoft", "oracle"], epsilon=1)
    >>> res.pair_set()
    {('mcrosoft', 'microsoft')}
    """
    if epsilon < 0:
        raise PredicateError(f"epsilon must be non-negative, got {epsilon}")
    self_join = right is None
    right_values = left if self_join else right
    metrics = ExecutionMetrics()

    # Bound: Overlap >= max(len) - (q-1) - eps*q; degenerate when
    # max(len) <= (q-1) + eps*q.
    offset = float(1 - q - epsilon * q)
    cutoff = (q - 1) + epsilon * q

    with metrics.phase(PHASE_PREP):
        pl = _prepare(left, q, "R")
        pr = pl if self_join else _prepare(right_values, q, "S")
        left_short = [v for v in pl.keys() if len(v) <= cutoff]
        right_short = [v for v in pr.keys() if len(v) <= cutoff]

    # Figure 3: q-gram SSJoin candidates, verified by the exact banded
    # edit-distance UDF as the plan's Select stage.
    plan, node = compose_join_plan(
        pl,
        pr,
        OverlapPredicate([MaxNormBound(1.0, offset)]),
        implementation=implementation,
        keep=similarity_udf(
            "ED_WITHIN",
            lambda a, b: edit_distance_within(a, b, epsilon) is not None,
            "a_r", "a_s",
            metrics=metrics,
        ),
        project=("a_r", "a_s"),
    )
    relation, result = run_join_plan(plan, node, metrics=metrics, workers=workers)

    with metrics.phase(PHASE_FILTER):
        pairs: List[Tuple[str, str]] = list(relation.rows)
        pairs.extend(
            _short_string_pairs(
                left_short, right_short, lambda a, b: epsilon, metrics
            )
        )

    final = canonical_self_pairs(pairs, symmetric=True) if self_join else sorted(
        set(pairs), key=repr
    )
    matches = [MatchPair(a, b, edit_similarity(a, b)) for a, b in final]
    metrics.result_pairs = len(matches)
    return SimilarityJoinResult(
        pairs=matches,
        metrics=metrics,
        implementation=result.implementation,
        threshold=float(epsilon),
    )


def edit_similarity_join(
    left: Sequence[str],
    right: Optional[Sequence[str]] = None,
    threshold: float = 0.8,
    q: int = 3,
    implementation: str = "auto",
    workers: Optional[int] = None,
) -> SimilarityJoinResult:
    """All pairs with edit similarity ⩾ *threshold* (Definition 2).

    ``ES ≥ θ ⇔ ED ≤ (1−θ)·max(len)``; substituting that per-pair ε into
    Property 4 gives the SSJoin bound
    ``Overlap ≥ (1 − q(1−θ))·max(norms) − (q − 1)``. The bound's norm
    fraction must be positive, which requires ``θ > 1 − 1/q`` (e.g.
    θ > 2/3 at q = 3); below that the q-gram filter prunes nothing and the
    caller should use :func:`repro.joins.direct.direct_join` instead.
    """
    if not 0.0 < threshold <= 1.0:
        raise PredicateError(f"threshold must be in (0, 1], got {threshold}")
    fraction = 1.0 - q * (1.0 - threshold)
    if fraction <= 0.0:
        raise PredicateError(
            f"edit-similarity threshold {threshold} is too low for q={q} "
            f"(needs threshold > {1 - 1/q:.3f}); use a smaller q or a direct join"
        )
    self_join = right is None
    right_values = left if self_join else right
    metrics = ExecutionMetrics()

    offset = float(1 - q)
    # Degenerate when fraction*max(len) + offset <= 0.
    cutoff = int((q - 1) / fraction)

    with metrics.phase(PHASE_PREP):
        pl = _prepare(left, q, "R")
        pr = pl if self_join else _prepare(right_values, q, "S")
        left_short = [v for v in pl.keys() if len(v) <= cutoff]
        right_short = [v for v in pr.keys() if len(v) <= cutoff]

    def budget(a: str, b: str) -> int:
        return int((1.0 - threshold) * max(len(a), len(b)) + 1e-9)

    plan, node = compose_join_plan(
        pl,
        pr,
        OverlapPredicate([MaxNormBound(fraction, offset)]),
        implementation=implementation,
        keep=similarity_udf(
            "ED_WITHIN",
            lambda a, b: edit_distance_within(a, b, budget(a, b)) is not None,
            "a_r", "a_s",
            metrics=metrics,
        ),
        project=("a_r", "a_s"),
    )
    relation, result = run_join_plan(plan, node, metrics=metrics, workers=workers)

    with metrics.phase(PHASE_FILTER):
        pairs: List[Tuple[str, str]] = list(relation.rows)
        pairs.extend(_short_string_pairs(left_short, right_short, budget, metrics))

    final = canonical_self_pairs(pairs, symmetric=True) if self_join else sorted(
        set(pairs), key=repr
    )
    matches = [MatchPair(a, b, edit_similarity(a, b)) for a, b in final]
    metrics.result_pairs = len(matches)
    return SimilarityJoinResult(
        pairs=matches,
        metrics=metrics,
        implementation=result.implementation,
        threshold=threshold,
    )

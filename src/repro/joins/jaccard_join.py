"""Jaccard containment and resemblance joins (paper Section 3.2, Figure 4).

Containment translates *exactly* into a 1-sided normalized SSJoin —
"this translation does not require a post-processing step". Resemblance
uses ``JR ≥ α ⇒ JC(r, s) ≥ α ∧ JC(s, r) ≥ α`` (since JC ⩾ JR in both
directions), i.e. the 2-sided predicate, plus a resemblance check computable
directly from the SSJoin output columns (overlap and both norms) — no
re-tokenization needed.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Union

from repro.core.metrics import PHASE_FILTER, PHASE_PREP, ExecutionMetrics
from repro.core.predicate import OverlapPredicate
from repro.core.prepared import NORM_WEIGHT, PreparedRelation
from repro.errors import PredicateError
from repro.joins.base import (
    SimilarityJoinResult,
    compose_join_plan,
    finalize_matches,
    run_join_plan,
    similarity_udf,
)
from repro.relational.expressions import col
from repro.tokenize.weights import IDFWeights, WeightTable
from repro.tokenize.words import words

__all__ = ["jaccard_containment_join", "jaccard_resemblance_join", "resolve_weights"]

Tokenizer = Callable[[str], Sequence[Any]]


def resolve_weights(
    weights: Union[str, WeightTable, None],
    tokenizer: Tokenizer,
    left: Sequence[str],
    right: Sequence[str],
) -> Optional[WeightTable]:
    """Resolve the weights argument shared by the token-based joins.

    ``"idf"`` fits the paper's IDF formula over both sides; ``None`` gives
    unit weights; a :class:`WeightTable` is used as-is.
    """
    if weights is None:
        return None
    if isinstance(weights, WeightTable):
        return weights
    if weights == "idf":
        return IDFWeights.fit_two(
            (tokenizer(v) for v in left), (tokenizer(v) for v in right)
        )
    raise PredicateError(f"unknown weights spec {weights!r}; expected 'idf', None, or a table")


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold <= 1.0:
        raise PredicateError(f"threshold must be in (0, 1], got {threshold}")


def jaccard_containment_join(
    left: Sequence[str],
    right: Optional[Sequence[str]] = None,
    threshold: float = 0.8,
    tokenizer: Tokenizer = words,
    weights: Union[str, WeightTable, None] = "idf",
    implementation: str = "auto",
    workers: Optional[int] = None,
) -> SimilarityJoinResult:
    """Pairs with ``JC(Set(l), Set(r)) ≥ threshold`` (Definition 5.1).

    Containment is asymmetric, so a self-join keeps both directions of
    every non-identity pair. The SSJoin predicate is exact; the reported
    similarity is ``overlap / norm_r`` read off the operator output.
    """
    _check_threshold(threshold)
    self_join = right is None
    right_values = left if self_join else right
    metrics = ExecutionMetrics()

    with metrics.phase(PHASE_PREP):
        table = resolve_weights(weights, tokenizer, left, right_values)
        pl = PreparedRelation.from_strings(
            left, tokenizer, weights=table, norm=NORM_WEIGHT, name="R"
        )
        pr = (
            pl
            if self_join
            else PreparedRelation.from_strings(
                right_values, tokenizer, weights=table, norm=NORM_WEIGHT, name="S"
            )
        )

    # Figure 4 left panel: the 1-sided predicate is exact, so the plan has
    # no Select stage — just the containment score read off the output.
    plan, node = compose_join_plan(
        pl,
        pr,
        OverlapPredicate.one_sided(threshold, side="left"),
        implementation=implementation,
        drop_identity=self_join,
        similarity=similarity_udf(
            "JC", lambda overlap, norm: overlap / norm if norm else 1.0,
            "overlap", "norm_r",
        ),
    )
    relation, result = run_join_plan(plan, node, metrics=metrics, workers=workers)

    with metrics.phase(PHASE_FILTER):
        return finalize_matches(
            relation.rows,
            metrics=metrics,
            implementation=result.implementation,
            threshold=threshold,
            self_join=self_join,
            symmetric=False,
            sort=True,
        )


def jaccard_resemblance_join(
    left: Sequence[str],
    right: Optional[Sequence[str]] = None,
    threshold: float = 0.8,
    tokenizer: Tokenizer = words,
    weights: Union[str, WeightTable, None] = "idf",
    implementation: str = "auto",
    workers: Optional[int] = None,
) -> SimilarityJoinResult:
    """Pairs with ``JR(Set(l), Set(r)) ≥ threshold`` (Definition 5.2).

    Figure 4 right panel: the 2-sided containment SSJoin produces the
    candidates; the resemblance filter
    ``overlap / (norm_r + norm_s − overlap) ≥ θ`` runs on the operator
    output columns.
    """
    _check_threshold(threshold)
    self_join = right is None
    right_values = left if self_join else right
    metrics = ExecutionMetrics()

    with metrics.phase(PHASE_PREP):
        table = resolve_weights(weights, tokenizer, left, right_values)
        pl = PreparedRelation.from_strings(
            left, tokenizer, weights=table, norm=NORM_WEIGHT, name="R"
        )
        pr = (
            pl
            if self_join
            else PreparedRelation.from_strings(
                right_values, tokenizer, weights=table, norm=NORM_WEIGHT, name="S"
            )
        )

    # Figure 4 right panel: candidates from the 2-sided containment
    # SSJoin, then the resemblance check as a Select over the operator's
    # own output columns — no re-tokenization.
    def resemblance(overlap: float, norm_r: float, norm_s: float) -> float:
        union = norm_r + norm_s - overlap
        return overlap / union if union else 1.0

    plan, node = compose_join_plan(
        pl,
        pr,
        OverlapPredicate.two_sided(threshold),
        implementation=implementation,
        similarity=similarity_udf(
            "JR", resemblance, "overlap", "norm_r", "norm_s", metrics=metrics
        ),
        keep=col("similarity") + 1e-9 >= threshold,
    )
    relation, result = run_join_plan(plan, node, metrics=metrics, workers=workers)

    with metrics.phase(PHASE_FILTER):
        return finalize_matches(
            relation.rows,
            metrics=metrics,
            implementation=result.implementation,
            threshold=threshold,
            self_join=self_join,
            symmetric=True,
            default=0.0,
        )

"""Cosine similarity join via SSJoin.

Cosine similarity is among the functions the paper's introduction names
(custom join algorithms for it existed: Gravano et al. [8], Cohen [6]);
like the others it reduces to a thresholded overlap predicate.

Reduction (distinct-token sets, token weight ``w_t``): give each element
the weight ``w_t²``. Then the prepared norm is ``‖u‖² = Σ w_t²`` and the
SSJoin overlap equals the dot product ``Σ_{shared} w_t²``, so

    cos(u, v) = overlap / sqrt(norm_r · norm_s).

Soundness of the 2-sided filter: ``overlap ≤ min(norm_r, norm_s)`` gives
``θ ≤ cos ≤ sqrt(norm_s / norm_r)``, hence ``norm_s ≥ θ²·norm_r`` (and
symmetrically), so ``overlap ≥ θ·sqrt(norm_r·norm_s) ≥ θ²·max(norms)`` —
the paper's 2-sided normalized predicate with fraction θ². The exact
cosine is then computed from the operator's output columns alone; no
re-tokenization, no UDF over raw strings.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Optional, Sequence, Union

from repro.core.metrics import PHASE_FILTER, PHASE_PREP, ExecutionMetrics
from repro.core.predicate import OverlapPredicate
from repro.core.prepared import PreparedRelation
from repro.errors import PredicateError
from repro.joins.base import (
    SimilarityJoinResult,
    compose_join_plan,
    finalize_matches,
    run_join_plan,
    similarity_udf,
)
from repro.joins.jaccard_join import resolve_weights
from repro.relational.expressions import col
from repro.tokenize.sets import WeightedSet
from repro.tokenize.weights import UnitWeights, WeightTable
from repro.tokenize.words import words

__all__ = ["cosine_join"]

Tokenizer = Callable[[str], Sequence[Any]]


def _prepare_squared(
    values: Sequence[str],
    tokenizer: Tokenizer,
    table: WeightTable,
    name: str,
) -> PreparedRelation:
    """Distinct-token sets with squared weights (see module docstring)."""
    groups: Dict[str, WeightedSet] = {}
    for value in dict.fromkeys(values):
        tokens = list(dict.fromkeys(tokenizer(value)))
        groups[value] = WeightedSet({t: table.weight(t) ** 2 for t in tokens})
    return PreparedRelation.from_sets(groups, name=name)


def cosine_join(
    left: Sequence[str],
    right: Optional[Sequence[str]] = None,
    threshold: float = 0.8,
    tokenizer: Tokenizer = words,
    weights: Union[str, WeightTable, None] = "idf",
    implementation: str = "auto",
    workers: Optional[int] = None,
) -> SimilarityJoinResult:
    """Pairs whose binary (set-of-tokens) cosine similarity is ⩾ *threshold*.

    Token vectors are binary-with-weights: component ``w_t`` for each
    distinct token the string contains (term frequency is deliberately not
    modeled — set semantics, like the rest of the operator).

    >>> res = cosine_join(["a b c", "a b d", "x y"], threshold=0.6, weights=None)
    >>> res.pair_set()
    {('a b c', 'a b d')}
    """
    if not 0.0 < threshold <= 1.0:
        raise PredicateError(f"threshold must be in (0, 1], got {threshold}")
    self_join = right is None
    right_values = left if self_join else right
    metrics = ExecutionMetrics()

    with metrics.phase(PHASE_PREP):
        table = resolve_weights(weights, tokenizer, left, right_values) or UnitWeights()
        pl = _prepare_squared(left, tokenizer, table, "R")
        pr = pl if self_join else _prepare_squared(right_values, tokenizer, table, "S")

    # cos(u, v) = overlap / sqrt(norm_r·norm_s) over the squared-weight
    # preparation (module docstring); exactness comes from the Select.
    def cosine(overlap: float, norm_r: float, norm_s: float) -> float:
        denominator = math.sqrt(norm_r * norm_s)
        return overlap / denominator if denominator else 1.0

    plan, node = compose_join_plan(
        pl,
        pr,
        OverlapPredicate.two_sided(threshold * threshold),
        implementation=implementation,
        similarity=similarity_udf(
            "COS", cosine, "overlap", "norm_r", "norm_s", metrics=metrics
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
        )

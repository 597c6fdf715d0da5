"""Generalized edit similarity join via set expansion (paper Section 3.3).

The reduction sketched in Example 4: expand each R-side token set with all
dictionary tokens whose (token-level) edit similarity with a member token
is at least β (< α). If ``GES(σ1, σ2) ≥ α`` then the expanded set of σ1
overlaps ``Set(σ2)`` substantially, so an SSJoin over the expanded sets is
a candidate filter, and the exact GES UDF verifies candidates.

The quantitative bound implemented (the paper omits its own "intricate
details"): in any optimal transformation, a source token that is deleted or
replaced by a token farther than β costs at least ``(1 − β)·wt(t)``, so the
weight of such tokens is at most ``(1 − α)·wt(σ1)/(1 − β)``; the remaining
("near") tokens have a β-close partner in ``Set(σ2)``, which by
construction lies in the expanded set. Expanded elements carry their
*source* token's weight, so the SSJoin overlap (summed in R-side weights)
is at least ``(1 − (1 − α)/(1 − β))·wt(σ1)`` — a 1-sided normalized
predicate. Token-set semantics make the bound heuristic in the rare case
that two distinct near tokens share their closest σ2 partner; the exact UDF
keeps the final answer sound, and the test suite checks completeness
against the brute-force oracle on realistic corpora.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

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
from repro.sim.edit import edit_distance_within
from repro.sim.ges import ges
from repro.tokenize.sets import WeightedSet
from repro.tokenize.weights import UnitWeights, WeightTable
from repro.tokenize.words import word_set, words

__all__ = ["expand_tokens", "ges_join"]


def expand_tokens(
    tokens: Sequence[str],
    dictionary: Sequence[str],
    beta: float,
) -> Dict[str, str]:
    """Map each β-close dictionary token to a closest source token.

    Returns ``{dictionary_token: source_token}`` for every dictionary token
    whose edit similarity with some source token is ⩾ β (source tokens map
    to themselves). A length-difference filter and the banded edit DP keep
    this cheap.
    """
    out: Dict[str, str] = {t: t for t in tokens}
    for candidate in dictionary:
        if candidate in out:
            continue
        clen = len(candidate)
        for t in tokens:
            longest = max(clen, len(t))
            budget = int((1.0 - beta) * longest + 1e-9)
            if abs(clen - len(t)) > budget:
                continue
            if edit_distance_within(candidate, t, budget) is not None:
                out[candidate] = t
                break
    return out


def ges_join(
    left: Sequence[str],
    right: Optional[Sequence[str]] = None,
    threshold: float = 0.8,
    beta: Optional[float] = None,
    weights: Union[str, WeightTable, None] = "idf",
    implementation: str = "auto",
    workers: Optional[int] = None,
) -> SimilarityJoinResult:
    """Pairs with ``GES(l, r) ≥ threshold`` (Definition 6; asymmetric).

    Parameters
    ----------
    beta:
        Token expansion similarity threshold, strictly below *threshold*
        (the paper's β < α). Defaults to ``2·threshold − 1`` clamped to
        [0.5, threshold − 0.05], balancing expansion size against filter
        strength.
    """
    if not 0.0 < threshold <= 1.0:
        raise PredicateError(f"threshold must be in (0, 1], got {threshold}")
    if beta is None:
        beta = min(max(2.0 * threshold - 1.0, 0.5), threshold - 0.05)
    if not 0.0 < beta < threshold:
        raise PredicateError(f"beta must satisfy 0 < beta < threshold, got beta={beta}")

    self_join = right is None
    right_values = left if self_join else right
    metrics = ExecutionMetrics()

    with metrics.phase(PHASE_PREP):
        table = resolve_weights(weights, words, left, right_values) or UnitWeights()

        left_tokens = {v: word_set(v) for v in dict.fromkeys(left)}
        right_tokens = (
            left_tokens
            if self_join
            else {v: word_set(v) for v in dict.fromkeys(right_values)}
        )
        dictionary = sorted(
            {t for toks in right_tokens.values() for t in toks}
        )

        # Expanded R-side groups: dictionary tokens β-close to a member,
        # carrying the member's weight (kept maximal on collision so the
        # filter never undercounts a legitimate match).
        left_groups: Dict[str, WeightedSet] = {}
        left_norms: Dict[str, float] = {}
        for value, tokens in left_tokens.items():
            expansion = expand_tokens(tokens, dictionary, beta)
            weights_map: Dict[str, float] = {}
            for expanded, source in expansion.items():
                w = table.weight(source)
                if weights_map.get(expanded, 0.0) < w:
                    weights_map[expanded] = w
            left_groups[value] = (
                WeightedSet(weights_map) if weights_map else WeightedSet({})
            )
            # The norm stays wt(Set(σ1)) — the *unexpanded* weight — since
            # that is what both GES and the derived bound normalize by.
            left_norms[value] = sum(table.weight(t) for t in tokens)

        pl = PreparedRelation.from_sets(left_groups, left_norms, name="R-expanded")
        right_groups = {
            value: WeightedSet({t: table.weight(t) for t in tokens})
            for value, tokens in right_tokens.items()
        }
        pr = PreparedRelation.from_sets(right_groups, name="S")

    fraction = 1.0 - (1.0 - threshold) / (1.0 - beta)
    if fraction <= 0.0:
        raise PredicateError(
            f"derived filter fraction is non-positive (threshold={threshold}, "
            f"beta={beta}); raise beta or threshold"
        )
    # Figure 3 shape: SSJoin over the expanded sets is only a candidate
    # filter; the exact GES UDF runs as the plan's similarity stage (after
    # the identity drop, so comparison counts match the old loop).
    plan, node = compose_join_plan(
        pl,
        pr,
        OverlapPredicate.one_sided(fraction, side="left"),
        implementation=implementation,
        drop_identity=self_join,
        similarity=similarity_udf(
            "GES", lambda a, b: ges(a, b, weights=table), "a_r", "a_s",
            metrics=metrics,
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
            symmetric=False,
            sort=True,
        )

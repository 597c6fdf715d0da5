"""Shared result types and helpers for similarity joins.

Every similarity join in this package follows the Figure 2 template:

1. map strings/records to prepared set relations,
2. run the SSJoin operator with a predicate guaranteeing a candidate
   superset,
3. apply the exact similarity function as a post-filter (when the SSJoin
   predicate is not already exact).

They all return a :class:`SimilarityJoinResult` carrying the matched pairs
with their exact similarity scores plus the :class:`ExecutionMetrics` of the
run, so benchmarks can report the paper's phase breakdowns and comparison
counts uniformly.

Degenerate inputs: a string that tokenizes to the *empty set* never joins
with anything — an empty group shares no element with any other group, so
no equi-join (or index probe) can observe the pair. This is the operator's
semantics, applied uniformly by all four physical implementations; the raw
similarity functions may still assign such pairs a nonzero score (e.g.
``JR(∅, ∅) = 1`` by convention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from repro.core.metrics import ExecutionMetrics
from repro.core.physical import SSJoinResult
from repro.core.predicate import OverlapPredicate
from repro.core.prepared import PreparedRelation
from repro.relational.context import ExecutionContext
from repro.relational.expressions import Expr, FunctionCall, col
from repro.relational.plan import (
    Extend,
    PlanNode,
    PreparedInput,
    Project,
    Select,
    SSJoinNode,
)
from repro.relational.relation import Relation

__all__ = [
    "MatchPair",
    "SimilarityJoinResult",
    "canonical_self_pairs",
    "similarity_udf",
    "compose_join_plan",
    "run_join_plan",
    "finalize_matches",
]


@dataclass(frozen=True)
class MatchPair:
    """One matched pair with its exact similarity score."""

    left: Any
    right: Any
    similarity: float

    def as_tuple(self) -> Tuple[Any, Any]:
        return (self.left, self.right)


@dataclass
class SimilarityJoinResult:
    """Pairs surviving the exact similarity check, plus run telemetry."""

    pairs: List[MatchPair]
    metrics: ExecutionMetrics
    implementation: str
    threshold: float

    def pair_set(self) -> set:
        return {p.as_tuple() for p in self.pairs}

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def top(self, n: int = 10) -> List[MatchPair]:
        """The *n* highest-similarity pairs."""
        return sorted(self.pairs, key=lambda p: (-p.similarity, repr(p.as_tuple())))[:n]


def similarity_udf(
    name: str,
    fn: Callable[..., Any],
    *columns: str,
    metrics: Optional[ExecutionMetrics] = None,
) -> FunctionCall:
    """Wrap a per-pair UDF as a scalar expression over result columns.

    With *metrics*, every evaluation counts as one similarity comparison —
    the accounting the hand-rolled post-filter loops used to do inline.
    """
    if metrics is None:
        return FunctionCall(name, fn, tuple(col(c) for c in columns))

    def counted(*args: Any) -> Any:
        metrics.similarity_comparisons += 1
        return fn(*args)

    return FunctionCall(name, counted, tuple(col(c) for c in columns))


def compose_join_plan(
    left: PreparedRelation,
    right: PreparedRelation,
    predicate: OverlapPredicate,
    implementation: str = "auto",
    drop_identity: bool = False,
    similarity: Optional[Expr] = None,
    keep: Optional[Expr] = None,
    project: Sequence[str] = ("a_r", "a_s", "similarity"),
) -> Tuple[PlanNode, SSJoinNode]:
    """Compose the Figure 2 operator tree for one similarity join.

    ``SSJoin → σ(a_r ≠ a_s) → π̂(similarity := ...) → σ(keep) → π`` — the
    exact-similarity post-filter of each join expressed as plan operators
    over the SSJoin output columns instead of a hand-rolled row loop.
    Returns the plan root plus the :class:`SSJoinNode` (whose
    ``last_result`` carries the chosen implementation after execution).
    """
    left_leaf = PreparedInput(left)
    right_leaf = left_leaf if right is left else PreparedInput(right)
    node = SSJoinNode(left_leaf, right_leaf, predicate, implementation=implementation)
    plan: PlanNode = node
    if drop_identity:
        plan = Select(plan, col("a_r").ne(col("a_s")))
    if similarity is not None:
        plan = Extend(plan, "similarity", similarity)
    if keep is not None:
        plan = Select(plan, keep)
    if project:
        plan = Project(plan, list(project))
    return plan, node


def run_join_plan(
    plan: PlanNode,
    node: SSJoinNode,
    metrics: Optional[ExecutionMetrics] = None,
    workers: Optional[int] = None,
) -> Tuple[Relation, SSJoinResult]:
    """Execute a composed join plan under one :class:`ExecutionContext`."""
    relation = plan.execute(ExecutionContext(metrics=metrics, workers=workers))
    result = node.last_result
    assert result is not None  # the plan contains node, so it has run
    return relation, result


def finalize_matches(
    rows: Iterable[Tuple[Any, Any, float]],
    metrics: ExecutionMetrics,
    implementation: str,
    threshold: float,
    self_join: bool,
    symmetric: bool,
    default: float = 1.0,
    sort: bool = False,
) -> SimilarityJoinResult:
    """Canonicalize scored ``(left, right, similarity)`` rows into a result.

    Symmetric self-joins keep each unordered pair once; asymmetric (or
    two-relation) joins keep every surviving direction. With *sort* the
    final pair list is put in deterministic repr order; otherwise the
    canonical first-seen order is kept.
    """
    rows = list(rows)
    raw = [(a, b) for a, b, _ in rows]
    scored = {(a, b): s for a, b, s in rows}
    if self_join:
        final = canonical_self_pairs(raw, symmetric=symmetric)
    else:
        final = sorted(set(raw), key=repr)
    if sort:
        final = sorted(final, key=repr)
    matches = [
        MatchPair(a, b, scored.get((a, b), scored.get((b, a), default)))
        for a, b in final
    ]
    metrics.result_pairs = len(matches)
    return SimilarityJoinResult(
        pairs=matches,
        metrics=metrics,
        implementation=implementation,
        threshold=threshold,
    )


def canonical_self_pairs(
    pairs: Iterable[Tuple[Any, Any]], symmetric: bool
) -> List[Tuple[Any, Any]]:
    """Normalize self-join output.

    Identity pairs (a, a) are always dropped. For a *symmetric* similarity
    function each unordered pair is kept once (left < right by repr); for an
    asymmetric one (containment, GES) both directions are kept.
    """
    out: List[Tuple[Any, Any]] = []
    seen = set()
    for a, b in pairs:
        if a == b:
            continue
        if symmetric:
            key = (a, b) if repr(a) <= repr(b) else (b, a)
            if key in seen:
                continue
            seen.add(key)
            out.append(key)
        else:
            out.append((a, b))
    return out

"""The physical layer of the SSJoin operator.

:class:`~repro.relational.plan.SSJoinNode` is purely logical — it states
*what* joins (two normalized set relations under an overlap predicate), not
*how*. This module is the how: :func:`execute_physical` rewrites the
logical node into one of the concrete implementations

================  ==========================================================
``basic``         element equi-join + GROUP BY/HAVING (Figure 3)
``prefix``        prefix-filtered candidate join + regroup verify (Figure 5)
``inline``        prefix join carrying inlined sets, UDF verify (Section 3.2)
``probe``         inverted-index probe with suffix completion ([13]-style)
``encoded-prefix``  dictionary-encoded prefix plan + bitmap verify engine
================  ==========================================================

selected either explicitly or by the cost model over
:mod:`repro.relational.stats` histograms (``implementation="auto"``, which
prices every plan but ``probe``, the by-name referee). All
run-scoped configuration — metrics, cost model, worker pool, encoding
cache, verify tuning — comes from one
:class:`~repro.relational.context.ExecutionContext` rather than ad-hoc
keyword plumbing, so an SSJoin node inside a larger plan tree shares state
with every other node of the plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

from repro.core.basic import basic_ssjoin
from repro.core.encoded_prefix import encoded_prefix_ssjoin
from repro.core.index import index_probe_ssjoin
from repro.core.inline import inline_ssjoin
from repro.core.metrics import ExecutionMetrics
from repro.core.optimizer import (
    CostEstimate,
    choose_implementation,
    unknown_implementation,
)
from repro.core.ordering import ElementOrdering, frequency_ordering
from repro.core.predicate import OverlapPredicate
from repro.core.prefix_filter import prefix_filtered_ssjoin
from repro.core.prepared import PreparedRelation
from repro.relational.context import ExecutionContext
from repro.relational.relation import Relation

__all__ = ["SSJoinResult", "execute_physical", "execute_ssjoin_node"]


@dataclass(frozen=True)
class SSJoinResult:
    """Outcome of one SSJoin execution.

    ``parallel`` is the :class:`repro.parallel.ParallelReport` when the
    run went through the parallel executor (typed ``Any``: repro.parallel
    layers above this module), ``None`` for plain sequential runs.
    """

    pairs: Relation
    metrics: ExecutionMetrics
    implementation: str
    cost_estimate: Optional[CostEstimate] = None
    parallel: Optional[Any] = None

    def pair_tuples(self) -> List[Tuple[Any, Any]]:
        """The matched ⟨a_r, a_s⟩ pairs as plain tuples."""
        ar = self.pairs.schema.position("a_r")
        as_ = self.pairs.schema.position("a_s")
        return [(row[ar], row[as_]) for row in self.pairs.rows]

    def pair_set(self) -> set:
        return set(self.pair_tuples())

    def __len__(self) -> int:
        return len(self.pairs)


def execute_physical(
    left: PreparedRelation,
    right: PreparedRelation,
    predicate: OverlapPredicate,
    implementation: str = "auto",
    ordering: Optional[ElementOrdering] = None,
    encoding: Optional[Tuple[Any, Any]] = None,
    context: Optional[ExecutionContext] = None,
    ordering_cache: Optional[List[Optional[ElementOrdering]]] = None,
) -> SSJoinResult:
    """Run the physical rewrite of one logical SSJoin.

    Parameters
    ----------
    implementation:
        One of :data:`repro.core.optimizer.IMPLEMENTATIONS`, or
        ``"auto"`` to let the cost model decide.
    ordering:
        The element ordering as the *user* supplied it — ``None`` when
        defaulted. Plans that need a concrete ordering build the default
        frequency ordering lazily; the encoded plans key their encoding
        cache on the user's value so the lazily-built default never
        fragments the key.
    encoding:
        Optional prebuilt ``(left, right)`` encoding pair for the encoded
        plans; both sides must share one TokenDictionary.
    context:
        The run's :class:`ExecutionContext`. ``context.verify`` runs the
        static invariant verifier (SSJ1xx) first; ``context.workers``
        routes through the parallel executor; ``context.metrics``,
        ``context.cost_model``, ``context.verify_config`` and
        ``context.encoding_cache`` configure the rewrite itself.
    ordering_cache:
        Optional one-slot list memoizing the built default ordering
        across executions (the facade and plan nodes pass their own).
    """
    ctx = ExecutionContext.of(context)

    def built_ordering() -> ElementOrdering:
        if ordering is not None:
            return ordering
        if ordering_cache is not None and ordering_cache[0] is not None:
            return ordering_cache[0]
        o = frequency_ordering(left, right)
        if ordering_cache is not None:
            ordering_cache[0] = o
        return o

    if ctx.verify:
        # Imported here: repro.analysis depends on repro.core.
        from repro.analysis.invariants import check_ssjoin

        check_ssjoin(
            left,
            right,
            predicate,
            ordering=ordering,
            implementation=implementation,
            encoding=encoding,
        )
    if ctx.workers is not None:
        # Imported here: repro.parallel layers above repro.core.
        from repro.parallel.executor import parallel_ssjoin

        result = parallel_ssjoin(
            left,
            right,
            predicate,
            workers=ctx.workers,
            implementation=implementation,
            ordering=ordering,
            metrics=ctx._metrics,
            cost_model=ctx.cost_model,
            verify_config=ctx.verify_config,
            encoding_cache=ctx.encoding_cache,
        )
        if result.implementation == "encoded-prefix":
            cache = ctx.encoding_cache
            if cache is None:
                from repro.core.encoded import global_encoding_cache

                cache = global_encoding_cache()
            result.metrics.extra["encoding_cache"] = cache.stats()
        return result
    m = ctx.metrics
    estimate: Optional[CostEstimate] = None
    impl = implementation
    if impl == "auto":
        # Planning needs no built ordering (the optimizer sorts its sample
        # by the frequency key itself); a tuple plan, if chosen, builds it.
        known = ordering
        if known is None and ordering_cache is not None:
            known = ordering_cache[0]
        estimate = choose_implementation(
            left, right, predicate, known, model=ctx.cost_model
        )
        impl = estimate.implementation

    enc = encoding
    if enc is None and ctx.encoding_cache is not None and impl == "encoded-prefix":
        # A context-scoped cache overrides the process-global one, so
        # plans sharing a context also share their encodings.
        l_enc, r_enc, _ = ctx.encoding_cache.encode_pair(left, right, ordering, m)
        enc = (l_enc, r_enc)

    if impl == "basic":
        pairs = basic_ssjoin(left, right, predicate, metrics=m)
    elif impl == "prefix":
        pairs = prefix_filtered_ssjoin(
            left, right, predicate, ordering=built_ordering(), metrics=m
        )
    elif impl == "inline":
        pairs = inline_ssjoin(
            left, right, predicate, ordering=built_ordering(),
            metrics=m, verify_config=ctx.verify_config,
        )
    elif impl == "probe":
        pairs = index_probe_ssjoin(
            left, right, predicate, ordering=built_ordering(), metrics=m
        )
    elif impl == "encoded-prefix":
        # The encoded plan takes the *user's* ordering (None when it
        # defaulted): the dictionary's joint-frequency ids already
        # realize the default ordering, and None keys the encoding
        # cache consistently across executions.
        pairs = encoded_prefix_ssjoin(
            left, right, predicate,
            ordering=ordering, metrics=m,
            encoding=enc,
            verify_config=ctx.verify_config,
        )
    else:
        raise unknown_implementation(implementation)
    if impl == "encoded-prefix":
        cache = ctx.encoding_cache
        if cache is None:
            from repro.core.encoded import global_encoding_cache

            cache = global_encoding_cache()
        m.extra["encoding_cache"] = cache.stats()
    return SSJoinResult(pairs=pairs, metrics=m, implementation=impl, cost_estimate=estimate)


def execute_ssjoin_node(node: Any, context: ExecutionContext) -> SSJoinResult:
    """Execute a logical :class:`~repro.relational.plan.SSJoinNode`.

    Resolves both children to PreparedRelations (identity-preserving for
    :class:`~repro.relational.plan.PreparedInput` leaves) and hands off to
    :func:`execute_physical`. The built default ordering is memoized on
    the node, so repeated executions of one plan don't re-derive it.
    """
    left, right = node.resolve_sides(context)
    cache = getattr(node, "_built_ordering_cache", None)
    if cache is None:
        cache = [None]
        node._built_ordering_cache = cache
    return execute_physical(
        left,
        right,
        node.predicate,
        implementation=node.implementation,
        ordering=node.ordering,
        encoding=node.encoding,
        context=context,
        ordering_cache=cache,
    )

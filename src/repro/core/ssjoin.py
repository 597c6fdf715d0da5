"""The SSJoin operator facade — a thin shim over the plan layer.

Since the Layer-7 refactor, the operator itself lives in the plan layer:
:class:`SSJoin` builds a one-node logical plan
(:class:`repro.relational.plan.SSJoinNode` over
:class:`~repro.relational.plan.PreparedInput` leaves) and executes it
against an :class:`~repro.relational.context.ExecutionContext` assembled
from its keyword arguments. The historical call shape — and its results,
metrics and chosen implementations — are preserved exactly; the facade
remains the convenient entry point for joining two prepared relations
without writing a plan tree by hand. :func:`ssjoin` is the one-call
functional form.

Result rows are ``(a_r, a_s, overlap, norm_r, norm_s)``; see
:data:`repro.core.basic.RESULT_SCHEMA`.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple, Union

from repro.core.encoded import EncodedPreparedRelation
from repro.core.metrics import ExecutionMetrics
from repro.core.optimizer import (
    CostModel,
    choose_implementation,
    unknown_implementation,
)
from repro.core.ordering import ElementOrdering, frequency_ordering
from repro.core.physical import SSJoinResult
from repro.core.predicate import OverlapPredicate
from repro.core.prepared import PreparedRelation
from repro.core.verify import VerifyConfig
from repro.relational.context import ExecutionContext
from repro.relational.plan import PreparedInput, SSJoinNode

__all__ = ["SSJoinResult", "SSJoin", "ssjoin"]


class SSJoin:
    """``R SSJoin_A S`` with a fixed overlap predicate.

    >>> from repro.tokenize.words import words
    >>> r = PreparedRelation.from_strings(["microsoft corp"], words)
    >>> s = PreparedRelation.from_strings(["microsoft corporation"], words)
    >>> op = SSJoin(r, s, OverlapPredicate.absolute(1.0))
    >>> op.execute("basic").pair_tuples()
    [('microsoft corp', 'microsoft corporation')]
    """

    def __init__(
        self,
        left: PreparedRelation,
        right: PreparedRelation,
        predicate: OverlapPredicate,
        ordering: Optional[ElementOrdering] = None,
        encoding: Optional[
            Tuple["EncodedPreparedRelation", "EncodedPreparedRelation"]
        ] = None,
    ) -> None:
        self.left = left
        self.right = right
        self.predicate = predicate
        # The ordering as the *user* supplied it (None when defaulted) —
        # the encoded plans key their encoding cache on this, so that the
        # lazily-built default frequency ordering never fragments the key.
        self._user_ordering = ordering
        # One-slot memo shared with the plan node: the built default
        # ordering, reused across repeated executions of this facade.
        self._ordering_slot: List[Optional[ElementOrdering]] = [ordering]
        # Optional prebuilt (left, right) encoding pair for the encoded
        # plans. Both sides must share one TokenDictionary and encode the
        # *current* contents of left/right — `verify=True` checks both.
        self._encoding = encoding
        self._node: Optional[SSJoinNode] = None

    @property
    def ordering(self) -> ElementOrdering:
        """The global element ordering (built lazily, frequency-based)."""
        if self._ordering_slot[0] is None:
            self._ordering_slot[0] = frequency_ordering(self.left, self.right)
        return self._ordering_slot[0]

    def plan(self, implementation: str = "auto") -> SSJoinNode:
        """The one-node logical plan this facade executes (cached)."""
        if self._node is None:
            left = PreparedInput(self.left)
            right = left if self.right is self.left else PreparedInput(self.right)
            self._node = SSJoinNode(
                left,
                right,
                self.predicate,
                implementation=implementation,
                ordering=self._user_ordering,
                encoding=self._encoding,
            )
            # Share the facade's ordering memo with the physical layer.
            self._node._built_ordering_cache = self._ordering_slot
        else:
            self._node.implementation = implementation
        return self._node

    def execute(
        self,
        implementation: str = "auto",
        metrics: Optional[ExecutionMetrics] = None,
        cost_model: Optional[CostModel] = None,
        verify: bool = False,
        workers: Optional[Union[int, str]] = None,
        verify_config: Optional[VerifyConfig] = None,
        encoding_cache: Any = None,
    ) -> SSJoinResult:
        """Run the join with the named (or cost-chosen) implementation.

        Parameters
        ----------
        implementation:
            One of :data:`repro.core.optimizer.IMPLEMENTATIONS`, or
            ``"auto"`` to let the cost model decide among the plans it
            prices (every one but ``"probe"``, the by-name referee).
        metrics:
            Optional pre-existing metrics object to accumulate into
            (multi-stage joins pass their own).
        verify:
            Run the static invariant verifier
            (:func:`repro.analysis.check_ssjoin`) before executing:
            Lemma-1 bound soundness, ordering/dictionary coherence of any
            prebuilt encoding, float-equality and verify-step audits. An
            unsafe plan raises :class:`repro.errors.AnalysisError` with
            structured diagnostics instead of running.
        workers:
            ``None`` (default) runs sequentially.  An ``int >= 1`` or
            ``"auto"`` routes through :func:`repro.parallel.parallel_ssjoin`:
            work is sharded across that many processes (``"auto"`` sizes
            from the cost model and falls back to sequential below the
            crossover, so it never regresses small joins).  Parallel
            results are bit-identical to sequential and canonically
            sorted regardless of worker count.
        verify_config:
            Tuning for the bitmap-signature verification engine
            (:class:`repro.core.verify.VerifyConfig`) used by the
            ``inline`` and encoded plans (and their parallel shards):
            ``None`` resolves the signature width automatically,
            ``VerifyConfig.disabled()`` reproduces the unfiltered
            verify step exactly.  Results are identical either way —
            the engine only prunes candidates that cannot qualify.
        encoding_cache:
            A context-scoped :class:`~repro.core.encoded.EncodingCache`
            (possibly with a persistent tier attached) overriding the
            process-global one for the encoded plans; ``None`` keeps the
            global cache.
        """
        node = self.plan(implementation)
        context = ExecutionContext(
            metrics=metrics,
            cost_model=cost_model,
            verify_config=verify_config,
            workers=workers,
            verify=verify,
            encoding_cache=encoding_cache,
        )
        node.execute(context)
        return node.last_result

    def explain(self, implementation: str = "auto") -> str:
        """Describe the physical plan that :meth:`execute` would run."""
        impl = implementation
        note = ""
        if impl == "auto":
            estimate = choose_implementation(
                self.left, self.right, self.predicate, self._ordering_slot[0]
            )
            impl = estimate.implementation
            note = f"  -- chosen by cost model: {estimate!r}\n"
        shapes = {
            "basic": (
                "GroupBy(a_r, a_s) HAVING overlap >= pred\n"
                "  HashJoin(R.b = S.b)\n"
                "    Scan(R normalized)\n"
                "    Scan(S normalized)"
            ),
            "prefix": (
                "GroupBy(a_r, a_s) HAVING overlap >= pred\n"
                "  HashJoin(candidates x R x S regroup)\n"
                "    Distinct(a_r, a_s)\n"
                "      HashJoin(prefix(R).b = prefix(S).b)\n"
                "        PrefixFilter(R, beta = wt - pred_lb)\n"
                "        PrefixFilter(S, beta = wt - pred_lb)"
            ),
            "inline": (
                "Filter(encoded_overlap(set_r, set_s) >= pred)\n"
                "  Distinct(a_r, set_r, a_s, set_s)\n"
                "    HashJoin(prefix(R).b = prefix(S).b)\n"
                "      InlinePrefixFilter(R, carries encoded set)\n"
                "      InlinePrefixFilter(S, carries encoded set)"
            ),
            "probe": (
                "Filter(overlap >= pred)\n"
                "  IndexProbe(per R group: prefix elements discover,\n"
                "             suffix elements complete)\n"
                "    InvertedIndex(S.b -> postings)"
            ),
            "encoded-prefix": (
                "Filter(overlap(ids_r & ids_s) >= pred)\n"
                "  Verify(total-weight pre-test, bitmap XOR-popcount bound)\n"
                "    CandidateProbe(left prefix slices x right prefix index)\n"
                "      EncodedPrefix(R: leading slice of sorted id arrays)\n"
                "      EncodedPrefix(S: leading slice of sorted id arrays)\n"
                "        Encode(TokenDictionary: joint-frequency int ids, cached)"
            ),
        }
        if impl not in shapes:
            raise unknown_implementation(implementation)
        header = f"SSJoin[{impl}] pred: {self.predicate!r}\n"
        return header + note + shapes[impl]


def ssjoin(
    left: PreparedRelation,
    right: PreparedRelation,
    predicate: OverlapPredicate,
    implementation: str = "auto",
    ordering: Optional[ElementOrdering] = None,
    metrics: Optional[ExecutionMetrics] = None,
    verify: bool = False,
    workers: Optional[Union[int, str]] = None,
    verify_config: Optional[VerifyConfig] = None,
) -> SSJoinResult:
    """Functional shorthand for ``SSJoin(left, right, pred).execute(...)``."""
    return SSJoin(left, right, predicate, ordering=ordering).execute(
        implementation, metrics=metrics, verify=verify, workers=workers,
        verify_config=verify_config,
    )

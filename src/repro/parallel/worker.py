"""Worker-side shard execution (runs inside pool processes or inline).

The executor ships each worker ONE pickled payload — via the process
pool's initializer, so it crosses the process boundary once per worker,
not once per shard — and then submits lightweight
:class:`~repro.parallel.shards.ShardDescriptor` tasks against it.

Two payload shapes match the two shard kinds:

* :class:`GroupHashPayload` carries both prepared relations, the
  predicate, the resolved implementation name, and the *global* element
  ordering.  A shard rebuilds its left subset and runs the ordinary
  sequential plan on it; passing the global ordering (rather than letting
  each worker derive one from its subset) keeps every shard's prefixes —
  and therefore the merged candidate/output counts — identical to the
  unsharded run.
* :class:`TokenRangePayload` carries the encoded columnar arrays of both
  sides plus precomputed β-prefix lengths.  A shard runs the sequential
  plan's own candidate→verify kernel
  (:func:`repro.core.encoded_prefix.candidate_verify_columns`) over the
  prefix tokens in its range and emits only the candidate pairs it
  *owns*: the pair whose smallest common prefix token id falls in
  ``[lo, hi)``.  Every discovered pair has such a token, and it lies in
  exactly one range, so the union over shards enumerates each candidate
  pair exactly once (and the merged counters equal the sequential
  plan's).

Determinism: the kernel is the sequential plan's, applied to the same
arrays in the same element order, so overlap values are bit-identical to
the sequential result no matter how work is sharded.
"""

from __future__ import annotations

import pickle
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple, Union

from repro.core.encoded_prefix import (
    PrefixJoinColumns,
    Walk,
    candidate_verify_columns,
)
from repro.core.metrics import ExecutionMetrics
from repro.core.ordering import ElementOrdering
from repro.core.predicate import OverlapPredicate
from repro.core.prepared import PreparedRelation
from repro.core.verify import VerificationEngine, VerifyConfig
from repro.errors import PlanError
from repro.parallel.shards import KIND_GROUP_HASH, KIND_TOKEN_RANGE, ShardDescriptor

__all__ = [
    "GroupHashPayload",
    "StoredTokenRangePayload",
    "TokenRangePayload",
    "ShardResult",
    "execute_shard",
    "init_worker",
    "run_shard",
]


@dataclass(frozen=True)
class GroupHashPayload:
    """Everything a worker needs to run group-hash shards."""

    left: PreparedRelation
    right: PreparedRelation
    predicate: OverlapPredicate
    implementation: str
    ordering: Optional[ElementOrdering]
    #: verification-engine config forwarded to the shard's sequential plan
    #: (appended with a default so hand-pickled payloads stay loadable)
    verify_config: Optional[VerifyConfig] = None


@dataclass(frozen=True)
class TokenRangePayload(PrefixJoinColumns):
    """Columnar arrays + prefix lengths for token-range shards, plus the
    resolved verification-engine state.

    The ``verify_*`` tail lets every shard prune locally with the
    *parent's* signatures — no per-worker re-packing, and prune decisions
    (hence merged per-stage counters) identical to the sequential run.
    The engine runs iff ``left_max_weights`` is set: an auto width may
    resolve to 0 bits while it does.  ``weights_by_token`` is the
    parent's :func:`~repro.core.verify.weights_by_token_for` finding, the
    one mirrored-evaluation condition a shard cannot observe cheaply.
    All tail fields default to the engine-off state.
    """

    verify_bits: int = 0
    left_signatures: Optional[Tuple[int, ...]] = None
    right_signatures: Optional[Tuple[int, ...]] = None
    left_max_weights: Optional[Tuple[float, ...]] = None
    weights_by_token: bool = False


@dataclass(frozen=True)
class StoredTokenRangePayload:
    """Page-file refs in place of pickled columns (disk-backed joins).

    When both sides' encodings are disk-backed (``storage_ref`` set —
    attached tables or persistent-tier pair files), the executor ships
    this slim payload instead of :class:`TokenRangePayload`: each worker
    re-opens the page files read-only and adopts the columnar arrays via
    mmap, so the per-worker pickle is a few hundred bytes regardless of
    relation size. :meth:`rehydrate` rebuilds the full payload
    worker-side; every derived quantity (β-prefix lengths, packed
    signatures, max weights) is a deterministic pure function of the
    mapped arrays and the shipped predicate/config, so shard results are
    bit-identical to the fat-payload path.  ``verify_engine`` says
    whether the engine runs (an auto width may resolve to 0 bits while it
    does); the rebuilt payload carries max weights exactly when it does.
    """

    left_ref: str
    right_ref: str
    predicate: OverlapPredicate
    verify_bits: int = 0
    verify_engine: bool = False

    def rehydrate(self) -> TokenRangePayload:
        # Imported here: repro.storage layers above repro.parallel.
        from repro.core.encoded_prefix import group_prefix_lengths
        from repro.core.verify import (
            max_weights_for,
            signatures_for,
            weights_by_token_for,
        )
        from repro.storage.store import load_encoded_ref

        enc_left = load_encoded_ref(self.left_ref)
        enc_right = (
            enc_left
            if self.right_ref == self.left_ref
            else load_encoded_ref(self.right_ref)
        )
        left_prefix = group_prefix_lengths(
            enc_left, self.predicate.left_filter_threshold
        )
        right_prefix = group_prefix_lengths(
            enc_right, self.predicate.right_filter_threshold
        )
        nbits = self.verify_bits
        left_sigs = tuple(signatures_for(enc_left, nbits)) if nbits else None
        right_sigs = (
            (
                left_sigs
                if enc_right is enc_left
                else tuple(signatures_for(enc_right, nbits))
            )
            if nbits
            else None
        )
        engine_on = self.verify_engine
        left_ids_t = tuple(enc_left.ids)
        return TokenRangePayload(
            left_keys=tuple(enc_left.keys),
            left_ids=left_ids_t,
            left_weights=tuple(enc_left.weights),
            left_norms=tuple(enc_left.norms),
            left_prefix=tuple(left_prefix),
            right_keys=tuple(enc_right.keys),
            right_ids=left_ids_t if enc_right is enc_left else tuple(enc_right.ids),
            right_norms=tuple(enc_right.norms),
            right_prefix=tuple(right_prefix),
            predicate=self.predicate,
            verify_bits=nbits,
            left_signatures=left_sigs,
            right_signatures=right_sigs,
            left_max_weights=tuple(max_weights_for(enc_left)) if engine_on else None,
            weights_by_token=(
                engine_on and enc_right is enc_left and weights_by_token_for(enc_left)
            ),
        )


Payload = Union[GroupHashPayload, TokenRangePayload]


#: The five parallel RESULT_SCHEMA output columns of one shard.
ResultColumns = Tuple[
    Sequence[Any], Sequence[Any], Sequence[float], Sequence[float], Sequence[float]
]


@dataclass(frozen=True)
class ShardResult:
    """One shard's output, metrics, and busy time (worker-side).

    Output ships as five parallel RESULT_SCHEMA columns — five flat
    sequences pickle far smaller and faster than one tuple per row, and
    the executor's merge extends columns without ever building rows.
    """

    shard_id: int
    columns: ResultColumns
    metrics: ExecutionMetrics
    seconds: float

    @property
    def num_rows(self) -> int:
        return len(self.columns[0])

    @property
    def rows(self) -> Tuple[Tuple[Any, ...], ...]:
        """Row-tuple view (boundary adapter for row-protocol consumers)."""
        return tuple(zip(*self.columns)) if self.columns[0] else ()


#: Per-process payload slot, populated once by :func:`init_worker`.
_PAYLOAD: Optional[Payload] = None


def init_worker(payload_bytes: bytes) -> None:
    """Process-pool initializer: unpickle the shared payload once.

    A :class:`StoredTokenRangePayload` rehydrates here — pages are mapped
    and derived state rebuilt once per process, before any shard runs.
    """
    global _PAYLOAD
    payload = pickle.loads(payload_bytes)
    if isinstance(payload, StoredTokenRangePayload):
        payload = payload.rehydrate()
    # The initializer is the one sanctioned global write in a worker: it
    # runs exactly once per process, before any shard, and the slot is
    # read-only afterwards — write-once configuration, not shared state.
    _PAYLOAD = payload  # repro: ignore[DF303]


def run_shard(shard: ShardDescriptor) -> ShardResult:
    """Pool task entry point: run *shard* against the process payload."""
    if _PAYLOAD is None:
        raise PlanError("worker payload not initialized (init_worker not run)")
    return execute_shard(_PAYLOAD, shard)


def execute_shard(payload: Payload, shard: ShardDescriptor) -> ShardResult:
    """Run one shard against an explicit payload (serial backend + pool)."""
    start = time.perf_counter()
    if shard.kind == KIND_GROUP_HASH:
        if not isinstance(payload, GroupHashPayload):
            raise PlanError(f"group-hash shard against {type(payload).__name__}")
        columns, metrics = _run_group_shard(payload, shard)
    elif shard.kind == KIND_TOKEN_RANGE:
        if not isinstance(payload, TokenRangePayload):
            raise PlanError(f"token-range shard against {type(payload).__name__}")
        columns, metrics = _run_token_range_shard(payload, shard)
    else:
        raise PlanError(f"unknown shard kind {shard.kind!r}")
    return ShardResult(
        shard_id=shard.shard_id,
        columns=columns,
        metrics=metrics,
        seconds=time.perf_counter() - start,
    )


def _columns_of(relation: Any) -> "ResultColumns":
    """A relation's five RESULT_SCHEMA columns, transposing only if the
    producing plan was not already columnar."""
    from repro.relational.batch import ColumnarRelation

    if isinstance(relation, ColumnarRelation):
        return relation.columns  # type: ignore[return-value]
    rows = relation.rows
    if not rows:
        return ((), (), (), (), ())
    return tuple(zip(*rows))  # type: ignore[return-value]


def _run_group_shard(
    payload: GroupHashPayload, shard: ShardDescriptor
) -> Tuple["ResultColumns", ExecutionMetrics]:
    # Imported here: repro.core.ssjoin is the facade above this module's
    # callers; the worker only needs it at execution time.
    from repro.core.ssjoin import SSJoin

    keys = list(payload.left.groups)
    groups = {}
    norms = {}
    for g in shard.group_positions:
        a = keys[g]
        groups[a] = payload.left.groups[a]
        norms[a] = payload.left.norms[a]
    subset = PreparedRelation.from_sets(
        groups, norms, name=f"{payload.left.name}[shard{shard.shard_id}]"
    )
    metrics = ExecutionMetrics()
    result = SSJoin(
        subset, payload.right, payload.predicate, ordering=payload.ordering
    ).execute(
        payload.implementation,
        metrics=metrics,
        verify_config=payload.verify_config,
    )
    return _columns_of(result.pairs), metrics


def _shard_walk(
    groups: Optional[Tuple[int, ...]],
    starts: Optional[Tuple[int, ...]],
    all_ids: Sequence[Sequence[int]],
    prefix: Sequence[int],
    lo: int,
) -> Walk:
    """(group positions, first in-range prefix offsets) for a shard.

    Planner-built shards carry both lists; hand-built descriptors (tests)
    fall back to bisecting every group's prefix to *lo*.
    """
    if groups is None or starts is None:
        spans = [
            (g, pos)
            for g, k in enumerate(prefix)
            if (pos := bisect_left(all_ids[g], lo, 0, k)) < k
        ]
        return tuple(g for g, _ in spans), tuple(pos for _, pos in spans)
    return groups, starts


def _run_token_range_shard(
    p: TokenRangePayload, shard: ShardDescriptor
) -> Tuple["ResultColumns", ExecutionMetrics]:
    m = ExecutionMetrics()
    m.implementation = "encoded-prefix"
    # Local verification engine over the shipped columnar arrays and
    # parent-packed signatures; the defaulted payload tail is the inert
    # config, which runs the kernel's plain reference path.
    engine: Optional[VerificationEngine] = None
    if p.left_max_weights is not None:
        engine = VerificationEngine(
            p.predicate,
            p.left_ids,
            p.left_weights,
            p.left_norms,
            p.left_prefix,
            p.right_ids,
            p.right_norms,
            p.right_prefix,
            left_keys=p.left_keys,
            right_keys=p.right_keys,
            left_max_weights=p.left_max_weights,
            nbits=p.verify_bits,
            left_signatures=p.left_signatures,
            right_signatures=p.right_signatures,
            weights_by_token=p.weights_by_token,
        )
    lo = shard.lo
    columns = candidate_verify_columns(
        p, engine, m, lo, shard.hi,
        _shard_walk(shard.left_groups, shard.left_starts, p.left_ids, p.left_prefix, lo),
        _shard_walk(shard.right_groups, shard.right_starts, p.right_ids, p.right_prefix, lo),
    )
    m.output_pairs += len(columns[0])
    return columns, m

"""Worker-side shard execution (runs inside pool processes or inline).

The executor ships each worker ONE pickled :class:`TokenRangePayload` —
via the process pool's initializer, so it crosses the process boundary
once per worker, not once per shard — and then submits lightweight
:class:`~repro.parallel.shards.ShardDescriptor` tasks against it.

The payload carries the encoded columnar arrays of both sides plus
precomputed β-prefix lengths.  A shard runs the sequential plan's own
candidate→verify kernel
(:func:`repro.core.encoded_prefix.candidate_verify_columns`) over the
prefix tokens in its range and emits only the candidate pairs it
*owns*: the pair whose smallest common prefix token id falls in
``[lo, hi)``.  Every discovered pair has such a token, and it lies in
exactly one range, so the union over shards enumerates each candidate
pair exactly once (and the merged counters equal the sequential plan's).

Determinism: the kernel is the sequential plan's, applied to the same
arrays in the same element order, so overlap values are bit-identical to
the sequential result no matter how work is sharded.
"""

from __future__ import annotations

import pickle
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Tuple

from repro.core.encoded_prefix import (
    PrefixJoinColumns,
    Walk,
    candidate_verify_columns,
)
from repro.core.metrics import ExecutionMetrics
from repro.core.verify import VerificationEngine
from repro.errors import PlanError
from repro.parallel.shards import ShardDescriptor

__all__ = [
    "TokenRangePayload",
    "ShardResult",
    "execute_shard",
    "init_worker",
    "run_shard",
]


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


#: Per-process payload slot, populated once by :func:`init_worker`.
_PAYLOAD: Optional[TokenRangePayload] = None


def init_worker(payload_bytes: bytes) -> None:
    """Process-pool initializer: unpickle the shared payload once."""
    global _PAYLOAD
    # The initializer is the one sanctioned global write in a worker: it
    # runs exactly once per process, before any shard, and the slot is
    # read-only afterwards — write-once configuration, not shared state.
    _PAYLOAD = pickle.loads(payload_bytes)  # repro: ignore[DF303]


def run_shard(shard: ShardDescriptor) -> ShardResult:
    """Pool task entry point: run *shard* against the process payload."""
    if _PAYLOAD is None:
        raise PlanError("worker payload not initialized (init_worker not run)")
    return execute_shard(_PAYLOAD, shard)


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


def execute_shard(p: TokenRangePayload, shard: ShardDescriptor) -> ShardResult:
    """Run one shard against an explicit payload (serial backend + pool)."""
    start = time.perf_counter()
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
    return ShardResult(
        shard_id=shard.shard_id,
        columns=columns,
        metrics=m,
        seconds=time.perf_counter() - start,
    )

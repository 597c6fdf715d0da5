"""The parallel SSJoin executor: shard, dispatch, merge.

:func:`parallel_ssjoin` is the multi-core twin of
:meth:`repro.core.ssjoin.SSJoin.execute`.  Only the encoded-prefix plan
runs in shards; every other plan, and ``workers=1``, runs in-process
(``mode="sequential"``).  The flow for the encoded-prefix plan:

1. Encode and compute β-prefix lengths once in the parent, then tile the
   dictionary id space into :data:`SHARDS_PER_WORKER` × *workers*
   token-range shards (each owns a disjoint slice of the prefix inverted
   index), and check the plan against the ``SSJ108`` coverage invariant
   before any work runs.
2. Dispatch largest-first to a ``ProcessPoolExecutor`` whose initializer
   ships each worker ONE pickled payload (or run shards inline with the
   ``serial`` backend — same shard code, no processes; used by the
   property-test suite).
3. Merge: per-shard :class:`~repro.core.metrics.ExecutionMetrics` fold
   into the caller's metrics (counter totals equal the sequential
   run's), rows are canonically sorted so the result relation is
   byte-identical for every worker count and backend, and a
   :class:`ParallelReport` with per-shard timings lands on both the
   result and ``metrics.parallel_stats``.

Determinism guarantee: for a fixed input and predicate, ``pairs.rows``
is the same list — same rows, same order, bit-identical floats — for
``workers=1``, any ``workers=N``, and both backends.  Sharding never
changes *which* elements each overlap kernel sees or their order, only
which process runs it; the canonical sort then fixes row order.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.basic import RESULT_SCHEMA
from repro.core.encoded import encode_pair
from repro.core.encoded_prefix import group_prefix_lengths
from repro.core.metrics import PHASE_PREFIX, PHASE_PREP, ExecutionMetrics
from repro.core.optimizer import (
    IMPLEMENTATIONS,
    CostEstimate,
    CostModel,
    unknown_implementation,
)
from repro.core.ordering import ElementOrdering
from repro.core.predicate import OverlapPredicate
from repro.core.prepared import PreparedRelation
from repro.core.ssjoin import SSJoin, SSJoinResult
from repro.core.verify import (
    VerifyConfig,
    max_weights_for,
    resolve_signature_bits,
    signatures_for,
    weights_by_token_for,
)
from repro.errors import PlanError
from repro.parallel.shards import ShardDescriptor, plan_token_range_shards
from repro.parallel.worker import (
    ShardResult,
    TokenRangePayload,
    execute_shard,
    init_worker,
    run_shard,
)
from repro.relational.batch import ColumnarRelation
from repro.relational.relation import Relation

__all__ = [
    "BACKEND_PROCESS",
    "BACKEND_SERIAL",
    "ParallelReport",
    "ShardTiming",
    "canonical_sort_key",
    "parallel_ssjoin",
]

BACKEND_PROCESS = "process"
BACKEND_SERIAL = "serial"
#: Environment override for the default backend (tests set ``serial``).
BACKEND_ENV = "REPRO_PARALLEL_BACKEND"
#: Token-range shards planned per worker. 4× keeps the largest shard near
#: 25% of one worker's fair share, so largest-first dispatch can absorb
#: heavy-token skew without drowning the run in per-task overhead.
SHARDS_PER_WORKER = 4


def canonical_sort_key(row: Sequence[Any]) -> Tuple[str, str]:
    """Deterministic total order over result rows.

    ``(a_r, a_s)`` identifies a result row uniquely (plans emit each
    matched pair once), and ``repr`` gives arbitrary key types a stable
    total order — so sorting by this key makes the merged relation
    independent of shard boundaries, dispatch order, and worker count.
    """
    return (repr(row[0]), repr(row[1]))


@dataclass(frozen=True)
class ShardTiming:
    """One shard's contribution to the run, as reported to telemetry."""

    shard_id: int
    est_cost: float
    seconds: float
    rows: int

    def to_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "est_cost": round(self.est_cost, 3),
            "seconds": self.seconds,
            "rows": self.rows,
        }


@dataclass(frozen=True)
class ParallelReport:
    """Telemetry for one parallel execution (the bench ``parallel`` block).

    ``wall_seconds`` is what this machine actually took — on a box with
    fewer free cores than *workers*, the processes time-slice and wall
    time will not shrink.  ``critical_path_seconds`` is the makespan of
    the measured shard times under largest-first dispatch onto *workers*
    truly-parallel workers — the wall time this schedule achieves when a
    core per worker is available — reported alongside, never instead.
    """

    mode: str  # "parallel" or "sequential"
    backend: Optional[str]
    requested: int
    workers: int
    wall_seconds: float
    shards: Tuple[ShardTiming, ...] = ()

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def serial_shard_seconds(self) -> float:
        """Total shard busy time (what one worker would have executed)."""
        return sum(s.seconds for s in self.shards)

    @property
    def critical_path_seconds(self) -> float:
        """Makespan of the measured shard times under the run's schedule.

        Replays largest-first (``est_cost``) dispatch onto ``workers``
        bins, each shard going to the earliest-available worker — the
        same greedy order the executor submits in.
        """
        if not self.shards:
            return self.wall_seconds
        loads = [0.0] * max(self.workers, 1)
        for s in sorted(self.shards, key=lambda t: (-t.est_cost, t.shard_id)):
            b = min(range(len(loads)), key=lambda i: (loads[i], i))
            loads[b] += s.seconds
        return max(loads)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "backend": self.backend,
            "requested": self.requested,
            "workers": self.workers,
            "n_shards": self.n_shards,
            "wall_seconds": self.wall_seconds,
            "serial_shard_seconds": self.serial_shard_seconds,
            "critical_path_seconds": self.critical_path_seconds,
            "shards": [s.to_dict() for s in self.shards],
        }


def _resolve_backend(backend: Optional[str]) -> str:
    b = backend or os.environ.get(BACKEND_ENV) or BACKEND_PROCESS
    if b not in (BACKEND_PROCESS, BACKEND_SERIAL):
        raise PlanError(
            f"unknown parallel backend {b!r}; expected "
            f"{BACKEND_PROCESS!r} or {BACKEND_SERIAL!r}"
        )
    return b


def _sorted_relation(rows: List[Tuple[Any, ...]]) -> Relation:
    return Relation(RESULT_SCHEMA, sorted(rows, key=canonical_sort_key))


def _sorted_columns(columns: Sequence[Sequence[Any]]) -> ColumnarRelation:
    """Canonical order applied columnar-ly: argsort ``(a_r, a_s)`` under
    the same repr key as :func:`canonical_sort_key`, then permute each
    column — same row order as the row sort, no row tuples built."""
    ar, a_s = columns[0], columns[1]
    order = sorted(range(len(ar)), key=lambda i: (repr(ar[i]), repr(a_s[i])))
    return ColumnarRelation(
        RESULT_SCHEMA, tuple([col[i] for i in order] for col in columns)
    )


def _canonical_relation(pairs: Relation) -> Relation:
    """THE canonical-order boundary adapter: every ``parallel_ssjoin``
    return path — sequential fallback and shard merge alike — funnels
    through this one function, so no backend re-materializes row tuples
    for relations that are already columnar."""
    if isinstance(pairs, ColumnarRelation):
        return _sorted_columns(pairs.columns)
    return _sorted_relation(list(pairs.rows))


def parallel_ssjoin(
    left: PreparedRelation,
    right: PreparedRelation,
    predicate: OverlapPredicate,
    workers: int,
    implementation: str = "auto",
    ordering: Optional[ElementOrdering] = None,
    metrics: Optional[ExecutionMetrics] = None,
    cost_model: Optional[CostModel] = None,
    backend: Optional[str] = None,
    verify_config: Optional[VerifyConfig] = None,
    encoding_cache: Optional[Any] = None,
) -> SSJoinResult:
    """Execute ``R SSJoin S`` across *workers* processes.

    Parameters mirror :meth:`SSJoin.execute` plus:

    workers:
        Worker count, an ``int >= 1``; anything else raises
        :class:`~repro.errors.PlanError`.  Only the encoded-prefix plan
        runs in shards; other plans run in-process with the same rows.
    backend:
        ``"process"`` (default; also via ``REPRO_PARALLEL_BACKEND``) or
        ``"serial"``, which runs the identical shard code in-process —
        same results and metrics, no pool; what the equivalence property
        tests sweep.
    verify_config:
        Verification-engine tuning (:class:`repro.core.verify.VerifyConfig`;
        ``None`` = auto).  The signature columns are packed once in the
        parent and shipped with the payload, so every shard prunes with
        identical bounds and the merged per-stage counters equal the
        sequential run's.
    encoding_cache:
        A context-scoped :class:`repro.core.encoded.EncodingCache` for
        the parent-side encode phase (``None`` = the process-global
        cache). A cache seeded from an attached
        :class:`repro.storage.store.StoredTable` makes the encode phase
        a pure lookup.

    Returns an :class:`SSJoinResult` whose ``pairs`` rows are in
    canonical order and whose ``parallel`` attribute (also
    ``metrics.parallel_stats``) carries the :class:`ParallelReport`.
    """
    # bool is an int subclass; reject it along with non-ints and "auto".
    if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
        raise PlanError(f"workers must be an int >= 1, got {workers!r}")
    m = metrics if metrics is not None else ExecutionMetrics()

    if implementation != "auto" and implementation not in IMPLEMENTATIONS:
        raise unknown_implementation(implementation)
    chosen: Optional[CostEstimate] = None
    if implementation == "auto":
        model = cost_model or CostModel()
        chosen = model.estimate_all(left, right, predicate, ordering)[0]
    impl = chosen.implementation if chosen is not None else implementation

    if workers == 1 or impl != "encoded-prefix" or left.num_groups == 0:
        return _sequential(
            left, right, predicate, impl, chosen, ordering, m, workers,
            verify_config, encoding_cache,
        )

    start = time.perf_counter()
    payload, shards, universe = _plan_token_range(
        left, right, predicate, ordering, workers * SHARDS_PER_WORKER, m,
        verify_config, encoding_cache=encoding_cache,
    )

    # Check the shard plan against the SSJ108 coverage invariant before
    # dispatch: exact tiling, no overlap, no gap.
    # Imported lazily — repro.analysis sits above repro.parallel.
    from repro.analysis.invariants import check_shards

    check_shards(shards, universe)

    resolved_backend = _resolve_backend(backend)
    dispatch = sorted(shards, key=lambda s: (-s.est_cost, s.shard_id))
    if resolved_backend == BACKEND_PROCESS:
        results = _run_process_pool(payload, dispatch, workers)
    else:
        results = [execute_shard(payload, s) for s in dispatch]
    results.sort(key=lambda r: r.shard_id)

    # Merge shard output column-wise: five list extends per shard, never
    # a row tuple (shards ship ResultColumns precisely so this stays flat).
    merged: Tuple[List[Any], ...] = ([], [], [], [], [])
    for r in results:
        for dst, src in zip(merged, r.columns):
            dst.extend(src)
        m.merge(r.metrics)
    m.implementation = impl

    est_cost = {s.shard_id: s.est_cost for s in shards}
    report = ParallelReport(
        mode="parallel",
        backend=resolved_backend,
        requested=workers,
        workers=workers,
        wall_seconds=time.perf_counter() - start,
        shards=tuple(
            ShardTiming(
                shard_id=r.shard_id,
                est_cost=est_cost[r.shard_id],
                seconds=r.seconds,
                rows=r.num_rows,
            )
            for r in results
        ),
    )
    m.parallel_stats = report.to_dict()
    return SSJoinResult(
        pairs=_canonical_relation(ColumnarRelation(RESULT_SCHEMA, merged)),
        metrics=m,
        implementation=impl,
        cost_estimate=chosen,
        parallel=report,
    )


def _sequential(
    left: PreparedRelation,
    right: PreparedRelation,
    predicate: OverlapPredicate,
    impl: str,
    estimate: Optional[CostEstimate],
    ordering: Optional[ElementOrdering],
    m: ExecutionMetrics,
    requested: int,
    verify_config: Optional[VerifyConfig],
    encoding_cache: Optional[Any],
) -> SSJoinResult:
    """The in-process path: plain SSJoin, canonical order, mode marker."""
    start = time.perf_counter()
    result = SSJoin(left, right, predicate, ordering=ordering).execute(
        impl, metrics=m, verify_config=verify_config, encoding_cache=encoding_cache
    )
    report = ParallelReport(
        mode="sequential",
        backend=None,
        requested=requested,
        workers=1,
        wall_seconds=time.perf_counter() - start,
    )
    m.parallel_stats = report.to_dict()
    return SSJoinResult(
        pairs=_canonical_relation(result.pairs),
        metrics=m,
        implementation=impl,
        cost_estimate=estimate,
        parallel=report,
    )


def _plan_token_range(
    left: PreparedRelation,
    right: PreparedRelation,
    predicate: OverlapPredicate,
    ordering: Optional[ElementOrdering],
    n_shards: int,
    m: ExecutionMetrics,
    verify_config: Optional[VerifyConfig] = None,
    encoding_cache: Optional[Any] = None,
) -> Tuple[TokenRangePayload, List[ShardDescriptor], int]:
    # Encode + prefix phases run once in the parent (cache-hot, and
    # identical to the sequential plan's PREP/PREFIX work); workers get
    # the finished arrays and only execute SSJOIN/FILTER.
    with m.phase(PHASE_PREP):
        enc_left, enc_right, dictionary = encode_pair(
            left, right, ordering, metrics=m, cache=encoding_cache
        )
        m.prepared_rows += enc_left.num_elements + enc_right.num_elements
    with m.phase(PHASE_PREFIX):
        left_prefix = group_prefix_lengths(enc_left, predicate.left_filter_threshold)
        right_prefix = group_prefix_lengths(enc_right, predicate.right_filter_threshold)
        m.prefix_rows += sum(left_prefix) + sum(right_prefix)

    # The plan is a pure function of (encoding pair, predicate, shard
    # count, verify config): memoize it beside the prefix lengths so
    # repeated executions against a cached encoding (sweep repeats,
    # worker-count sweeps at fixed n_shards) re-plan nothing.  enc_right
    # is alive exactly as long as enc_left's cache entry (same
    # EncodingCache tuple), so its id is a stable key component.
    cfg = verify_config if verify_config is not None else VerifyConfig()
    cache_key = ("token-range-plan", id(enc_right), predicate, n_shards, cfg)
    cached = enc_left.prefix_cache.get(cache_key)
    if cached is not None:
        return cached

    # Resolve the verification-engine state once, parent-side: the packed
    # signature columns ship inside the payload so every worker prunes
    # with the parent's exact bounds.
    if cfg.inert:
        nbits = 0
        left_sigs = right_sigs = None
        maxw = None
        by_token = False
    else:
        nbits = resolve_signature_bits(enc_left, enc_right, predicate, cfg)
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
        maxw = tuple(max_weights_for(enc_left))
        by_token = enc_right is enc_left and weights_by_token_for(enc_left)

    # Self-joins share one ids tuple between the sides: pickle memoizes
    # the shared object, so the worker-side engine still sees
    # ``left_ids is right_ids`` and keeps its identity fast path.
    left_ids_t = tuple(enc_left.ids)
    right_ids_t = left_ids_t if enc_right is enc_left else tuple(enc_right.ids)
    payload = TokenRangePayload(
        left_keys=tuple(enc_left.keys),
        left_ids=left_ids_t,
        left_weights=tuple(enc_left.weights),
        left_norms=tuple(enc_left.norms),
        left_prefix=tuple(left_prefix),
        right_keys=tuple(enc_right.keys),
        right_ids=right_ids_t,
        right_norms=tuple(enc_right.norms),
        right_prefix=tuple(right_prefix),
        predicate=predicate,
        verify_bits=nbits,
        left_signatures=left_sigs,
        right_signatures=right_sigs,
        left_max_weights=maxw,
        weights_by_token=by_token,
    )
    universe = len(dictionary)
    shards = plan_token_range_shards(
        enc_left.ids, left_prefix, enc_right.ids, right_prefix, universe, n_shards
    )
    plan = (payload, shards, universe)
    enc_left.prefix_cache[cache_key] = plan
    return plan


def _run_process_pool(
    payload: TokenRangePayload,
    dispatch: List[ShardDescriptor],
    workers: int,
) -> List[ShardResult]:
    payload_bytes = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=init_worker,
        initargs=(payload_bytes,),
    ) as pool:
        futures = [pool.submit(run_shard, s) for s in dispatch]
        return [f.result() for f in futures]

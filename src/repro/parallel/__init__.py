"""Multi-core parallel SSJoin execution (Layer 5).

The encoded-prefix plan over token-range shards: shard planning
(:mod:`repro.parallel.shards`), the worker kernel
(:mod:`repro.parallel.worker`), and the process-pool executor
(:mod:`repro.parallel.executor`).  Entry points: the
:func:`parallel_ssjoin` function here, or ``workers=N`` on
:meth:`repro.core.ssjoin.SSJoin.execute`.  Every other plan runs
in-process under ``workers=N``, with the same rows.
"""

from repro.parallel.executor import (
    BACKEND_PROCESS,
    BACKEND_SERIAL,
    ParallelReport,
    ShardTiming,
    canonical_sort_key,
    parallel_ssjoin,
)
from repro.parallel.shards import ShardDescriptor, plan_token_range_shards
from repro.parallel.worker import (
    ShardResult,
    TokenRangePayload,
    execute_shard,
)

__all__ = [
    "BACKEND_PROCESS",
    "BACKEND_SERIAL",
    "ParallelReport",
    "ShardDescriptor",
    "ShardResult",
    "ShardTiming",
    "TokenRangePayload",
    "canonical_sort_key",
    "execute_shard",
    "parallel_ssjoin",
    "plan_token_range_shards",
]

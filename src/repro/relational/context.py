"""The execution context threaded through every plan execution.

The paper's thesis is that SSJoin is an operator *inside* the engine, not a
library bolted onto it. Operators inside an engine do not receive ad-hoc
keyword arguments — they share one execution context carrying the catalog,
the cost model, caches, verification tuning, worker configuration and the
run's metrics. :class:`ExecutionContext` is that object: every
:meth:`~repro.relational.plan.PlanNode.execute` call normalizes whatever it
was handed (a bare :class:`~repro.relational.catalog.Catalog`, ``None``, or
a full context) into one via :meth:`ExecutionContext.of`, and the SSJoin
physical layer, the bitmap verification engine and the parallel executor
all read their configuration from it instead of threading six parameters
through every call site.

This module deliberately avoids importing :mod:`repro.core` at module
level — ``repro.core`` imports ``repro.relational``, so the heavyweight
members (metrics, cost model, encoding cache, verify config) are typed
``Any`` and constructed lazily.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from repro.errors import PlanError
from repro.relational.batch import DEFAULT_BATCH_SIZE
from repro.relational.catalog import Catalog

__all__ = ["ExecutionContext"]


class ExecutionContext:
    """Shared state for one plan execution.

    Attributes
    ----------
    catalog:
        The table catalog plans resolve :class:`TableScan` leaves against.
    metrics:
        The run's :class:`repro.core.metrics.ExecutionMetrics`, created
        lazily on first access so contexts are cheap to build.
    cost_model:
        Optional :class:`repro.core.optimizer.CostModel` override; ``None``
        lets the physical layer use the default model.
    verify_config:
        Optional :class:`repro.core.verify.VerifyConfig` tuning the bitmap
        verification engine; ``None`` resolves widths automatically.
    workers:
        ``None`` for sequential execution, or an ``int >= 1`` to route
        SSJoin nodes through the parallel executor.
    encoding_cache:
        Optional :class:`repro.core.encoded.EncodingCache` override for
        the dictionary-encoded plans; ``None`` uses the process-global
        cache (so repeat workloads keep hitting it).
    verify:
        Run the static SSJoin invariant verifier (SSJ1xx rules) before
        executing any :class:`SSJoinNode` in the plan.
    batch_size:
        Morsel capacity of the plan path, ``>= 1``. ``None`` (default)
        means :data:`repro.relational.batch.DEFAULT_BATCH_SIZE`; results
        do not depend on it (the equivalence tests sweep 1 / 7 / 4096).
    """

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        metrics: Any = None,
        cost_model: Any = None,
        verify_config: Any = None,
        workers: Optional[int] = None,
        encoding_cache: Any = None,
        verify: bool = False,
        batch_size: Optional[int] = None,
    ) -> None:
        self.catalog = catalog if catalog is not None else Catalog()
        self._metrics = metrics
        self.cost_model = cost_model
        self.verify_config = verify_config
        self.workers = workers
        self.encoding_cache = encoding_cache
        self.verify = verify
        self.batch_size = batch_size
        self.resolved_batch_size()  # reject a bad capacity here, not mid-plan

    @property
    def metrics(self) -> Any:
        """The run's ExecutionMetrics (created lazily on first access)."""
        if self._metrics is None:
            from repro.core.metrics import ExecutionMetrics

            self._metrics = ExecutionMetrics()
        return self._metrics

    def resolved_batch_size(self) -> int:
        """The effective morsel capacity (always ``>= 1``)."""
        if self.batch_size is None:
            return DEFAULT_BATCH_SIZE
        size = int(self.batch_size)
        if size < 1:
            raise PlanError(
                f"batch_size is the morsel capacity and must be >= 1, "
                f"got {self.batch_size!r}"
            )
        return size

    @classmethod
    def of(
        cls, context: Union["ExecutionContext", Catalog, None]
    ) -> "ExecutionContext":
        """Normalize *context* into an :class:`ExecutionContext`.

        Accepts a full context (returned as-is), a bare catalog (wrapped),
        or ``None`` (a fresh context over an empty catalog) — which is what
        keeps the historical ``node.execute(catalog)`` call shape working.
        """
        if isinstance(context, ExecutionContext):
            return context
        if context is None or isinstance(context, Catalog):
            return cls(catalog=context)
        raise TypeError(
            f"cannot execute a plan against {context!r}; expected an "
            "ExecutionContext, a Catalog, or None"
        )

    def __repr__(self) -> str:
        parts = [f"tables={len(self.catalog)}"]
        if self.workers is not None:
            parts.append(f"workers={self.workers!r}")
        if self.verify:
            parts.append("verify=True")
        if self.batch_size is not None:
            parts.append(f"batch_size={self.batch_size}")
        return f"ExecutionContext({', '.join(parts)})"

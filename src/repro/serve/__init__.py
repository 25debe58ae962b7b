"""Async serving layer: request queue + adaptive micro-batching.

The fourth layer of the stack.  A :class:`QueryService` fronts an engine
(:class:`repro.engine.Executor` or
:class:`repro.shard.ScatterGatherExecutor`) with an ``asyncio`` request
queue whose drain ticks execute **one** ``execute_many`` per flush — so
concurrent clients issuing same-function queries transparently share one
fused frontier sweep / R-tree traversal (the PR 4 batch-fusion path),
turning micro-batching from an amortization into an algorithmic win.

Usage::

    from repro.serve import QueryService, ServiceConfig

    async def main():
        config = ServiceConfig(max_batch_size=64, max_linger=0.005)
        async with QueryService(engine, config) as service:
            result = await service.submit(query)          # one client
            batch = await service.submit_many(queries)    # fan-in
            tid = await service.insert(row)               # serialized write
            print(service.metrics_snapshot()["serve.fused_requests"])

Responses are bit-identical to calling the engine directly; their
``extra`` additionally records ``queue_wait``, ``batch_size``, and the
engine's ``fused_group_size``.
"""

from repro.serve.batcher import (
    DEFAULT_CLASS_WEIGHTS,
    DEFAULT_PRIORITY,
    PRIORITY_CLASSES,
    MicroBatcher,
    QueuedRequest,
)
from repro.serve.config import ServiceConfig
from repro.serve.errors import (
    RequestTimeoutError,
    ServeError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShardUnavailableError,
)
from repro.serve.service import QueryService
from repro.serve.stats import ServiceStats

__all__ = [
    "DEFAULT_CLASS_WEIGHTS",
    "DEFAULT_PRIORITY",
    "PRIORITY_CLASSES",
    "MicroBatcher",
    "QueryService",
    "QueuedRequest",
    "RequestTimeoutError",
    "ServeError",
    "ServiceClosedError",
    "ServiceOverloadedError",
    "ServiceConfig",
    "ServiceStats",
    "ShardUnavailableError",
]

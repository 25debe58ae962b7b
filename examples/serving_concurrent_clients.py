"""Quickstart: serve concurrent clients through the async serving layer.

Eight clients fire top-k queries at one sharded engine at the same time.
The :class:`~repro.serve.QueryService` queues them, and its adaptive
micro-batcher drains each tick into one fused ``execute_many`` call — so
clients that happen to rank by the same function share a single frontier
sweep without knowing about each other.  The write path is serialized:
an ``insert`` drains the in-flight batches before mutating, and only the
cached answers the new row can affect are dropped.  Tracing is enabled
with a slow-query threshold, so the service keeps a log of the slowest
batches with their full span trees (printed at the end).

Run with ``python examples/serving_concurrent_clients.py`` from the
repository root.
"""

from __future__ import annotations

import asyncio
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.functions import LinearFunction
from repro.query import Predicate, TopKQuery
from repro.serve import QueryService, ServiceConfig
from repro.workloads import (
    SyntheticSpec,
    generate_relation,
    make_sharded_engine,
    serving_client_queries,
)


async def main() -> None:
    # 1. A relation, range-sharded three ways on A1, behind the usual
    #    scatter/gather engine.  The service works identically over an
    #    unsharded ``Executor.for_relation`` stack.
    relation = generate_relation(SyntheticSpec(
        num_tuples=20000, num_selection_dims=3, num_ranking_dims=2,
        cardinality=10, seed=11))
    manager, engine = make_sharded_engine(relation, 3, range_dim="A1",
                                          block_size=200,
                                          with_signature=False,
                                          with_skyline=False)

    # 2. The service: flush a batch at 64 pending requests or once the
    #    oldest has lingered 5 ms, whichever comes first; reject new work
    #    beyond 512 queued; give every request a 5 s deadline.  Tracing is
    #    on with a slow-query threshold: any batch whose root span takes
    #    1 ms or longer lands in the slow-query log with its full span
    #    tree (threshold deliberately low so the demo catches some).
    config = ServiceConfig(max_batch_size=64, max_linger=0.005,
                           max_pending=512, default_timeout=5.0,
                           tracing=True, slow_query_threshold=0.001)
    async with QueryService(engine, config, manager=manager) as service:
        # 3. Eight concurrent clients, each with its own query stream over
        #    two shared ranking functions.
        clients = serving_client_queries(relation, num_clients=8,
                                         per_client=6)
        results = await asyncio.gather(
            *(service.submit_many(stream) for stream in clients))
        first = results[0][0]
        print(f"client 0, query 0: top-{len(first)} via {first.backend}, "
              f"queue_wait={first.extra['queue_wait'] * 1000:.2f} ms, "
              f"batch_size={first.extra['batch_size']:.0f}, "
              f"fused_group_size={first.extra['fused_group_size']:.0f}")

        # 4. A write: drains in-flight batches, then invalidates only the
        #    cached answers the row can affect.
        tid = await service.insert(
            {"A1": 1, "A2": 0, "A3": 0, "N1": -10.0, "N2": -10.0})
        fresh = await service.submit(TopKQuery(
            Predicate.of(A1=1), LinearFunction(["N1", "N2"], [1.0, 1.0]), 3))
        print(f"after insert of tid {tid}: "
              f"top-1 for A1=1 is tid {fresh.tids[0]}")

        # 5. One merged metrics view: service counters, latency
        #    percentiles, and the engine's cache/fusion counters.  Rates
        #    are ratios of two counts in it.
        snap = service.metrics_snapshot()
        batched = snap["serve.batched_requests"]
        print(f"served {snap['serve.completed']:.0f} queries in "
              f"{snap['serve.batches']:.0f} batches "
              f"(mean size {batched / snap['serve.batches']:.1f})")
        print(f"latency p50/p99: "
              f"{snap['serve.latency_seconds.p50'] * 1000:.2f}/"
              f"{snap['serve.latency_seconds.p99'] * 1000:.2f} ms; "
              f"fusion rate {snap['serve.fused_requests'] / batched:.2f}; "
              f"result-cache hits {snap['shard.result_hits']:.0f}")

        # 6. The slow-query log: every dispatched batch whose root span
        #    met the threshold, slowest first, with its span tree intact.
        slow = sorted(service.slow_queries(),
                      key=lambda trace: trace.duration, reverse=True)
        print(f"slow-query log: {len(slow)} batches at or over "
              f"{config.slow_query_threshold * 1000:.0f} ms")
        for trace in slow[:3]:
            root = trace.root
            batch_size = root.attrs.get("batch_size", "?")
            print(f"  {root.name}  {trace.duration * 1000:.2f} ms  "
                  f"batch_size={batch_size}  "
                  f"spans={len(trace.spans)}")


if __name__ == "__main__":
    asyncio.run(main())

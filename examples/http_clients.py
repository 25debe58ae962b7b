"""The HTTP serving tier end to end: queries, priorities, limits, streams.

One in-process :class:`~repro.net.QueryServer` (ephemeral port) serves a
ranking-cube engine to three asyncio clients:

1. **An interactive client** submitting one-off top-k queries and a
   batch — results decode back to the same objects an in-process caller
   gets, full plan metadata included.
2. **A throttled client** configured with a 5 req/s token bucket: its
   burst drains, then requests bounce with HTTP 429 and a ``Retry-After``
   hint while the other clients sail on.
3. **A streaming client** consuming verified top-k prefixes over a
   chunked response, then two streams at once, each on a connection of
   its own — every prefix is final the moment it arrives (the engine
   proves no unseen tuple can displace it), and the assembled answer is
   bit-identical to a plain query.

Run: ``python examples/http_clients.py``
"""

from __future__ import annotations

import asyncio
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.engine import CostModel, Executor
from repro.functions import LinearFunction
from repro.net import (
    AsyncQueryClient,
    FunctionRegistry,
    NetConfig,
    QueryServer,
    RateLimitedError,
)
from repro.query import Predicate, TopKQuery
from repro.serve import QueryService, ServiceConfig
from repro.workloads import SyntheticSpec, generate_relation


def build_engine():
    relation = generate_relation(SyntheticSpec(
        num_tuples=8000, num_selection_dims=3, num_ranking_dims=2,
        cardinality=8, seed=13))
    # The paper's cost constants keep the grid, which streams, chosen for
    # the streamed top-k (the time-fitted defaults send it to a scan).
    return Executor.for_relation(relation, block_size=200,
                                 with_signature=False, with_skyline=False,
                                 cost_model=CostModel(**CostModel.PAPER))


async def interactive_session(client: AsyncQueryClient) -> None:
    function = LinearFunction(["N1", "N2"], [1.0, 2.0])
    result = await client.query(TopKQuery(Predicate.of(A1=2), function, 5))
    print(f"[interactive] top-5 for A1=2: {result.tids}")
    print(f"[interactive] plan metadata rode along: "
          f"batch_size={result.extra['batch_size']:.0f}, "
          f"{result.disk_accesses} block accesses")
    batch = await client.query_many([
        TopKQuery(Predicate.of(A1=value), function, 3) for value in range(3)])
    print(f"[interactive] batch of 3 answered: "
          f"{[r.tids for r in batch]}")
    named = await client.query(
        TopKQuery(Predicate.of(A2=1), "sum_n1_n2", 4))
    print(f"[interactive] ranked by registered name 'sum_n1_n2': "
          f"{named.tids}")


async def throttled_session(client: AsyncQueryClient) -> None:
    function = LinearFunction(["N1", "N2"], [3.0, 1.0])
    query = TopKQuery(Predicate.of(), function, 3)
    served = bounced = 0
    retry_after = None
    for _ in range(12):
        try:
            await client.query(query)
            served += 1
        except RateLimitedError as exc:
            bounced += 1
            retry_after = exc.retry_after
    print(f"[throttled] 12 rapid-fire requests: {served} served, "
          f"{bounced} bounced with 429 (Retry-After ≈ {retry_after:.2f}s)")


async def streaming_session(client: AsyncQueryClient) -> None:
    function = LinearFunction(["N1", "N2"], [2.0, 3.0])
    query = TopKQuery(Predicate.of(), function, 10)

    def on_prefix(start, entries):
        print(f"[stream] ranks {start}..{start + len(entries) - 1} proven: "
              f"{[tid for tid, _ in entries]}")

    result, pairs = await client.stream(query, on_prefix=on_prefix)
    print(f"[stream] final answer: {result.tids} "
          f"({len(pairs)} of {len(result.tids)} ranks arrived early)")

    (left, _), (right, _) = await asyncio.gather(
        client.stream(TopKQuery(Predicate.of(A1=1), function, 5)),
        client.stream(TopKQuery(Predicate.of(A1=2), function, 5)))
    print(f"[stream] two concurrent streams: {left.tids} and {right.tids}")


async def main() -> None:
    engine = build_engine()
    registry = FunctionRegistry()
    registry.register("sum_n1_n2", LinearFunction(["N1", "N2"], [1.0, 1.0]))
    service_config = ServiceConfig(max_batch_size=32, max_linger=0.005)
    async with QueryService(engine, service_config) as service:
        async with QueryServer(service, NetConfig(),
                               functions=registry) as server:
            # Only the crawler gets a bucket; everyone else is unlimited.
            server.limiter.configure("crawler", rate=5.0, burst=4.0)
            print(f"serving on 127.0.0.1:{server.port}\n")

            def client(client_id: str, priority=None) -> AsyncQueryClient:
                return AsyncQueryClient("127.0.0.1", server.port,
                                        client_id=client_id,
                                        priority=priority)

            # Each client keeps its connection between calls; ``async
            # with`` closes it.
            async with client("dashboard", "interactive") as dashboard:
                await interactive_session(dashboard)
            print()
            async with client("crawler", "background") as crawler:
                await throttled_session(crawler)
            print()
            async with client("ticker") as ticker:
                await streaming_session(ticker)
                print()
                metrics = await ticker.metrics_text()
            interesting = [line for line in metrics.splitlines()
                           if line.startswith("repro_net_")
                           and not line.startswith("#")]
            print("net.* metrics after the session:")
            for line in interesting:
                print(f"  {line}")


if __name__ == "__main__":
    asyncio.run(main())

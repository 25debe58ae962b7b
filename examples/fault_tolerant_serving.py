"""Fault tolerance end to end: chaos, retries, breakers, degraded answers.

One sharded engine is served through three failure postures:

1. **Chaos with retries** — a seeded :class:`~repro.fault.FaultInjector`
   plants leg crashes in the scatter legs while a
   :class:`~repro.fault.RetryPolicy` re-runs the failed legs with
   jittered backoff.  Every answer stays exact; the only trace of the
   chaos is in ``extra["leg_attempts"]`` and the ``fault.*`` counters.
2. **Permanent shard loss, strict** — a shard that stays down exhausts
   its retries, trips its circuit breaker, and the request fails with a
   typed :class:`~repro.serve.ShardUnavailableError` (the engine's
   :class:`~repro.errors.ShardWorkerError` rides along as ``__cause__``).
3. **Permanent shard loss, degraded** — the same outage under
   ``allow_partial=True``: the query answers *exactly* over the
   surviving shards, flagged ``degraded`` with a ``completeness``
   fraction, so a dashboard can keep rendering while the shard heals.

Per-request deadlines ride into the engine too: a ``timeout=`` on
``submit`` becomes a :class:`~repro.fault.Deadline` checked before
every scatter leg.

Run with ``python examples/fault_tolerant_serving.py`` from the
repository root.
"""

from __future__ import annotations

import asyncio
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.errors import ShardWorkerError
from repro.fault import BreakerPolicy, FaultInjector, RetryPolicy
from repro.functions import LinearFunction
from repro.query import Predicate, TopKQuery
from repro.serve import QueryService, ServiceConfig, ShardUnavailableError
from repro.shard import InProcessLegs
from repro.workloads import SyntheticSpec, generate_relation, make_sharded_engine


def build_engine(relation, range_dim="A1", **fault_kwargs):
    return make_sharded_engine(relation, 3, range_dim=range_dim,
                               block_size=200, with_signature=False,
                               with_skyline=False, **fault_kwargs)


class FailingLegs(InProcessLegs):
    """A fake leg runner: legs to one shard raise, the rest run for real."""

    def __init__(self, manager, bad_index):
        super().__init__(manager)
        self.bad_index = bad_index

    def run(self, shard, queries, leg_span):
        if shard.index == self.bad_index:
            raise ShardWorkerError(
                f"shard {shard.index} is unreachable",
                shard_index=shard.index)
        return super().run(shard, queries, leg_span)


def fail_shard(engine, bad_index):
    """Simulate a shard that stays down (every leg to it raises)."""
    engine.legs = FailingLegs(engine.manager, bad_index)


async def main() -> None:
    relation = generate_relation(SyntheticSpec(
        num_tuples=20000, num_selection_dims=3, num_ranking_dims=2,
        cardinality=10, seed=11))
    function = LinearFunction(["N1", "N2"], [1.0, 1.0])
    queries = [TopKQuery(Predicate.of(A1=value), function, 5)
               for value in range(6)]

    # 1. Chaos with retries: 6 injected crashes, capped safely below the
    #    retry attempts, so every leg provably recovers.
    injector = FaultInjector(seed=2024,
                             rates={"worker.crash.pre": 0.4,
                                    "worker.crash.post": 0.2},
                             max_faults=6)
    manager, engine = build_engine(
        relation, fault_injector=injector,
        retry_policy=RetryPolicy(max_attempts=8, base_delay=0.002,
                                 cap_delay=0.02, jitter_seed=2024))
    config = ServiceConfig(max_batch_size=16, max_linger=0.005)
    async with QueryService(engine, config, manager=manager) as service:
        results = await asyncio.gather(
            *(service.submit(query, timeout=10.0) for query in queries))
        retried = [result.extra.get("leg_attempts") for result in results]
        print(f"chaos pass: {injector.total_fired} crashes injected, "
              f"{engine.metrics.snapshot()['fault.retries']:.0f} legs "
              f"retried, every answer exact")
        print(f"  leg attempts per query: {retried}")

    # 2. Permanent shard loss, strict: retries exhaust, the breaker
    #    trips, and the client sees a typed error with the cause chained.
    manager, engine = build_engine(
        relation,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0.001,
                                 cap_delay=0.002, jitter_seed=1),
        breaker_policy=BreakerPolicy(failure_threshold=3, cooldown=30.0))
    fail_shard(engine, bad_index=0)
    async with QueryService(engine, config, manager=manager) as service:
        try:
            await service.submit(queries[0], timeout=5.0)
        except ShardUnavailableError as exc:
            print(f"strict pass: {type(exc).__name__}: {exc}")
            print(f"  caused by: {type(exc.__cause__).__name__}")

    # 3. The same outage, degraded: exact answers over the two surviving
    #    shards, flagged with completeness so the caller knows.  Hash
    #    sharding here, so every query scatters to all three shards and
    #    only *loses* the dead one — under range sharding a query pruned
    #    to the dead shard alone has no survivors and must still fail.
    manager, engine = build_engine(
        relation, range_dim=None, allow_partial=True,
        breaker_policy=BreakerPolicy(failure_threshold=3, cooldown=30.0))
    fail_shard(engine, bad_index=0)
    async with QueryService(engine, config, manager=manager) as service:
        for query in queries[:3]:
            result = await service.submit(query, timeout=5.0)
            print(f"degraded pass: top-{len(result)} for {query.predicate}, "
                  f"completeness={result.extra.get('completeness', 1.0):.2f} "
                  f"shards_failed={result.extra.get('shards_failed', '-')}")
        snap = engine.metrics.snapshot()
        print(f"  breaker.opened={snap['breaker.opened']:.0f} "
              f"breaker.rejected={snap['breaker.rejected']:.0f} "
              f"fault.degraded_results={snap['fault.degraded_results']:.0f}")


if __name__ == "__main__":
    asyncio.run(main())

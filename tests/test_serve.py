"""The async serving layer: parity, batching, backpressure, writes, stats.

Covers the serving parity gate (answers through :class:`QueryService` are
bit-identical to direct ``execute`` on the same engine, unsharded and
across shard counts {1, 2, 7}), the adaptive micro-batcher's flush
triggers and linger adaptation, admission control, per-request timeouts
and cancellation, the serialized write
path interleaved with queued work (the predicate-aware invalidation
contract), and the one merged metrics view
(``QueryService.metrics_snapshot`` over every layer's registry).

The tests drive asyncio through plain ``asyncio.run`` so the suite needs
no async pytest plugin (the dev extra ships one for convenience, not
correctness).
"""

from __future__ import annotations

import asyncio
import functools
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import CostModel, Executor
from repro.functions.linear import LinearFunction, sum_function
from repro.query import Predicate, QueryResult, SkylineQuery, TopKQuery
from repro.serve import (
    PRIORITY_CLASSES,
    MicroBatcher,
    QueryService,
    QueuedRequest,
    RequestTimeoutError,
    ServeError,
    ServiceClosedError,
    ServiceConfig,
    ServiceOverloadedError,
)
from repro.fault import FaultInjector, RetryPolicy
from repro.shard import HashShardingPolicy, InProcessLegs
from repro.workloads import (
    SyntheticSpec,
    distinct_serving_queries,
    generate_relation,
    make_sharded_engine,
    serving_client_queries,
)


@pytest.fixture(scope="module")
def relation():
    return generate_relation(SyntheticSpec(
        num_tuples=1500, num_selection_dims=3, num_ranking_dims=2,
        cardinality=6, seed=77))


def make_engine(relation, num_shards=0, cost_model=None):
    """A grid-only stack, unsharded (0) or scatter/gather over N shards."""
    if num_shards:
        manager, engine = make_sharded_engine(
            relation, num_shards, range_dim="A1",
            block_size=100, with_signature=False, with_skyline=False,
            cost_model=cost_model)
        return manager, engine
    return None, Executor.for_relation(relation, block_size=100,
                                       with_signature=False,
                                       with_skyline=False,
                                       cost_model=cost_model)


def mixed_workload():
    f1 = LinearFunction(["N1", "N2"], [1.0, 2.0])
    f2 = LinearFunction(["N1", "N2"], [3.0, 1.0])
    queries = [TopKQuery(Predicate.of(), f, k)
               for f in (f1, f2) for k in (1, 4, 9)]
    queries += [TopKQuery(Predicate.of(A1=value), f1, 5) for value in range(3)]
    queries.append(TopKQuery(Predicate.of(A1=1, A2=0), f2, 7))
    return queries


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


class TestMicroBatcher:
    def request(self, clock):
        # The batcher never touches the future, so unit tests can pass a
        # placeholder instead of binding an event loop.
        return QueuedRequest(query=object(), future=None,
                             enqueued_at=clock())

    def test_deadline_trigger_and_drain(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=8, max_linger=1.0,
                               min_linger=0.25, clock=clock)
        assert batcher.drain() == []
        assert batcher.next_deadline() is None
        first = self.request(clock)
        batcher.append(first)
        assert batcher.next_deadline() == 1.0
        assert not batcher.due(0.5)
        assert batcher.drain(0.5) == []
        clock.t = 1.0
        assert batcher.due()
        assert batcher.drain() == [first]
        assert len(batcher) == 0

    def test_size_trigger_ignores_linger(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=3, max_linger=99.0, clock=clock)
        requests = [self.request(clock) for _ in range(3)]
        for request in requests:
            batcher.append(request)
        assert len(batcher) == 3 and batcher.due(0.0)
        assert batcher.drain(0.0) == requests

    def test_drain_caps_at_max_batch_size(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=2, max_linger=99.0, clock=clock)
        requests = [self.request(clock) for _ in range(5)]
        for request in requests:
            batcher.append(request)
        assert batcher.drain(0.0) == requests[:2]
        assert batcher.drain(0.0) == requests[2:4]
        # One left: below the size trigger and before the deadline.
        assert batcher.drain(0.0) == []
        assert len(batcher) == 1

    def test_linger_adapts_within_bounds(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=8, max_linger=1.0,
                               min_linger=0.25, clock=clock)
        # Deadline flush of a single request: sparse traffic, halve.
        batcher.append(self.request(clock))
        clock.t = 1.0
        batcher.drain()
        assert batcher.linger == 0.5
        # Partial batch (2 of 8) on the deadline: grow back toward the cap.
        for _ in range(2):
            batcher.append(self.request(clock))
        clock.t += 0.5
        batcher.drain()
        assert batcher.linger == 1.0
        # Size-triggered flush: saturating traffic, halve again.
        for _ in range(8):
            batcher.append(self.request(clock))
        batcher.drain()
        assert batcher.linger == 0.5
        # The floor holds no matter how many sparse flushes follow.
        for _ in range(10):
            batcher.append(self.request(clock))
            clock.t += 99.0
            batcher.drain()
        assert batcher.linger == 0.25

    def test_forced_drain_flushes_without_trigger(self):
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=8, max_linger=99.0, clock=clock)
        request = self.request(clock)
        batcher.append(request)
        linger_before = batcher.linger
        assert batcher.drain(force=True) == [request]
        # A forced (shutdown) flush does not distort the adaptation.
        assert batcher.linger == linger_before

    @settings(max_examples=200, deadline=None, derandomize=True,
              database=None)
    @given(steps=st.lists(st.one_of(
        st.tuples(st.just("append"), st.sampled_from(PRIORITY_CLASSES),
                  st.sampled_from("abc")),
        st.tuples(st.just("tick"), st.sampled_from([0.0, 0.3, 1.0])),
        st.tuples(st.just("drain")), st.tuples(st.just("force")),
        st.tuples(st.just("take"), st.booleans())), max_size=60))
    def test_len_is_the_sum_of_the_class_queues(self, steps):
        """The batcher counts its length instead of summing the class
        queues on every call; any run of appends, drains (due or not),
        forced drains and decided takes keeps the count equal to the sum
        and to what went in minus what came out."""
        clock = FakeClock()
        batcher = MicroBatcher(max_batch_size=3, max_linger=1.0,
                               min_linger=0.25, clock=clock)
        held = 0
        for step in steps:
            if step[0] == "append":
                batcher.append(QueuedRequest(
                    query=object(), future=None, enqueued_at=clock(),
                    priority=step[1], client_id=step[2]))
                held += 1
            elif step[0] == "tick":
                clock.t += step[1]
            else:
                due = batcher.due()
                batch = (batcher.drain() if step[0] == "drain"
                         else batcher.drain(force=True) if step[0] == "force"
                         else batcher.take_batch(adapt=step[1]))
                assert len(batch) <= 3
                assert batch or (step[0] == "drain" and not due) or not held
                held -= len(batch)
            assert len(batcher) == held == sum(
                batcher.pending_by_class().values())
            assert batcher.due() == (
                held >= 3 or (held > 0 and clock() >= batcher.next_deadline()))


class RecordingLegs(InProcessLegs):
    """The real in-process runner, noting the thread each leg ran on."""

    def __init__(self, manager):
        super().__init__(manager)
        self.threads = set()

    def run(self, shard, queries, leg_span):
        self.threads.add(threading.current_thread().name)
        return super().run(shard, queries, leg_span)


class TestServingParity:
    @pytest.mark.parametrize("num_shards", [0, 1, 2, 7],
                             ids=["0", "1", "2", "7"])
    def test_service_answers_match_direct_execute(self, relation, num_shards):
        _, reference = make_engine(relation, num_shards)
        _, engine = make_engine(relation, num_shards)
        queries = mixed_workload()
        expected = [reference.execute(query) for query in queries]
        front_door = engine.execute_many
        door_threads = set()

        @functools.wraps(front_door)  # the service reads its keywords
        def on_door(*args, **kwargs):
            door_threads.add(threading.current_thread().name)
            return front_door(*args, **kwargs)

        engine.execute_many = on_door
        if num_shards:
            engine.legs = RecordingLegs(engine.manager)

        async def run():
            config = ServiceConfig(max_linger=0.005, max_batch_size=64)
            async with QueryService(engine, config) as service:
                return await asyncio.gather(
                    *(service.submit(query) for query in queries))

        results = asyncio.run(run())
        for alone, served in zip(expected, results):
            assert alone.tids == served.tids
            assert alone.scores == served.scores
            assert served.extra["queue_wait"] >= 0.0
            assert served.extra["batch_size"] >= 1.0
            assert "fused_group_size" in served.extra
        # Every engine call ran on the service's one thread, and a
        # scatter's legs ran on that thread too.
        assert door_threads == {"repro-serve_0"}
        if num_shards:
            assert engine.legs.threads == door_threads
        assert not [thread.name for thread in threading.enumerate()
                    if thread.name.startswith("repro-serve")]

    def test_served_clients_fuse_into_half_the_serial_tuples(self):
        """The serving gate at its benchmark size, in counts: eight
        concurrent clients' repeat-free queries, flushed by size into one
        batch, answer as one-at-a-time execution does and score at most
        half its tuples."""
        relation = generate_relation(SyntheticSpec(
            num_tuples=6000, num_selection_dims=3, num_ranking_dims=2,
            cardinality=8, seed=23))
        serial_engine, served_engine = (
            Executor.for_relation(relation, block_size=200,
                                  with_signature=False, with_skyline=False,
                                  cost_model=CostModel(**CostModel.PAPER))
            for _ in range(2))
        queries = distinct_serving_queries(relation)
        streams = [queries[i::8] for i in range(8)]
        serial = [serial_engine.execute(query) for query in queries]

        async def run():
            config = ServiceConfig(max_batch_size=len(queries),
                                   max_linger=30.0)
            async with QueryService(served_engine, config) as service:
                gathered = await asyncio.gather(
                    *(service.submit_many(stream) for stream in streams))
                return gathered, service.metrics_snapshot()

        gathered, snap = asyncio.run(run())
        served = [gathered[i % 8][i // 8] for i in range(len(queries))]
        for alone, batched in zip(serial, served):
            assert alone.tids == batched.tids
            assert alone.scores == batched.scores
        assert snap["serve.batches"] == 1.0
        assert snap["engine.fused_queries"] > 0
        assert snap["serve.fused_requests"] == snap["engine.fused_queries"]
        assert (sum(r.tuples_evaluated for r in served) * 2
                <= sum(r.tuples_evaluated for r in serial))

    def test_full_stack_serves_skyline_and_topk(self, relation):
        reference = Executor.for_relation(relation, block_size=100)
        engine = Executor.for_relation(relation, block_size=100)
        queries = [
            SkylineQuery(Predicate.of(A1=1), ("N1", "N2")),
            TopKQuery(Predicate.of(), sum_function(["N1", "N2"]), 4),
        ]
        expected = [reference.execute(query) for query in queries]

        async def run():
            async with QueryService(engine) as service:
                return await service.submit_many(queries)

        results = asyncio.run(run())
        assert tuple(sorted(results[0].tids)) == tuple(sorted(expected[0].tids))
        assert results[1].tids == expected[1].tids
        assert results[1].scores == expected[1].scores

    def test_concurrent_clients_fuse_through_one_tick(self, relation):
        _, engine = make_engine(relation,
                                cost_model=CostModel(**CostModel.PAPER))
        clients = serving_client_queries(relation, num_clients=6,
                                         per_client=4)

        async def run():
            config = ServiceConfig(max_linger=0.05, max_batch_size=512)
            async with QueryService(engine, config) as service:
                gathered = await asyncio.gather(
                    *(service.submit_many(stream) for stream in clients))
                return gathered, service.metrics_snapshot()

        gathered, snap = asyncio.run(run())
        # Every stream got one result per query, and the batcher fused
        # same-function queries from different clients into shared sweeps.
        assert [len(results) for results in gathered] == [4] * 6
        assert snap["engine.fused_queries"] > 0
        assert snap["serve.fused_requests"] == snap["engine.fused_queries"]
        assert snap["serve.batches"] < snap["serve.completed"]
        fused_sizes = {result.extra["fused_group_size"]
                       for results in gathered for result in results}
        assert max(fused_sizes) > 1.0


class TestFlushTriggers:
    def test_flush_on_max_batch_size(self, relation):
        _, engine = make_engine(relation)
        function = sum_function(["N1", "N2"])
        queries = [TopKQuery(Predicate.of(A1=value), function, 3)
                   for value in range(4)]

        async def run():
            # The linger alone would park requests for 30 s; only the size
            # trigger can flush, so batches of exactly 2 prove it fired.
            config = ServiceConfig(max_batch_size=2, max_linger=30.0)
            async with QueryService(engine, config) as service:
                return await service.submit_many(queries)

        results = asyncio.run(run())
        assert [result.extra["batch_size"] for result in results] == [2.0] * 4

    def test_flush_on_linger_deadline(self, relation):
        _, engine = make_engine(relation)
        function = sum_function(["N1", "N2"])
        queries = [TopKQuery(Predicate.of(A1=value), function, 3)
                   for value in range(3)]

        async def run():
            # Far below the size trigger: only the deadline can flush.
            config = ServiceConfig(max_batch_size=512, max_linger=0.01)
            async with QueryService(engine, config) as service:
                return await service.submit_many(queries)

        results = asyncio.run(run())
        assert [result.extra["batch_size"] for result in results] == [3.0] * 3
        assert all(result.extra["queue_wait"] >= 0.009 for result in results)


class TestAdmissionAndDeadlines:
    def test_overload_rejects_beyond_high_water_mark(self, relation):
        _, engine = make_engine(relation)
        function = sum_function(["N1", "N2"])

        async def run():
            config = ServiceConfig(max_pending=2, max_batch_size=512,
                                   max_linger=30.0)
            async with QueryService(engine, config) as service:
                first = asyncio.ensure_future(
                    service.submit(TopKQuery(Predicate.of(A1=0), function, 3)))
                second = asyncio.ensure_future(
                    service.submit(TopKQuery(Predicate.of(A1=1), function, 3)))
                await asyncio.sleep(0)
                with pytest.raises(ServiceOverloadedError):
                    await service.submit(TopKQuery(Predicate.of(A1=2),
                                                   function, 3))
                snap = service.metrics_snapshot()
                assert snap["serve.rejected"] == 1.0
                assert snap["serve.pending"] == 2.0
                # Graceful close executes what was admitted.
                close_task = asyncio.ensure_future(service.close())
                results = await asyncio.gather(first, second)
                await close_task
                return results, service.metrics_snapshot()

        (first, second), snap = asyncio.run(run())
        assert len(first.tids) == 3 and len(second.tids) == 3
        assert snap["serve.completed"] == 2.0

    def test_submit_many_overload_abandons_partial_batch(self, relation):
        _, engine = make_engine(relation)
        function = sum_function(["N1", "N2"])
        queries = [TopKQuery(Predicate.of(A1=value), function, 3)
                   for value in range(4)]

        async def run():
            config = ServiceConfig(max_pending=2, max_batch_size=512,
                                   max_linger=30.0)
            async with QueryService(engine, config) as service:
                with pytest.raises(ServiceOverloadedError):
                    await service.submit_many(queries)
                return service.metrics_snapshot()

        snap = asyncio.run(run())
        # The two admitted requests were cancelled, not executed.
        assert snap["serve.rejected"] == 1.0
        assert snap["serve.completed"] == 0.0

    def test_per_request_timeout(self, relation):
        _, engine = make_engine(relation)
        function = sum_function(["N1", "N2"])

        async def run():
            config = ServiceConfig(max_batch_size=512, max_linger=30.0)
            async with QueryService(engine, config) as service:
                with pytest.raises(RequestTimeoutError):
                    await service.submit(
                        TopKQuery(Predicate.of(A1=0), function, 3),
                        timeout=0.02)
                timed_out = service.metrics_snapshot()["serve.timed_out"]
                # The service keeps serving after the timeout.
                live = await service.submit(
                    TopKQuery(Predicate.of(A1=1), function, 3), timeout=None)
                return timed_out, live

        timed_out, live = asyncio.run(run())
        assert timed_out == 1.0
        assert len(live.tids) == 3

    def test_cancelled_request_is_dropped_at_drain(self, relation):
        _, engine = make_engine(relation)
        function = sum_function(["N1", "N2"])

        async def run():
            config = ServiceConfig(max_batch_size=512, max_linger=0.05)
            async with QueryService(engine, config) as service:
                doomed = asyncio.ensure_future(service.submit(
                    TopKQuery(Predicate.of(A1=0), function, 3)))
                survivor_future = asyncio.ensure_future(service.submit(
                    TopKQuery(Predicate.of(A1=1), function, 3)))
                await asyncio.sleep(0)
                doomed.cancel()
                survivor = await survivor_future
                with pytest.raises(asyncio.CancelledError):
                    await doomed
                return survivor, service.metrics_snapshot()

        survivor, snap = asyncio.run(run())
        assert snap["serve.cancelled"] == 1.0
        # The cancelled request never reached the engine: the dispatched
        # batch carried only the survivor.
        assert survivor.extra["batch_size"] == 1.0
        assert snap["serve.batched_requests"] == 1.0

    def test_cancellation_mid_flight_is_counted(self, relation):
        _, engine = make_engine(relation)
        function = sum_function(["N1", "N2"])
        original = engine.execute_many
        started = threading.Event()
        release = threading.Event()

        def held_execute_many(batch):
            # The service's first engine call runs on its repro-serve
            # thread, so holding it here leaves the loop free to cancel.
            started.set()
            assert release.wait(timeout=30.0)
            return original(batch)

        engine.execute_many = held_execute_many

        async def run():
            config = ServiceConfig(max_linger=0.0)
            async with QueryService(engine, config) as service:
                task = asyncio.ensure_future(service.submit(
                    TopKQuery(Predicate.of(A1=0), function, 3)))
                # Block (off-loop) until the batch is inside the engine,
                # then abandon the request mid-flight.
                await asyncio.get_running_loop().run_in_executor(
                    None, started.wait)
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                release.set()
            return service.metrics_snapshot()

        snap = asyncio.run(run())
        assert snap["serve.cancelled"] == 1.0
        assert snap["serve.completed"] == 0.0
        assert snap["serve.batched_requests"] == 1.0

    def test_close_drains_backlog_deeper_than_one_batch(self, relation):
        """Shutdown with 2 x max_batch_size + 1 pending strands nothing.

        The drain loop must keep flushing forced micro-batches until the
        queue is empty — a backlog deeper than one batch used to leave the
        overflow waiting forever.  Every submitted request must resolve
        with a real answer (graceful drain, not failure), bit-identical to
        direct execution.
        """
        _, engine = make_engine(relation)
        function = sum_function(["N1", "N2"])
        queries = [TopKQuery(Predicate.of(A1=value % 4), function, k)
                   for value, k in enumerate([2, 3, 4, 5, 6] * 2, start=1)]
        queries = queries[:2 * 4 + 1]  # 2 x max_batch_size + 1
        assert len(queries) == 9

        async def run():
            # A huge linger keeps the deadline trigger from firing: only
            # close() itself can flush what the size trigger leaves behind.
            config = ServiceConfig(max_batch_size=4, max_linger=60.0,
                                   min_linger=60.0)
            service = QueryService(engine, config)
            async with service:
                tasks = [asyncio.ensure_future(service.submit(query))
                         for query in queries]
                await asyncio.sleep(0)  # admit all 9; none dispatched yet
            done, pending = await asyncio.wait(tasks, timeout=10.0)
            return done, pending, service.metrics_snapshot()

        done, pending, snap = asyncio.run(run())
        assert pending == set()
        assert len(done) == len(queries)
        for task in done:
            assert task.result().tids is not None  # raises if any failed
        assert snap["serve.completed"] == float(len(queries))
        assert snap["serve.failed"] == 0.0

    def test_close_drained_answers_match_direct_execution(self, relation):
        _, engine = make_engine(relation)
        function = sum_function(["N1", "N2"])
        queries = [TopKQuery(Predicate.of(A1=value % 4), function, 3 + value)
                   for value in range(9)]

        async def run():
            config = ServiceConfig(max_batch_size=4, max_linger=60.0,
                                   min_linger=60.0)
            service = QueryService(engine, config)
            async with service:
                tasks = [asyncio.ensure_future(service.submit(query))
                         for query in queries]
                await asyncio.sleep(0)
            return await asyncio.gather(*tasks)

        served = asyncio.run(run())
        for query, result in zip(queries, served):
            expected = engine.execute(query)
            assert result.tids == expected.tids
            assert result.scores == expected.scores

    def test_closed_service_rejects_submissions(self, relation):
        _, engine = make_engine(relation)
        query = TopKQuery(Predicate.of(A1=0), sum_function(["N1", "N2"]), 3)

        async def run():
            service = QueryService(engine)
            with pytest.raises(ServiceClosedError):
                await service.submit(query)  # never started
            async with service:
                await service.submit(query)
            with pytest.raises(ServiceClosedError):
                await service.submit(query)  # closed
            with pytest.raises(ServiceClosedError):
                await service.insert({"A1": 0})

        asyncio.run(run())


class TestWritePath:
    def test_insert_between_queue_and_drain_is_not_stale(self, relation):
        # The write-serialization contract: a row inserted after a query
        # was queued but before its batch drained must be visible to that
        # query — the predicate-aware invalidation may not serve the
        # pre-insert cached answer.
        mutable = generate_relation(SyntheticSpec(
            num_tuples=900, num_selection_dims=3, num_ranking_dims=2,
            cardinality=6, seed=78))
        manager, engine = make_sharded_engine(
            mutable, 3, range_dim="A1", block_size=80,
            with_signature=False, with_skyline=False)
        function = sum_function(["N1", "N2"])
        hot = TopKQuery(Predicate.of(A1=4), function, 5)
        cold = TopKQuery(Predicate.of(A1=1), function, 5)
        row = {"A1": 1, "A2": 0, "A3": 0, "N1": -9.0, "N2": -9.0}

        async def run():
            config = ServiceConfig(max_batch_size=512, max_linger=0.05)
            async with QueryService(engine, config) as service:
                # Warm the result cache for both predicates (their first
                # arrivals are only recorded).
                await service.submit_many([hot, cold])
                await service.submit_many([hot, cold])
                # Queue the cold query again, then mutate while it lingers.
                queued = asyncio.ensure_future(service.submit(cold))
                await asyncio.sleep(0)
                new_tid = await service.insert(row)
                result = await queued
                hot_again = await service.submit(hot)
                return new_tid, result, hot_again

        new_tid, result, hot_again = asyncio.run(run())
        assert new_tid == 900
        # The queued query re-executed against the post-insert data...
        assert result.extra.get("result_cache") != "hit"
        assert result.tids[0] == new_tid
        # ...while the provably-unaffected predicate stayed cached.
        assert hot_again.extra["result_cache"] == "hit"

    def test_insert_waits_for_inflight_batches(self, relation):
        mutable = generate_relation(SyntheticSpec(
            num_tuples=600, num_selection_dims=3, num_ranking_dims=2,
            cardinality=6, seed=79))
        manager, engine = make_sharded_engine(
            mutable, 2, range_dim="A1", block_size=80,
            with_signature=False, with_skyline=False)
        function = sum_function(["N1", "N2"])
        order = []
        original = engine.execute_many

        def slow_execute_many(batch):
            order.append("engine-start")
            result = original(batch)
            order.append("engine-end")
            return result

        engine.execute_many = slow_execute_many

        async def run():
            config = ServiceConfig(max_linger=0.0, max_batch_size=512)
            async with QueryService(engine, config) as service:
                submitted = asyncio.ensure_future(service.submit(
                    TopKQuery(Predicate.of(), function, 3)))
                # Let the batch reach the engine, then race an insert.
                while not order:
                    await asyncio.sleep(0.001)
                order.append("insert-requested")
                tid = await service.insert(
                    {"A1": 0, "A2": 0, "A3": 0, "N1": 0.0, "N2": 0.0})
                order.append("insert-done")
                await submitted
                return tid

        asyncio.run(run())
        # The insert could not slot in before the in-flight batch finished.
        assert order.index("engine-end") < order.index("insert-done")

    def test_reshard_through_service_keeps_answers(self, relation):
        from repro.shard import HashShardingPolicy

        mutable = generate_relation(SyntheticSpec(
            num_tuples=700, num_selection_dims=3, num_ranking_dims=2,
            cardinality=6, seed=80))
        manager, engine = make_sharded_engine(
            mutable, 3, range_dim="A1", block_size=80,
            with_signature=False, with_skyline=False)
        reference = Executor.for_relation(mutable, block_size=80,
                                          with_signature=False,
                                          with_skyline=False)
        queries = mixed_workload()
        expected = [reference.execute(query) for query in queries]

        async def run():
            async with QueryService(engine,
                                    ServiceConfig(max_linger=0.005)) as service:
                before = await service.submit_many(queries)
                await service.reshard(HashShardingPolicy(2))
                after = await service.submit_many(queries)
                return before, after

        before, after = asyncio.run(run())
        for alone, first, second in zip(expected, before, after):
            assert alone.tids == first.tids == second.tids
            assert alone.scores == first.scores == second.scores

    def test_unsharded_service_has_no_reshard(self, relation):
        _, engine = make_engine(relation)

        async def run():
            async with QueryService(engine, relation=relation) as service:
                with pytest.raises(ServeError, match="ShardManager"):
                    await service.reshard(object())

        asyncio.run(run())


class TestStatsViews:
    def test_merged_scatter_cache_stats(self, relation):
        manager, engine = make_engine(relation, num_shards=3)
        queries = mixed_workload()
        engine.execute_many(queries)  # the first arrivals are only recorded
        engine.execute_many(queries)
        engine.execute_many(queries)  # repeats: front-door hits
        stats = engine.metrics_snapshot()
        # Front-door result cache, per-shard sums, and fusion counters all
        # come from the one merged view.
        assert stats["shard.result_hits"] >= float(len(queries))
        assert stats["shard.fused_groups"] >= 2.0
        assert stats["shard.fused_queries"] >= 6.0
        assert stats["shard.shards_built"] == 3.0
        built = manager.built_executors()
        assert len(built) == 3
        for name in ("engine.bound_hits", "engine.bound_misses",
                     "engine.bound_entries", "engine.fused_queries",
                     "engine.queries"):
            assert stats[name] == sum(executor.metrics_snapshot()[name]
                                      for executor in built.values())

    def test_lazily_pruned_shards_stay_unbuilt_in_stats(self, relation):
        manager, engine = make_engine(relation, num_shards=3)
        function = sum_function(["N1", "N2"])
        # Range shards on A1: one single-value predicate touches one shard.
        engine.execute(TopKQuery(Predicate.of(A1=0), function, 3))
        assert engine.metrics_snapshot()["shard.shards_built"] == 1.0

    def test_service_snapshot_merges_engine_and_service(self, relation):
        _, engine = make_engine(relation)
        queries = mixed_workload()
        engine.execute_many(queries)  # the first arrivals are only recorded

        async def run():
            async with QueryService(engine,
                                    ServiceConfig(max_linger=0.005)) as service:
                await service.submit_many(queries)
                await service.submit_many(queries)  # cache hits
                return service.metrics_snapshot()

        snap = asyncio.run(run())
        assert snap["serve.submitted"] == float(2 * len(queries))
        assert snap["serve.completed"] == float(2 * len(queries))
        for key in ("serve.latency_seconds.p50", "serve.latency_seconds.p95",
                    "serve.latency_seconds.p99",
                    "serve.queue_wait_seconds.p50", "serve.batches",
                    "serve.batched_requests", "serve.fused_requests",
                    "serve.current_linger", "serve.pending",
                    "engine.result_hits", "engine.fused_queries",
                    "engine.bound_hits", "engine.bound_misses"):
            assert key in snap
        assert snap["serve.pending"] == 0.0
        assert snap["engine.result_hits"] >= float(len(queries) - 1)
        assert snap["serve.fused_requests"] <= snap["serve.batched_requests"]

    def test_percentile_nearest_rank(self):
        from repro.obs.metrics import percentile

        assert percentile([], 50) == 0.0
        # Nearest rank: ceil(q/100 * n), never rounded half-to-even.
        assert percentile([1.0, 2.0], 50) == 1.0
        assert percentile([6.0, 5.0, 4.0, 3.0, 2.0, 1.0], 50) == 3.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 99) == 4.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 25) == 1.0

    def test_fusion_the_service_did_not_cause_is_not_counted(self, relation):
        _, engine = make_engine(relation, num_shards=3)
        function = sum_function(["N1", "N2"])
        warm = [TopKQuery(Predicate.of(), function, k) for k in (2, 5, 8)]
        # Fusion the engine did *before* the service attached (``warm[0]``
        # arrived before, so its answer is kept)...
        engine.execute(warm[0])
        engine.execute_many(warm)
        assert engine.metrics_snapshot()["shard.fused_queries"] == 3.0
        other = LinearFunction(["N1", "N2"], [2.0, 1.0])

        async def run():
            config = ServiceConfig(max_batch_size=16, max_linger=0.05)
            async with QueryService(engine, config) as service:
                # ...and a cached copy of its answer, still tagged with its
                # fused group, are not the service's; the two queries that
                # share ``other`` in one dispatch are.
                answers = await service.submit_many([
                    warm[0],
                    TopKQuery(Predicate.of(A1=0), other, 3),
                    TopKQuery(Predicate.of(A1=1), other, 3),
                    TopKQuery(Predicate.of(A1=0),
                              LinearFunction(["N1"], [1.0]), 3),
                ])
                return answers, service.metrics_snapshot()

        answers, snap = asyncio.run(run())
        assert answers[0].extra["result_cache"] == "hit"
        assert answers[0].extra["fused_group_size"] == 3.0
        assert [a.extra["fused_group_size"] for a in answers[1:]] == [
            2.0, 2.0, 1.0]
        assert snap["serve.fused_requests"] == 2.0
        assert snap["shard.fused_queries"] == 5.0  # the lifetime counter

    def test_config_validation(self):
        with pytest.raises(ServeError):
            ServiceConfig(max_batch_size=0)
        with pytest.raises(ServeError):
            ServiceConfig(min_linger=2.0, max_linger=1.0)
        with pytest.raises(ServeError):
            ServiceConfig(default_timeout=0.0)


class TestEngineFailureMapping:
    """Engine-side fault surfaces map to typed serving errors."""

    def test_map_engine_error_types(self, relation):
        from repro.errors import DeadlineExceededError, ShardWorkerError
        from repro.serve import ShardUnavailableError

        _, engine = make_engine(relation)
        service = QueryService(engine)  # mapping needs no running loop
        died = ShardWorkerError("shard 1 is unreachable",
                                shard_index=1)
        mapped = service._map_engine_error(died)
        assert isinstance(mapped, ShardUnavailableError)
        assert mapped.__cause__ is died
        assert "shard unavailable" in str(mapped)
        late = DeadlineExceededError("deadline exceeded before scatter")
        mapped = service._map_engine_error(late)
        assert isinstance(mapped, RequestTimeoutError)
        assert mapped.__cause__ is late
        other = ValueError("not an engine fault")
        assert service._map_engine_error(other) is other

    def test_engine_shard_failure_surfaces_as_shard_unavailable(
            self, relation):
        from repro.errors import ShardWorkerError
        from repro.serve import ShardUnavailableError

        _, engine = make_engine(relation)
        original = engine.execute_many
        broken = {"on": True}

        def flaky_execute_many(batch):
            if broken["on"]:
                raise ShardWorkerError(
                    "shard 1 is unreachable",
                    shard_index=1)
            return original(batch)

        engine.execute_many = flaky_execute_many
        query = TopKQuery(Predicate.of(A1=0), sum_function(["N1", "N2"]), 3)

        async def run():
            config = ServiceConfig(max_linger=0.0)
            async with QueryService(engine, config) as service:
                with pytest.raises(ShardUnavailableError) as excinfo:
                    await service.submit(query)
                assert isinstance(excinfo.value.__cause__, ShardWorkerError)
                # The service outlives the shard loss: once the engine
                # recovers, the same service answers again.
                broken["on"] = False
                result = await service.submit(query)
                return result, service.metrics_snapshot()

        result, snap = asyncio.run(run())
        assert len(result.tids) == 3
        assert snap["serve.failed"] == 1.0
        assert snap["serve.completed"] == 1.0

    def test_partial_batch_failure_resolves_per_position(self, relation):
        """One fused group's failure rejects its members, not the batch."""
        from repro.fault import FaultInjector
        from repro.serve import ShardUnavailableError

        _, engine = make_engine(relation, num_shards=3)
        engine.fault_injector = FaultInjector(
            seed=9, rates={"worker.crash.pre": 1.0}, max_faults=1)
        f_hit = sum_function(["N1", "N2"])
        f_spared = sum_function(["N1"])
        queries = [TopKQuery(Predicate.of(), f_hit, 3),
                   TopKQuery(Predicate.of(), f_hit, 5),
                   TopKQuery(Predicate.of(), f_spared, 3),
                   TopKQuery(Predicate.of(), f_spared, 5)]

        async def run():
            config = ServiceConfig(max_batch_size=4, max_linger=0.2)
            async with QueryService(engine, config) as service:
                tasks = [asyncio.ensure_future(service.submit(query))
                         for query in queries]
                outcomes = await asyncio.gather(*tasks,
                                                return_exceptions=True)
                return outcomes, service.metrics_snapshot()

        outcomes, snap = asyncio.run(run())
        assert isinstance(outcomes[0], ShardUnavailableError)
        assert isinstance(outcomes[1], ShardUnavailableError)
        for query, result in zip(queries[2:], outcomes[2:]):
            expected = engine.execute(query)
            assert result.tids == expected.tids
            assert result.scores == expected.scores
        assert snap["serve.failed"] == 2.0
        assert snap["serve.completed"] == 2.0

    def test_close_force_drains_through_engine_failures(self, relation):
        """Shutdown under a dead engine resolves every future — no hang."""
        from repro.errors import ShardWorkerError
        from repro.serve import ShardUnavailableError

        _, engine = make_engine(relation)

        def broken_execute_many(batch):
            raise ShardWorkerError(
                "shard 0 is unreachable", shard_index=0)

        engine.execute_many = broken_execute_many
        function = sum_function(["N1", "N2"])
        queries = [TopKQuery(Predicate.of(A1=value % 4), function, 3)
                   for value in range(9)]

        async def run():
            config = ServiceConfig(max_batch_size=4, max_linger=60.0,
                                   min_linger=60.0)
            service = QueryService(engine, config)
            async with service:
                tasks = [asyncio.ensure_future(service.submit(query))
                         for query in queries]
                await asyncio.sleep(0)  # admit all; none dispatched yet
            done, pending = await asyncio.wait(tasks, timeout=10.0)
            return done, pending, service.metrics_snapshot()

        done, pending, snap = asyncio.run(run())
        assert pending == set()
        for task in done:
            with pytest.raises(ShardUnavailableError):
                task.result()
        assert snap["serve.failed"] == float(len(queries))


class TestDeadlinePropagation:
    def test_submit_timeout_mints_an_engine_deadline(self, relation):
        _, engine = make_engine(relation)
        captured = {}
        original = engine.execute_many

        def capturing(batch, parent_span=None, deadline=None,
                      allow_partial=None):
            captured["deadline"] = deadline
            return original(batch, parent_span=parent_span)

        engine.execute_many = capturing  # installed before __init__ inspects
        query = TopKQuery(Predicate.of(A1=0), sum_function(["N1", "N2"]), 3)

        async def run():
            config = ServiceConfig(max_linger=0.0)
            async with QueryService(engine, config) as service:
                await service.submit(query, timeout=5.0)
                first = captured["deadline"]
                await service.submit(query, timeout=None)
                return first, captured["deadline"]

        bounded, unbounded = asyncio.run(run())
        # The deadline the engine saw ticks on the service clock and is
        # no looser than the submit timeout that minted it.
        assert bounded is not None
        assert 0.0 < bounded.remaining() <= 5.0
        # No timeout, no deadline: the engine keeps its unbounded waits.
        assert unbounded is None

    def test_mixed_batch_omits_the_engine_deadline(self, relation):
        """One unbounded member vetoes the batch's engine deadline.

        The engine-side deadline is the max of the members' deadlines —
        but only when every live member has one; bounding an unbounded
        request would let a peer's timeout cancel work the unbounded
        client is still entitled to.
        """
        _, engine = make_engine(relation)
        seen = []
        original = engine.execute_many

        def capturing(batch, parent_span=None, deadline=None,
                      allow_partial=None):
            seen.append(deadline)
            return original(batch, parent_span=parent_span)

        engine.execute_many = capturing
        function = sum_function(["N1", "N2"])

        async def run():
            config = ServiceConfig(max_batch_size=2, max_linger=0.2)
            async with QueryService(engine, config) as service:
                await asyncio.gather(
                    service.submit(TopKQuery(Predicate.of(A1=0), function, 3),
                                   timeout=5.0),
                    service.submit(TopKQuery(Predicate.of(A1=1), function, 3),
                                   timeout=None))

        asyncio.run(run())
        assert seen and all(deadline is None for deadline in seen)


class BookkeepingFailure:
    """A duck-typed engine that answers ``"broken"`` with an object the
    service cannot annotate: the batch holding it fails after its engine
    call, in the service's own bookkeeping."""

    def execute_many(self, queries):
        return [object() if query == "broken" else
                QueryResult(tids=(len(query),), scores=(0.0,))
                for query in queries]


class TestDrainLoop:
    """The drain loop runs each due batch itself, under the engine slot."""

    def test_a_batch_failing_its_bookkeeping_fails_only_its_members(self):
        async def main():
            async with QueryService(BookkeepingFailure(),
                                    ServiceConfig(max_linger=0.0)) as service:
                outcomes = await asyncio.wait_for(asyncio.gather(
                    service.submit_many(["broken", "peer"]),
                    return_exceptions=True), 5.0)
                after = await asyncio.wait_for(service.submit("after"), 5.0)
                return outcomes, after, service.metrics_snapshot()

        outcomes, after, snapshot = asyncio.run(main())
        assert isinstance(outcomes[0], AttributeError)
        assert after.tids == (len("after"),)
        assert snapshot["serve.failed"] == 2.0
        assert snapshot["serve.completed"] == 1.0

    def test_no_task_is_spawned_per_batch(self, relation):
        _, engine = make_engine(relation)

        async def main():
            async with QueryService(engine, ServiceConfig(max_linger=0.0)) \
                    as service:
                tasks = len(asyncio.all_tasks())
                spawned = []
                loop = asyncio.get_running_loop()
                create_task = loop.create_task

                def counting(coro, **kwargs):
                    spawned.append(getattr(coro, "__qualname__", ""))
                    return create_task(coro, **kwargs)

                loop.create_task = counting
                try:
                    for query in mixed_workload():
                        await service.submit(query)
                finally:
                    del loop.create_task
                return tasks, len(asyncio.all_tasks()), spawned

        before, after, spawned = asyncio.run(main())
        assert before == after
        assert not [name for name in spawned if "_dispatch" in name]


class HeldEngine:
    """A stub engine that records what it executes, in order.

    Its first call blocks on a ``threading.Event`` — after telling the
    event loop (``call_soon_threadsafe``) that the engine is now busy —
    so a test can build a backlog behind a held engine and release it
    without a single ``sleep`` or latency comparison.
    """

    def __init__(self) -> None:
        self.executed = []
        self.release = threading.Event()
        self.busy = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        self._held = False

    def _hold_first_call(self) -> None:
        if not self._held:
            self._held = True
            self._loop.call_soon_threadsafe(self.busy.set)
            assert self.release.wait(timeout=30.0)

    def execute_many(self, queries):
        self._hold_first_call()
        self.executed.extend(queries)
        return [QueryResult(tids=(), scores=()) for _ in queries]

    def execute(self, query):
        return self.execute_many([query])[0]


#: The backlog of ``TestBacklogOrder`` as ``(name, priority, client_id)``
#: in admission order: 8 background requests from three clients, then 6
#: interactive ones from a chatty client and 1 from a quiet one.
BACKLOG = [(f"ba{i}", "background", "abc"[i % 3]) for i in range(8)]
URGENT = ([(f"chatty{i}", "interactive", "chatty") for i in range(6)]
          + [("quiet0", "interactive", "quiet")])
#: What one scheduler makes of it, four per batch: interactive overtakes
#: the older background backlog 8:1 without starving it (``ba0`` rides
#: the second batch), and the quiet client is served second, not seventh.
BACKLOG_ORDER = (["chatty0", "quiet0", "chatty1", "chatty2",
                  "ba0", "chatty3", "chatty4", "chatty5"]
                 + [f"ba{i}" for i in range(1, 8)])


class TestBacklogOrder:
    """The backlog waits where it is ordered — pinned without a clock."""

    def test_backlog_behind_a_held_engine_runs_in_scheduler_order(self):
        async def run():
            engine = HeldEngine()
            config = ServiceConfig(max_batch_size=4, max_linger=0.0)
            async with QueryService(engine, config) as service:
                tasks = [asyncio.ensure_future(service.submit("primer"))]
                await engine.busy.wait()  # the engine's one slot is held
                for wave in (BACKLOG, URGENT):
                    tasks += [asyncio.ensure_future(service.submit(
                        name, priority=priority, client_id=client_id))
                        for name, priority, client_id in wave]
                    await asyncio.sleep(0)  # every submit admits its request
                assert len(service.batcher) == len(BACKLOG) + len(URGENT)
                engine.release.set()
                await asyncio.gather(*tasks)
                return engine.executed, service.metrics_snapshot()

        executed, snap = asyncio.run(run())
        assert executed == ["primer"] + BACKLOG_ORDER
        # 1 + 15 requests in 1 + 4 engine calls: the backlog rode full
        # batches, it was not dispatched as it arrived.
        assert snap["serve.batches"] == 5.0

    def test_stream_timed_out_while_queued_never_reaches_the_engine(self):
        async def run():
            engine = HeldEngine()
            config = ServiceConfig(max_linger=0.0)
            async with QueryService(engine, config) as service:
                primer = asyncio.ensure_future(service.submit("primer"))
                await engine.busy.wait()
                with pytest.raises(RequestTimeoutError):
                    async for _frame in service.submit_stream(
                            "stream", timeout=0.02, priority="batch"):
                        pass
                engine.release.set()
                await primer
                snap = service.metrics_snapshot()
            return engine.executed, snap

        executed, snap = asyncio.run(run())
        assert executed == ["primer"]
        assert snap["serve.submitted"] == 2.0  # the stream was admitted, counted
        assert snap["serve.timed_out"] == 1.0
        assert snap["serve.cancelled"] == 0.0


class ClockedEngine:
    """An engine wrapper whose every call takes ``cost`` seconds of a
    :class:`FakeClock`, advanced inside the call.

    It records the thread each call ran on and when calls enter and
    leave, so where the service runs an engine call is pinned without a
    sleep or a wall-clock read.  ``execute`` relays its answer as two
    verified prefixes before returning it, as a streaming engine does.
    ``hold``, when set, runs inside each call after it enters (a test
    parks the call there); ``holds_gil`` is the inner engine's.
    """

    def __init__(self, inner, clock: FakeClock) -> None:
        self.inner = inner
        self.clock = clock
        self.cost = 0.0
        self.hold = None
        self.holds_gil = inner.holds_gil
        self.threads = []
        self.events = []

    def call(self, kind, run):
        self.events.append(("enter", kind))
        self.threads.append(threading.current_thread().name)
        self.clock.t += self.cost
        if self.hold is not None:
            self.hold()
        try:
            return run()
        finally:
            self.events.append(("exit", kind))

    def execute_many(self, queries):
        return self.call("read", lambda: self.inner.execute_many(queries))

    def execute(self, query, on_progress=None):
        def run():
            result = self.inner.execute(query)
            pairs = list(zip(result.tids, result.scores))
            on_progress(0, pairs[:1])
            on_progress(1, pairs[1:])
            return result

        return self.call("stream", run)


class ClockedManager:
    """The write path's manager, its writes timed like engine calls."""

    def __init__(self, inner, engine: ClockedEngine) -> None:
        self.inner = inner
        self.engine = engine

    def insert(self, row):
        return self.engine.call("write", lambda: self.inner.insert(row))

    def reshard(self, policy):
        return self.engine.call("write", lambda: self.inner.reshard(policy))


def parked(entered: asyncio.Event, release: threading.Event):
    """A ``ClockedEngine.hold`` that tells the loop the call has entered
    the engine, then parks it until ``release`` is set."""
    loop = asyncio.get_running_loop()

    def hold():
        loop.call_soon_threadsafe(entered.set)
        assert release.wait(timeout=10.0)

    return hold


class TestWhereTheEngineRuns:
    """An engine call runs inline on the loop thread after a call shorter
    than one switch interval, on an engine that holds the GIL and with no
    thread call still running; on ``repro-serve_0`` otherwise."""

    SWITCH = sys.getswitchinterval()
    ON_THREAD = "repro-serve_0"

    def served(self, relation, costs, num_shards=0):
        """Submit one query per cost, in turn; the engine call for the
        i-th takes ``costs[i]``.  Returns the loop thread's name, the
        threads the calls ran on, the answers, their queries and the
        merged snapshot."""
        _, inner = make_engine(relation, num_shards)
        clock = FakeClock()
        engine = ClockedEngine(inner, clock)
        queries = mixed_workload()[:len(costs)]

        async def run():
            config = ServiceConfig(max_linger=0.0)
            async with QueryService(engine, config, clock=clock) as service:
                answers = []
                for query, cost in zip(queries, costs):
                    engine.cost = cost
                    answers.append(await service.submit(query))
                return (threading.current_thread().name, answers,
                        service.metrics_snapshot())

        loop_thread, answers, snap = asyncio.run(run())
        return loop_thread, engine.threads, answers, queries, snap

    def test_the_first_call_runs_on_the_engine_thread(self, relation):
        _, threads, _, _, snap = self.served(relation, [0.0])
        assert threads == [self.ON_THREAD]
        assert snap["serve.engine_calls.thread"] == 1.0
        assert snap["serve.engine_calls.loop"] == 0.0

    def test_after_a_short_call_the_next_runs_on_the_loop_thread(
            self, relation):
        loop_thread, threads, _, _, snap = self.served(
            relation, [0.0, self.SWITCH / 2, 0.0])
        assert threads == [self.ON_THREAD, loop_thread, loop_thread]
        assert snap["serve.engine_calls.loop"] == 2.0
        assert snap["serve.engine_calls.thread"] == 1.0

    def test_after_a_call_at_the_switch_interval_the_next_goes_back(
            self, relation):
        loop_thread, threads, _, _, snap = self.served(
            relation, [0.0, self.SWITCH, 0.0, 2 * self.SWITCH, 0.0])
        assert threads == [self.ON_THREAD, loop_thread, self.ON_THREAD,
                           loop_thread, self.ON_THREAD]
        assert snap["serve.engine_calls.loop"] == 2.0
        assert snap["serve.engine_calls.thread"] == 3.0

    def test_a_batch_holding_a_stream_runs_on_the_thread(self, relation):
        _, inner = make_engine(relation)
        clock = FakeClock()
        engine = ClockedEngine(inner, clock)
        query = TopKQuery(Predicate.of(), sum_function(["N1", "N2"]), 3)

        async def run():
            config = ServiceConfig(max_linger=0.0)
            async with QueryService(engine, config, clock=clock) as service:
                await service.submit(query)  # short: the next may inline
                frames = [frame async for frame in
                          service.submit_stream(query)]
                return threading.current_thread().name, frames

        loop_thread, frames = asyncio.run(run())
        assert engine.threads == [self.ON_THREAD, self.ON_THREAD]
        assert [frame[0] for frame in frames] == ["prefix", "prefix",
                                                  "final"]
        final = frames[-1][1]
        assert frames[0][1:] == (0, list(zip(final.tids, final.scores))[:1])
        assert frames[1][1:] == (1, list(zip(final.tids, final.scores))[1:])
        assert loop_thread not in engine.threads

    def test_insert_follows_the_same_rule_and_never_overlaps(self):
        mutable = generate_relation(SyntheticSpec(
            num_tuples=600, num_selection_dims=3, num_ranking_dims=2,
            cardinality=6, seed=81))
        manager, inner = make_sharded_engine(
            mutable, 2, block_size=80, with_signature=False,
            with_skyline=False)
        clock = FakeClock()
        engine = ClockedEngine(inner, clock)
        function = sum_function(["N1", "N2"])
        query = TopKQuery(Predicate.of(A1=1), function, 3)

        def row(n):
            return {"A1": 1, "A2": 0, "A3": 0, "N1": -n, "N2": -n}

        async def run():
            config = ServiceConfig(max_linger=0.0)
            async with QueryService(engine, config, clock=clock,
                                    manager=ClockedManager(manager, engine)
                                    ) as service:
                await service.submit(query)  # first: the thread
                engine.cost = self.SWITCH
                await service.insert(row(9.0))  # after a short call: inline
                engine.cost = 0.0
                await service.insert(row(8.0))  # after a slow one: thread
                await service.insert(row(7.0))  # after a short one: inline
                # A write racing two admitted reads takes the idle engine
                # first; the reads ride one batch after it.
                racing = await asyncio.gather(
                    service.submit(query), service.insert(row(10.0)),
                    service.submit(query))
                return threading.current_thread().name, racing

        loop_thread, (first, tid, second) = asyncio.run(run())
        assert engine.threads == [self.ON_THREAD, loop_thread,
                                  self.ON_THREAD, loop_thread,
                                  loop_thread, loop_thread]
        kinds = [kind for _, kind in engine.events[::2]]
        assert kinds == ["read", "write", "write", "write", "write", "read"]
        # Every call left the engine before the next entered it.
        assert engine.events == [(step, kind) for kind in kinds
                                 for step in ("enter", "exit")]
        assert tid == 603
        assert first.tids[0] == second.tids[0] == tid
        assert first.extra["batch_size"] == 2.0

    @pytest.mark.parametrize("num_shards", [0, 2], ids=["unsharded", "2-hash"])
    def test_answers_match_direct_execute_on_both_paths(self, relation,
                                                        num_shards):
        # Alternating costs alternate the path: thread, loop, thread, ...
        costs = [0.0, 2 * self.SWITCH] * 5
        _, reference = make_engine(relation, num_shards)
        loop_thread, threads, answers, queries, _ = self.served(
            relation, costs, num_shards)
        assert threads == [self.ON_THREAD, loop_thread] * 5
        for query, served in zip(queries, answers):
            alone = reference.execute(query)
            assert served.tids == alone.tids
            assert served.scores == alone.scores

    def test_only_an_engine_that_holds_the_gil_may_run_inline(self,
                                                              relation):
        # Serial in-process legs hold the GIL.  Retry backoff and injected
        # delays wait with it released, and a substituted leg runner may.
        from tests.test_fault import FailingLegs

        assert make_engine(relation)[1].holds_gil
        assert make_engine(relation, 2)[1].holds_gil
        for kwargs in ({"retry_policy": RetryPolicy()},
                       {"fault_injector": FaultInjector(
                           seed=1, rates={"leg.delay": 1.0})}):
            assert not make_sharded_engine(relation, 2, **kwargs)[1].holds_gil
        _, engine = make_sharded_engine(relation, 2)
        engine.legs = FailingLegs(engine.manager, bad_index=0)
        assert not engine.holds_gil

    def test_a_call_that_waits_off_the_gil_leaves_the_loop_free(
            self, relation):
        """A parked call on an engine that does not hold the GIL (a retry
        backoff, say) blocks the engine thread only: a queued
        request's submit timeout still fires while it waits."""
        _, inner = make_engine(relation)
        clock = FakeClock()
        engine = ClockedEngine(inner, clock)
        engine.holds_gil = False
        query = mixed_workload()[0]
        release = threading.Event()

        async def run():
            entered = asyncio.Event()
            config = ServiceConfig(max_linger=0.0)
            async with QueryService(engine, config, clock=clock) as service:
                await service.submit(query)  # short, yet the next is not inline
                engine.hold = parked(entered, release)
                hung = asyncio.ensure_future(service.submit(query))
                await entered.wait()
                engine.hold = None
                with pytest.raises(RequestTimeoutError):
                    await service.submit(query, timeout=0.01)
                during = list(engine.events)
                release.set()
                await hung
                return service.metrics_snapshot(), during

        snap, during = asyncio.run(run())
        assert during[-1] == ("enter", "read")  # still parked
        # The timed-out request was dropped at drain, never executed.
        assert engine.threads == [self.ON_THREAD] * 2
        assert snap["serve.engine_calls.loop"] == 0.0

    @pytest.mark.parametrize("write", ["insert", "reshard"])
    def test_a_cancelled_writer_keeps_the_next_batch_out_until_it_exits(
            self, write):
        mutable = generate_relation(SyntheticSpec(
            num_tuples=600, num_selection_dims=3, num_ranking_dims=2,
            cardinality=6, seed=81))
        manager, inner = make_sharded_engine(
            mutable, 2, block_size=80, with_signature=False,
            with_skyline=False)
        clock = FakeClock()
        engine = ClockedEngine(inner, clock)
        query = TopKQuery(Predicate.of(A1=1), sum_function(["N1", "N2"]), 3)
        release = threading.Event()
        apply = {"insert": lambda service: service.insert(
                     {"A1": 1, "A2": 0, "A3": 0, "N1": -9.0, "N2": -9.0}),
                 "reshard": lambda service: service.reshard(
                     HashShardingPolicy(3))}[write]

        def calls(service):
            snap = service.metrics_snapshot()
            return (snap["serve.engine_calls.loop"]
                    + snap["serve.engine_calls.thread"])

        async def run():
            entered = asyncio.Event()
            config = ServiceConfig(max_linger=0.0)
            async with QueryService(engine, config, clock=clock,
                                    manager=ClockedManager(manager, engine)
                                    ) as service:
                # The writer runs on the thread: an insert after a slow
                # call, a reshard always.  The reshard follows a short one.
                engine.cost = self.SWITCH if write == "insert" else 0.0
                await service.submit(query)
                engine.cost = 0.0
                engine.hold = parked(entered, release)
                writer = asyncio.ensure_future(apply(service))
                await entered.wait()
                engine.hold = None
                writer.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await writer
                reader = asyncio.ensure_future(service.submit(query))
                while calls(service) < 3:  # until the read is dispatched
                    await asyncio.sleep(0)
                during = list(engine.events)
                release.set()
                return during, await reader

        during, answer = asyncio.run(run())
        assert during[-1] == ("enter", "write")  # the read waits behind it
        assert engine.threads == [self.ON_THREAD] * 3
        assert engine.events == [(step, kind)
                                 for kind in ("read", "write", "read")
                                 for step in ("enter", "exit")]
        # The read ran against the written data.
        alone = Executor.for_relation(mutable, block_size=80,
                                      with_signature=False,
                                      with_skyline=False).execute(query)
        assert (answer.tids, answer.scores) == (alone.tids, alone.scores)

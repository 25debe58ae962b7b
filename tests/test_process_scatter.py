"""Process-based scatter: worker lifecycle, crashes, freshness, crossover.

Behavioral coverage of :class:`~repro.shard.ProcessScatterExecutor` and its
:class:`~repro.shard.ShardWorker` plumbing — the parity claims (answers
bit-identical to the brute-force oracle, solo and fused, across shard
counts {1, 2, 7}) live in ``tests/test_parity_oracle.py``.  Here the
subjects are the edges:

* a killed worker process surfaces a :class:`ShardWorkerError` naming the
  shard and exit code instead of hanging, and the next scatter respawns;
* ``insert`` / ``reshard`` through the manager reach the worker processes
  (no stale shared-memory answers);
* the cost model's ``process_leg_overhead`` crossover routes small legs
  to threads and heavy legs to processes;
* ``close()`` / context-manager use provably leaves no worker processes
  and no executor threads behind, and a closed engine stays usable.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading

import pytest

from repro.engine.cost import CostModel
from repro.errors import PlanningError, ShardWorkerError
from repro.functions.linear import sum_function
from repro.query import Predicate, TopKQuery
from repro.serve import QueryService
from repro.shard import (
    HashShardingPolicy,
    ProcessScatterExecutor,
    RangeShardingPolicy,
    ScatterGatherExecutor,
    ShardManager,
)
from repro.workloads import SyntheticSpec, generate_relation


@pytest.fixture(scope="module")
def relation():
    return generate_relation(SyntheticSpec(
        num_tuples=400, num_selection_dims=2, num_ranking_dims=2,
        cardinality=4, seed=21))


def forced(overhead: float) -> CostModel:
    """A cost model pinning the thread/process crossover to one side."""
    model = CostModel()
    model.process_leg_overhead = overhead
    return model


def make_process_engine(relation, num_shards=2, overhead=0.0, **kwargs):
    manager = ShardManager(relation, HashShardingPolicy(num_shards),
                           block_size=50, with_signature=False,
                           with_skyline=False)
    return manager, ProcessScatterExecutor(manager,
                                           cost_model=forced(overhead),
                                           **kwargs)


def topk(k=5, **conditions):
    return TopKQuery(Predicate.of(conditions), sum_function(["N1", "N2"]), k)


class TestWorkerFailure:
    def test_killed_worker_surfaces_shard_and_exit_code(self, relation):
        manager, engine = make_process_engine(relation)
        with engine:
            engine.execute(topk())  # spawns both workers
            worker = engine._workers[0]
            worker.process.kill()
            worker.process.join()
            # A request hitting the dead pipe mid-use must fail loudly —
            # naming the shard and exit code — never hang on the recv.
            with pytest.raises(ShardWorkerError,
                               match=r"shard 0 worker process died "
                                     r"\(exit code -?\d+\)"):
                worker.request("ping")
            # The engine notices the corpse before the next dispatch and
            # respawns: queries keep flowing after a crash.
            manager.invalidate_caches()
            result = engine.execute(topk())
            assert result.tids
            assert engine._workers[0] is not worker
            assert engine._workers[0].alive

    def test_crash_error_is_a_repro_error(self):
        from repro.errors import ReproError

        assert issubclass(ShardWorkerError, ReproError)


class TestFreshness:
    def test_insert_through_manager_reaches_workers(self, relation):
        manager, engine = make_process_engine(relation)
        with engine:
            query = topk(k=3, A1=2)
            engine.execute(query)
            row = {"A1": 2, "A2": 1, "N1": 0.0, "N2": 0.0}  # new global best
            global_tid = manager.insert(row)
            result = engine.execute(query)
            assert result.extra["scatter_mode"] == "processes"
            assert result.tids[0] == global_tid

    def test_reshard_rebuilds_workers_and_keeps_answers(self, relation):
        manager, engine = make_process_engine(relation)
        with engine:
            query = topk(k=6, A2=1)
            before = engine.execute(query)
            old_workers = dict(engine._workers)
            manager.reshard(RangeShardingPolicy(relation, "A1", 3))
            after = engine.execute(query)
            assert after.tids == before.tids
            assert after.scores == before.scores
            # Resharding repartitioned every shard's rows: the old workers'
            # shared-memory copies are stale and must not survive.
            assert all(not worker.alive for worker in old_workers.values())


class TestCrossover:
    def test_small_legs_stay_on_threads(self, relation):
        manager, engine = make_process_engine(relation,
                                              overhead=float("inf"))
        with engine:
            result = engine.execute(topk())
            assert result.extra["scatter_mode"] == "threads"
            assert engine.metrics_snapshot()["shard.workers"] == 0.0
            assert engine._workers == {}

    def test_heavy_legs_offload_to_processes(self, relation):
        manager, engine = make_process_engine(relation, overhead=0.0)
        with engine:
            result = engine.execute(topk())
            assert result.extra["scatter_mode"] == "processes"
            assert engine.metrics_snapshot()["shard.workers"] == 2.0

    def test_worker_legs_never_fill_the_workers_result_caches(self,
                                                              relation):
        _, engine = make_process_engine(relation, num_shards=2)
        with engine:
            queries = [topk(k=4, A1=1), topk(k=6), topk(k=3, A2=2)]
            engine.execute(queries[0])
            engine.execute_many(queries + queries[:1])
            observed = engine.legs.observed()
            # Both workers shipped their engine's registry back, its cache
            # gauges set to what the worker's result cache holds.
            assert len(observed) >= 2
            for registry in observed:
                stats = registry.snapshot()
                assert (stats["engine.result_entries"],
                        stats["engine.result_hits"],
                        stats["engine.result_misses"]) == (0.0, 0.0, 0.0)
            stats = engine.metrics_snapshot()
            assert stats["shard.workers"] == 2.0
            assert stats["shard.result_entries"] == 3.0

    def test_worker_metrics_fold_into_snapshot(self, relation):
        _, engine = make_process_engine(relation)
        with engine:
            engine.execute(topk(k=4, A1=1))
            snap = engine.metrics_snapshot()
            # The per-shard engines live in other processes; their
            # ``engine.*`` counters ride back on the reply and must fold
            # into the merged snapshot exactly like in-process stacks do.
            assert snap.get("engine.queries", 0.0) > 0.0
            assert snap.get("shard.process_legs", 0.0) >= 2.0


class TestLifecycle:
    def test_context_manager_leaves_no_workers_or_threads(self, relation):
        threads_before = set(threading.enumerate())
        manager, engine = make_process_engine(relation, parallel=True)
        with engine:
            engine.execute(topk())
            assert engine.metrics_snapshot()["shard.workers"] == 2.0
        assert multiprocessing.active_children() == []
        leaked = set(threading.enumerate()) - threads_before
        assert leaked == set()

    def test_thread_scatter_close_leaves_no_pool_threads(self, relation):
        threads_before = set(threading.enumerate())
        manager = ShardManager(relation, HashShardingPolicy(3),
                               block_size=50, with_signature=False,
                               with_skyline=False)
        with ScatterGatherExecutor(manager, parallel=True) as engine:
            engine.execute(topk())
            assert set(threading.enumerate()) - threads_before
            # A reshard joins the pool sized for the old shard count; the
            # next parallel scatter starts one for the count it finds.
            manager.reshard(HashShardingPolicy(5))
            assert set(threading.enumerate()) - threads_before == set()
            engine.execute_many([topk(k=2), topk(k=3, A1=1)])
            legs = {thread.name
                    for thread in set(threading.enumerate()) - threads_before}
            assert legs and legs <= {f"repro-leg_{i}" for i in range(5)}
        leaked = set(threading.enumerate()) - threads_before
        assert leaked == set()

    @pytest.mark.parametrize("parallel", [False, True])
    def test_stopped_service_leaves_no_workers_or_threads(self, relation,
                                                          parallel):
        threads_before = set(threading.enumerate())
        manager, engine = make_process_engine(relation, parallel=parallel)

        async def serve():
            async with QueryService(engine) as service:
                await service.submit(topk())
                assert engine.metrics_snapshot()["shard.workers"] == 2.0
                return {thread.name for thread in threading.enumerate()}

        while_serving = asyncio.run(serve())
        assert "repro-serve_0" in while_serving
        # QueryService.close() closed the engine it served: the service's
        # thread, the leg pool and the worker processes are all gone.
        assert multiprocessing.active_children() == []
        leaked = set(threading.enumerate()) - threads_before
        assert leaked == set()

    def test_closed_engine_is_lazily_reusable(self, relation):
        manager, engine = make_process_engine(relation)
        try:
            first = engine.execute(topk(k=4))
            engine.close()
            assert engine._workers == {}
            manager.invalidate_caches()
            again = engine.execute(topk(k=4))
            assert again.tids == first.tids
            assert again.scores == first.scores
        finally:
            engine.close()
        assert multiprocessing.active_children() == []

    def test_custom_shard_factory_is_rejected(self, relation):
        from repro.engine import Executor

        manager = ShardManager(
            relation, HashShardingPolicy(2),
            executor_factory=lambda rel: Executor.for_relation(rel))
        with pytest.raises(PlanningError, match="executor_factory"):
            ProcessScatterExecutor(manager)


class TestFaultContainment:
    def test_fused_group_failure_spares_the_rest_of_the_batch(self, relation):
        """One fused group's dead leg fails its riders, not the batch.

        The injected crash (a real process kill, one fault total) lands
        on the first group's leg; strict mode fails that group's two
        members, the second group's legs respawn the worker and answer,
        and the batch surfaces both through one
        :class:`~repro.errors.PartialBatchError`.
        """
        from repro.errors import PartialBatchError
        from repro.fault import FaultInjector
        from tests.conftest import brute_force_topk

        injector = FaultInjector(seed=5, rates={"worker.crash.pre": 1.0},
                                 max_faults=1)
        manager, engine = make_process_engine(relation,
                                              fault_injector=injector)
        f_hit = sum_function(["N1", "N2"])
        f_spared = sum_function(["N1"])
        batch = [TopKQuery(Predicate.of(), f_hit, 3),
                 TopKQuery(Predicate.of(), f_hit, 5),
                 TopKQuery(Predicate.of(), f_spared, 3),
                 TopKQuery(Predicate.of(), f_spared, 5)]
        with engine:
            with pytest.raises(PartialBatchError) as excinfo:
                engine.execute_many(batch)
        error = excinfo.value
        assert set(error.errors) == {0, 1}
        assert isinstance(error.errors[0], ShardWorkerError)
        assert error.results[0] is None and error.results[1] is None
        assert injector.total_fired == 1
        for position in (2, 3):
            result = error.results[position]
            tids, scores = brute_force_topk(relation, batch[position])
            assert result.tids == tids
            assert result.scores == scores

    def test_bounded_recv_kills_hung_worker_and_flags_timeout(self, relation):
        import time

        manager, engine = make_process_engine(relation, recv_timeout=0.3)
        with engine:
            engine.execute(topk())
            worker = engine._workers[0]
            assert worker.recv_timeout == 0.3
            started = time.monotonic()
            with pytest.raises(ShardWorkerError,
                               match="did not reply") as excinfo:
                worker.request("hang", 5.0)
            # The bounded recv, not the 5s nap, ended the wait.
            assert time.monotonic() - started < 3.0
            assert excinfo.value.timed_out
            assert excinfo.value.shard_index == 0
            # A hang kill is a normal worker death to the scatter: the
            # next dispatch respawns and answers.
            manager.invalidate_caches()
            result = engine.execute(topk())
            assert result.tids
            assert engine._workers[0] is not worker
            assert engine._workers[0].alive

    def test_cold_start_is_not_charged_to_the_recv_timeout(self, relation):
        """A booting worker is bounded by its ``ready`` frame, not the leg's.

        The spawn-context cold start (interpreter, numpy import, shared
        memory attach, index build) takes several times this
        ``recv_timeout``; a warm leg takes a few hundredths of it.
        """
        from tests.conftest import brute_force_topk

        manager, engine = make_process_engine(relation, recv_timeout=0.1)
        with engine:
            query = topk()
            result = engine.execute(query)
            assert result.extra["scatter_mode"] == "processes"
            assert (result.tids, result.scores) == brute_force_topk(
                relation, query)
            assert all(worker.alive for worker in engine._workers.values())

    def test_genuine_worker_death_is_not_flagged_timed_out(self, relation):
        manager, engine = make_process_engine(relation)
        with engine:
            engine.execute(topk())
            worker = engine._workers[0]
            worker.process.kill()
            worker.process.join()
            with pytest.raises(ShardWorkerError) as excinfo:
                worker.request("ping")
            # Death and hang are distinguishable: only the recv-bound
            # kill carries the timed_out flag.
            assert not excinfo.value.timed_out

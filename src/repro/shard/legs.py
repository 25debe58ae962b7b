"""The leg seam: the one place a shard's share of a scatter is run.

:class:`~repro.shard.scatter.ScatterGatherExecutor` decides *which* legs
run, in what order, and how answers gather; its
:class:`~repro.fault.guard.LegGuard` decides how hard each is tried; a
:class:`LegRunner` decides only *where* a leg runs.  There are exactly
two: :class:`InProcessLegs` calls the manager's per-shard
:class:`~repro.engine.Executor` on the calling thread (sequential versus
pooled dispatch is the scatter's ``parallel`` flag, not a third runner),
and :class:`WorkerProcessLegs` ships heavy legs to long-lived per-shard
worker processes over shared memory, falling back to the in-process
runner below the cost model's thread/process crossover.  Tests and the
fault demos substitute a failing fake through the same seam
(``engine.legs = FailingLegs(engine.manager, ...)``).
"""

from __future__ import annotations

import multiprocessing
import threading
from typing import Dict, List, Optional, Protocol, Sequence

from repro.engine.cost import CostModel
from repro.engine.plan import QueryPlan
from repro.errors import PlanningError
from repro.fault.inject import InjectedFaultError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN
from repro.shard.manager import Shard, ShardManager
from repro.shard.worker import ShardWorker


class LegRunner(Protocol):
    """Where scatter legs run.  All methods may be called from pool threads."""

    #: The :class:`~repro.fault.inject.FaultInjector` whose
    #: ``worker.crash.*`` points fire in this runner's legs, or ``None``.
    injector: Optional[object]

    def plan(self, shard: Shard, query) -> QueryPlan:
        """How ``shard``'s engine would serve ``query``."""

    def run(self, shard: Shard, queries: Sequence, leg_span,
            deadline) -> List:
        """One leg: ``shard``'s answers to ``queries``, in order.

        ``leg_span`` is the leg's trace span (falsy when tracing is
        off); ``deadline`` bounds the wait where the runner can enforce
        it.  A lost shard raises :class:`~repro.errors.ShardWorkerError`.
        """

    def on_mutation(self, row) -> None:
        """The manager mutated the shards (``row`` is ``None`` on reshard)."""

    def observed(self) -> List[MetricsRegistry]:
        """Every shard engine's registry it has seen, gauges current."""

    def mode(self, queries: Sequence) -> Optional[str]:
        """The ``scatter_mode`` these queries' results record, if any."""

    def close(self) -> None:
        """Release what the runner started; it stays usable afterwards."""


class InProcessLegs:
    """Legs run on the calling thread, on the manager's own shard stacks.

    A leg runs past the stack's result cache (``use_result_cache=False``):
    the scatter's front door, asked first under the same key, is the one
    level; direct callers of ``manager.executor_for(shard)`` keep theirs.

    An attached injector's ``worker.crash.*`` points are *simulated*
    here: the leg raises :class:`~repro.fault.inject.InjectedFaultError`
    before (``pre``) or after (``post``) doing the work.
    """

    def __init__(self, manager: ShardManager) -> None:
        self.manager = manager
        self.injector = None

    def plan(self, shard: Shard, query) -> QueryPlan:
        return self.manager.executor_for(shard).plan(query)

    def run(self, shard: Shard, queries: Sequence, leg_span=NULL_SPAN,
            deadline=None) -> List:
        # ``deadline`` is advisory here: a running in-process leg is not
        # interruptible, the scatter checks it between legs.
        injector = self.injector
        if injector is not None and injector.fires("worker.crash.pre"):
            raise InjectedFaultError("worker.crash.pre", shard.index)
        executor = self.manager.executor_for(shard)
        # ``parent_span`` is the leg span when that is real —
        # contextvars do not cross pool threads, so explicit parenthood
        # is the one reliable channel.
        kwargs = {"parent_span": leg_span or None, "use_result_cache": False}
        if len(queries) == 1:
            # A one-rider leg skips the batch partitioning of
            # ``execute_many`` (every solo front-door query is one).
            results = [executor.execute(queries[0], **kwargs)]
        else:
            results = executor.execute_many(queries, **kwargs)
        if injector is not None and injector.fires("worker.crash.post"):
            raise InjectedFaultError("worker.crash.post", shard.index)
        return results

    def on_mutation(self, row) -> None:
        """Nothing to do: the manager maintains its own stacks."""

    def observed(self) -> List[MetricsRegistry]:
        return [registry
                for executor in self.manager.built_executors().values()
                for registry in executor.observed()]

    def mode(self, queries: Sequence) -> Optional[str]:
        return None

    def close(self) -> None:
        """Nothing to release: the stacks belong to the manager."""


class WorkerProcessLegs:
    """Heavy legs run in per-shard worker processes; light ones in-process.

    * workers spawn **lazily** — the first offloaded leg to a shard pays
      the spawn (bounded by the worker's ``ready`` frame, not by
      ``recv_timeout``), later legs reuse the worker; the shard's data is
      copied **once** into ``multiprocessing.shared_memory`` at spawn,
      after which legs ship pickled queries and gather top-k tuples;
    * a scatter offloads only when some shard's
      :meth:`~repro.engine.cost.CostModel.scatter_leg_cost` exceeds
      :attr:`~repro.engine.cost.CostModel.process_leg_overhead`;
      everything else runs on the un-injected in-process runner;
    * an attached injector is handed to the workers, so injected crashes
      are real process deaths and injected hangs real unresponsive pipes;
    * a worker whose shard data changed is torn down on mutation (its
      shared-memory copy is stale; the next leg respawns it); the others
      are left alone — their shard is unchanged, so their statistics
      still hold, and a leg never fills a worker's result cache;
    * every leg reply ships the worker engine's registry state back
      (cache gauges current); the latest per shard outlives the worker,
      so its work stays in the merged views until a respawned worker
      reports fresh numbers; ``shard.workers`` counts the live ones.
    """

    def __init__(self, manager: ShardManager, cost_model: CostModel,
                 metrics: MetricsRegistry,
                 recv_timeout: Optional[float] = 120.0) -> None:
        if manager.has_custom_factory:
            raise PlanningError(
                "ProcessScatterExecutor rebuilds shard engines inside "
                "worker processes from Executor.for_relation keyword "
                "arguments; a custom executor_factory cannot be shipped "
                "to a spawned process — use ScatterGatherExecutor (threads) "
                "for custom shard stacks")
        self.manager = manager
        self.cost_model = cost_model
        self.recv_timeout = recv_timeout
        self.injector = None
        self._inline = InProcessLegs(manager)
        # spawn: the one start method that is safe next to serving threads.
        self._ctx = multiprocessing.get_context("spawn")
        #: Live workers by shard index (never rebound: the executor
        #: aliases this mapping).
        self.workers: Dict[int, ShardWorker] = {}
        self._shipped: Dict[int, dict] = {}
        self._lock = threading.Lock()
        self._m_process_legs = metrics.counter("shard.process_legs")
        self._m_workers = metrics.gauge("shard.workers")

    def _offload(self, queries: Sequence) -> bool:
        """Whether this scatter clears the thread/process crossover.

        One heavy (query, shard) leg offloads the whole scatter, keeping
        every leg of one query (and every rider of one fused leg) in the
        same mode.
        """
        overhead = self.cost_model.process_leg_overhead
        return any(
            self.cost_model.scatter_leg_cost(query, shard.stats) > overhead
            for query in queries for shard in self.manager.shards)

    def _worker_for(self, shard: Shard) -> ShardWorker:
        """The shard's worker, spawned on first use, respawned if dead."""
        with self._lock:
            worker = self.workers.get(shard.index)
            if worker is not None and not worker.alive:
                del self.workers[shard.index]
                worker.close()
                worker = None
            if worker is None:
                worker = ShardWorker(shard, self.manager.executor_kwargs,
                                     self._ctx,
                                     recv_timeout=self.recv_timeout,
                                     injector=self.injector)
                self.workers[shard.index] = worker
            return worker

    def _request(self, shard: Shard, op: str, payload, timeout=None):
        out, shipped = self._worker_for(shard).request(op, payload,
                                                       timeout=timeout)
        with self._lock:
            self._shipped[shard.index] = shipped
        return out

    def plan(self, shard: Shard, query) -> QueryPlan:
        if not self._offload([query]):
            return self._inline.plan(shard, query)
        return self._request(shard, "plan", query)

    def run(self, shard: Shard, queries: Sequence, leg_span=NULL_SPAN,
            deadline=None) -> List:
        if not self._offload(queries):
            return self._inline.run(shard, queries, leg_span, deadline)
        # A request deadline tightens (never loosens) ``recv_timeout``,
        # so a hung worker is detected within whichever is closer.
        timeout = (None if deadline is None
                   else deadline.bound(self.recv_timeout))
        results = self._request(shard, "execute_many", list(queries), timeout)
        self._m_process_legs.inc()
        if leg_span:
            leg_span.set("worker", "process")
        return results

    def on_mutation(self, row) -> None:
        with self._lock:
            workers = list(self.workers.items())
        shards = {shard.index: shard for shard in self.manager.shards}
        for index, worker in workers:
            shard = shards.get(index)
            if (shard is not None
                    and id(shard.relation) == worker.relation_id
                    and shard.relation.num_tuples == worker.num_rows):
                continue
            with self._lock:
                self.workers.pop(index, None)
            worker.close()

    def observed(self) -> List[MetricsRegistry]:
        with self._lock:
            shipped = list(self._shipped.values())
            self._m_workers.set(sum(worker.alive
                                    for worker in self.workers.values()))
        return self._inline.observed() + [MetricsRegistry.from_state(state)
                                          for state in shipped]

    def mode(self, queries: Sequence) -> Optional[str]:
        # A fused-group rider can piggyback on a heavier member's process
        # leg: a result records its own query's choice, not necessarily
        # where every one of its legs ran.
        return "processes" if self._offload(queries) else "threads"

    def close(self) -> None:
        """Stop every worker (shared memory unlinked); respawn is lazy."""
        with self._lock:
            workers = list(self.workers.values())
            self.workers.clear()
        for worker in workers:
            worker.close()

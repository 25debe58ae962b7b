"""The leg seam: the one place a shard's share of a scatter is run.

:class:`~repro.shard.scatter.ScatterGatherExecutor` decides *which* legs
run, in what order, and how answers gather; its
:class:`~repro.fault.guard.LegGuard` decides how hard each is tried; a
:class:`LegRunner` decides only *how* a leg runs.  There is one:
:class:`InProcessLegs` calls the manager's per-shard
:class:`~repro.engine.Executor` on the calling thread, one leg after
another.  Tests and the fault demos substitute a failing fake through
the same seam (``engine.legs = FailingLegs(engine.manager, ...)``), and a
runner for legs on other machines would plug in here too.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence

from repro.engine.plan import QueryPlan
from repro.fault.inject import InjectedFaultError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN
from repro.shard.manager import Shard, ShardManager


class LegRunner(Protocol):
    """How scatter legs run."""

    #: The :class:`~repro.fault.inject.FaultInjector` whose
    #: ``worker.crash.*`` points fire in this runner's legs, or ``None``.
    injector: Optional[object]

    def plan(self, shard: Shard, query) -> QueryPlan:
        """How ``shard``'s engine would serve ``query``."""

    def run(self, shard: Shard, queries: Sequence, leg_span) -> List:
        """One leg: ``shard``'s answers to ``queries``, in order.

        ``leg_span`` is the leg's trace span (falsy when tracing is
        off).  A lost shard raises :class:`~repro.errors.ShardWorkerError`.
        The guard checks the call's deadline before each leg.
        """

    def observed(self) -> List[MetricsRegistry]:
        """Every shard engine's registry it has seen, gauges current."""


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

    def run(self, shard: Shard, queries: Sequence,
            leg_span=NULL_SPAN) -> List:
        injector = self.injector
        if injector is not None and injector.fires("worker.crash.pre"):
            raise InjectedFaultError("worker.crash.pre", shard.index)
        executor = self.manager.executor_for(shard)
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

    def observed(self) -> List[MetricsRegistry]:
        return [registry
                for executor in self.manager.built_executors().values()
                for registry in executor.observed()]

"""The shard manager: split a relation, own per-shard engine stacks.

:class:`ShardManager` applies a :class:`~repro.shard.policy.ShardingPolicy`
to a relation, materializes one sub-relation per shard (rows keep their
relative order, so a shard's local tid order is also its global tid order),
computes :class:`~repro.shard.stats.ShardStatistics`, and builds the
per-shard engine stacks lazily through ``Executor.for_relation`` — a shard
the planner always prunes never pays index construction.

Mutation goes through the manager: :meth:`insert` routes a new row to its
owning shard and :meth:`reshard` re-splits under a new policy (a new
:attr:`ShardManager.shards` list).  An insert is absorbed by the owner's
built stack in place (``Executor.insert``: the grid cube gains one page
entry per structure, its caches stay warm) and folded into the shard's
statistics; only a stack holding a backend that cannot maintain inserts is
dropped and rebuilt on its next use, as every stack is on a reshard.  The
manager tells no cache: each front door (a shard's stack over its
sub-relation, a scatter/gather executor over the base relation) finds the
new rows by their count when it syncs.
"""

from __future__ import annotations

import inspect

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.engine import Executor
from repro.errors import PlanningError
from repro.shard.policy import ShardingPolicy
from repro.shard.stats import ShardStatistics
from repro.storage.table import Relation


@dataclass
class Shard:
    """One horizontal slice of the base relation."""

    index: int
    relation: Relation
    #: Global tid of every local row, ascending (local tid ``i`` is global
    #: tid ``tid_map[i]``).
    tid_map: np.ndarray
    stats: ShardStatistics


class ShardManager:
    """Splits a relation into shards and owns their engine stacks.

    ``executor_factory`` customizes how a shard's engine stack is built; it
    receives the shard's relation and must return an
    :class:`~repro.engine.Executor`.  By default
    ``Executor.for_relation(shard.relation, **executor_kwargs)`` is used;
    the keywords are checked against its signature here, so a misspelt
    one raises a :class:`TypeError` now rather than at the first query.
    """

    def __init__(self, relation: Relation, policy: ShardingPolicy,
                 executor_factory: Optional[Callable[[Relation], Executor]] = None,
                 **executor_kwargs: object) -> None:
        if executor_factory is None:
            try:
                inspect.signature(Executor.for_relation).bind(
                    relation, **executor_kwargs)
            except TypeError as exc:
                raise TypeError(f"Executor.for_relation() {exc}") from None
        self.relation = relation
        self.policy = policy
        self._executor_factory = executor_factory
        self._executor_kwargs = executor_kwargs
        self._executors: Dict[int, Executor] = {}
        self.shards: List[Shard] = []
        self._split()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _split(self) -> None:
        assignment = self.policy.assign(self.relation)
        if assignment.shape != (self.relation.num_tuples,):
            raise PlanningError("policy assignment must cover every row once")
        if assignment.size and (assignment.min() < 0
                                or assignment.max() >= self.policy.num_shards):
            raise PlanningError(
                f"policy assigned shard indexes outside "
                f"[0, {self.policy.num_shards}); rows would be silently lost")
        shards: List[Shard] = []
        selection = self.relation.selection_matrix()
        ranking = self.relation.ranking_matrix()
        for index in range(self.policy.num_shards):
            tid_map = np.nonzero(assignment == index)[0]
            sub = Relation(
                self.relation.schema,
                selection[tid_map],
                ranking[tid_map],
                name=f"{self.relation.name}#s{index}",
            )
            shards.append(Shard(index=index, relation=sub, tid_map=tid_map,
                                stats=ShardStatistics.of(index, sub)))
        self.shards = shards
        self._executors.clear()

    @property
    def num_shards(self) -> int:
        """Number of shards under management."""
        return self.policy.num_shards

    def executor_for(self, shard: Shard) -> Executor:
        """The shard's engine stack, built on first use and then reused."""
        executor = self._executors.get(shard.index)
        if executor is None:
            if self._executor_factory is not None:
                executor = self._executor_factory(shard.relation)
            else:
                executor = Executor.for_relation(shard.relation,
                                                 **self._executor_kwargs)
            # The shard layer already profiled this sub-relation; hand the
            # profile to the stack's cost planner so it is never re-scanned.
            catalog = getattr(executor, "statistics", None)
            if catalog is not None:
                catalog.seed(shard.relation, shard.stats)
            self._executors[shard.index] = executor
        return executor

    def built_executors(self) -> Dict[int, Executor]:
        """The per-shard engine stacks built so far, keyed by shard index.

        A snapshot for observers (the leg runner merges per-shard
        registries through it); stacks are *not* forced
        into existence, so a shard the statistics always pruned stays
        absent and never pays index construction just to be counted.
        """
        return dict(self._executors)

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, row: Mapping[str, object]) -> int:
        """Append ``row`` to the base relation and its owning shard.

        Returns the new global tid.  The owning shard's built engine stack
        absorbs the row in place; one holding a backend that cannot (see
        :meth:`~repro.engine.Executor.insert`) is dropped untouched and
        rebuilt on its next leg, so every backend covers the shard again.
        """
        global_tid = self.relation.append(row)
        owner = self.policy.shard_for_row(self.relation, row, global_tid)
        shard = self.shards[owner]
        local_tid = shard.relation.append(row)
        shard.tid_map = np.append(shard.tid_map, global_tid)
        if shard.relation.num_tuples == 1:
            # First row of a previously empty shard: initialize the stats
            # (ranking ranges have no empty-shard representation to fold
            # into); afterwards inserts fold in incrementally in O(dims).
            shard.stats = ShardStatistics.of(owner, shard.relation)
        else:
            shard.stats.add_row(row)
        executor = self._executors.get(owner)
        # A stack that would go stale is dropped before any backend writes.
        if executor is not None and not (
                all(backend.maintains_inserts for backend in executor.registry)
                and executor.insert(shard.relation, local_tid, row)):
            del self._executors[owner]
        return global_tid

    def reshard(self, policy: ShardingPolicy) -> None:
        """Re-split the base relation under ``policy``, dropping all stacks."""
        self.policy = policy
        self._split()

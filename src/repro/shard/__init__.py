"""Sharded execution: shard manager, statistics-driven pruning, scatter/gather.

This package scales the single-relation engine horizontally without new
entry points:

* :class:`~repro.shard.policy.ShardingPolicy` — how rows spread over N
  shards (:class:`~repro.shard.policy.HashShardingPolicy` hash-by-row, or
  :class:`~repro.shard.policy.RangeShardingPolicy` contiguous value ranges
  via the equi-width / equi-depth partitioners);
* :class:`~repro.shard.manager.ShardManager` — materializes the per-shard
  sub-relations, their :class:`~repro.shard.stats.ShardStatistics`, and
  lazily-built per-shard engine stacks (``Executor.for_relation``), and
  routes ``insert``/``reshard`` with cache invalidation;
* :class:`~repro.shard.scatter.ScatterGatherExecutor` — the same
  ``execute`` / ``execute_many`` / ``plan`` / ``explain`` surface as
  :class:`repro.engine.Executor`, behind it ONE scatter algorithm (a solo
  query is a group of one): statistics-prune shards, scatter the group
  with one leg per shard (optionally on a thread pool), k-way-merge top-k
  answers under the canonical ``(score, tid)`` order, and re-check
  skylines for cross-shard dominance;
* :class:`~repro.shard.legs.LegRunner` — the one seam a leg is planned
  and run through: :class:`~repro.shard.legs.InProcessLegs` (the
  manager's own stacks) or :class:`~repro.shard.legs.WorkerProcessLegs`
  (long-lived per-shard worker processes,
  :class:`~repro.shard.worker.ShardWorker`, over shared-memory copies of
  the shard data, so Python scoring is no longer capped at one core; the
  cost model prices the thread/process crossover per scatter);
* :class:`~repro.shard.scatter.ProcessScatterExecutor` — the scatter
  constructed over the worker-process runner.

Usage::

    from repro.shard import (
        HashShardingPolicy, RangeShardingPolicy, ScatterGatherExecutor,
        ShardManager,
    )

    manager = ShardManager(relation, RangeShardingPolicy(relation, "A1", 4))
    engine = ScatterGatherExecutor(manager, parallel=True)
    result = engine.execute(query)          # identical to the unsharded answer
    print(result.extra["shards_pruned"])    # why shards were skipped
    print(result.extra["shard_backends"])   # what each consulted shard ran
"""

from repro.shard.legs import InProcessLegs, LegRunner, WorkerProcessLegs
from repro.shard.manager import Shard, ShardManager
from repro.shard.policy import (
    HashShardingPolicy,
    RangeShardingPolicy,
    ShardingPolicy,
)
from repro.shard.scatter import ProcessScatterExecutor, ScatterGatherExecutor
from repro.shard.stats import ShardStatistics
from repro.shard.worker import ShardWorker

__all__ = [
    "HashShardingPolicy",
    "InProcessLegs",
    "LegRunner",
    "ProcessScatterExecutor",
    "RangeShardingPolicy",
    "ScatterGatherExecutor",
    "Shard",
    "ShardManager",
    "ShardStatistics",
    "ShardWorker",
    "ShardingPolicy",
    "WorkerProcessLegs",
]

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
  routes ``insert``/``reshard``;
* :class:`~repro.shard.scatter.ScatterGatherExecutor` — the same
  ``execute`` / ``execute_many`` / ``plan`` / ``explain`` surface as
  :class:`repro.engine.Executor`, behind it ONE scatter algorithm (a solo
  query is a group of one): statistics-prune shards, scatter the group
  with one leg per shard, walked serially in cost order, sort top-k
  answers once under the canonical ``(score, tid)`` order, and re-check
  skylines for cross-shard dominance;
* :class:`~repro.shard.legs.LegRunner` — the one seam a leg is planned
  and run through: :class:`~repro.shard.legs.InProcessLegs` runs it on
  the manager's own stacks, on the calling thread.

Usage::

    from repro.shard import (
        HashShardingPolicy, RangeShardingPolicy, ScatterGatherExecutor,
        ShardManager,
    )

    manager = ShardManager(relation, RangeShardingPolicy(relation, "A1", 4))
    engine = ScatterGatherExecutor(manager)
    result = engine.execute(query)          # identical to the unsharded answer
    print(result.extra["shards_pruned"])    # why shards were skipped
    print(result.extra["shard_backends"])   # what each consulted shard ran
"""

from repro.shard.legs import InProcessLegs, LegRunner
from repro.shard.manager import Shard, ShardManager
from repro.shard.policy import (
    HashShardingPolicy,
    RangeShardingPolicy,
    ShardingPolicy,
)
from repro.shard.scatter import ScatterGatherExecutor
from repro.shard.stats import ShardStatistics

__all__ = [
    "HashShardingPolicy",
    "InProcessLegs",
    "LegRunner",
    "RangeShardingPolicy",
    "ScatterGatherExecutor",
    "Shard",
    "ShardManager",
    "ShardStatistics",
    "ShardingPolicy",
]

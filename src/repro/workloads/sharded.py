"""Workload helpers for the sharded engine: pruned-predicate query sets.

A range-sharded relation answers a query touching one value of the sharding
dimension by consulting a single shard.  The helpers here build exactly
that kind of workload — one query per distinct value of a dimension — so
benchmarks and tests can drive shard pruning deterministically, plus a
convenience constructor wiring relation → manager → scatter/gather engine.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.functions.base import RankingFunction
from repro.functions.linear import sum_function
from repro.query import Predicate, TopKQuery
from repro.storage.table import Relation


def pruned_predicate_queries(relation: Relation, dim: str, k: int = 10,
                             function: Optional[RankingFunction] = None,
                             values: Optional[Sequence[int]] = None,
                             ) -> List[TopKQuery]:
    """One top-k query per value of selection dimension ``dim``.

    Each query's predicate pins ``dim`` to a single value, so on a relation
    range-sharded by ``dim`` every query is answerable by the one shard
    whose range contains that value — the workload that isolates the win
    from statistics-driven shard pruning.
    """
    if function is None:
        function = sum_function(list(relation.ranking_dims))
    if values is None:
        values = [int(v) for v in np.unique(relation.selection_column(dim))]
    return [TopKQuery(Predicate.of({dim: value}), function, k)
            for value in values]


def make_sharded_engine(relation: Relation, num_shards: int,
                        range_dim: Optional[str] = None,
                        retry_policy=None,
                        breaker_policy=None,
                        fault_injector=None,
                        allow_partial: bool = False,
                        **executor_kwargs: object):
    """Wire a relation into a ready-to-query scatter/gather engine.

    ``range_dim`` selects equi-width range sharding on that dimension
    (enabling predicate pruning); ``None`` falls back to hash-by-row.
    Returns ``(manager, engine)``.

    The fault-tolerance kwargs (``retry_policy``, ``breaker_policy``,
    ``fault_injector``, ``allow_partial`` — see :mod:`repro.fault`) are
    forwarded to the executor; everything else in ``executor_kwargs``
    configures the per-shard engine stacks through the manager, which
    rejects a keyword ``Executor.for_relation`` does not take.
    """
    from repro.shard import (
        HashShardingPolicy,
        RangeShardingPolicy,
        ScatterGatherExecutor,
        ShardManager,
    )

    if range_dim is None:
        policy = HashShardingPolicy(num_shards)
    else:
        policy = RangeShardingPolicy(relation, range_dim, num_shards)
    manager = ShardManager(relation, policy, **executor_kwargs)
    return manager, ScatterGatherExecutor(manager,
                                          retry_policy=retry_policy,
                                          breaker_policy=breaker_policy,
                                          fault_injector=fault_injector,
                                          allow_partial=allow_partial)

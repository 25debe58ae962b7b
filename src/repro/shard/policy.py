"""Sharding policies: how a relation's rows are spread over N shards.

A :class:`ShardingPolicy` maps every row of a relation to a shard index in
``[0, num_shards)`` and can place a *new* row (insert routing) the same
way.  Two families are provided:

* :class:`HashShardingPolicy` — round-robin by hashed row position; spreads
  load evenly but gives the planner no pruning structure.
* :class:`RangeShardingPolicy` — contiguous value ranges of one dimension,
  with boundaries from the library's equi-width or equi-depth partitioners
  (Sections 3.2.2 / 3.6.2 reused one level up); a shard's bounding range
  lets the shard planner prove that a predicate cannot match it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping

import numpy as np

from repro.errors import PlanningError
from repro.partition.equidepth import equidepth_boundaries
from repro.partition.equiwidth import equiwidth_boundaries
from repro.storage.table import Relation

#: Knuth's multiplicative hash constant (2^32 / phi), used to decorrelate
#: shard assignment from row order without any per-row state.
_KNUTH = 2654435761


class ShardingPolicy(ABC):
    """Assigns rows (existing and new) of a relation to shards."""

    #: Number of shards this policy produces.
    num_shards: int

    @abstractmethod
    def assign(self, relation: Relation) -> np.ndarray:
        """Shard index of every row, as an ``(T,)`` int array."""

    @abstractmethod
    def shard_for_row(self, relation: Relation, row: Mapping[str, object],
                      global_tid: int) -> int:
        """Shard that owns a new ``row`` appended as ``global_tid``."""

    @abstractmethod
    def describe(self) -> str:
        """Short human-readable description for plans and ``explain``."""


class HashShardingPolicy(ShardingPolicy):
    """Hash-by-row: shard ``(tid * knuth) mod 2^32 mod N``.

    Deterministic, stateless, and uniform — but value-oblivious, so every
    non-empty shard must be consulted for every query.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards <= 0:
            raise PlanningError(f"num_shards must be positive, got {num_shards}")
        self.num_shards = num_shards

    def _shard_of(self, tids: np.ndarray) -> np.ndarray:
        return ((tids.astype(np.uint64) * _KNUTH) % (2 ** 32)) % self.num_shards

    def assign(self, relation: Relation) -> np.ndarray:
        tids = np.arange(relation.num_tuples, dtype=np.int64)
        return self._shard_of(tids).astype(np.int64)

    def shard_for_row(self, relation: Relation, row: Mapping[str, object],
                      global_tid: int) -> int:
        return int(self._shard_of(np.array([global_tid], dtype=np.int64))[0])

    def describe(self) -> str:
        return f"hash({self.num_shards})"


class RangeShardingPolicy(ShardingPolicy):
    """Range-on-dimension: shard ``i`` holds rows with values in range ``i``.

    ``mode="width"`` spaces the boundaries evenly over the column's domain
    (equi-width); ``mode="depth"`` places them at quantiles so every shard
    holds roughly the same number of rows (equi-depth).  The dimension may
    be a selection or a ranking dimension; sharding on a selection dimension
    is what lets equality predicates prune shards.

    Boundaries are frozen at construction from the relation the policy is
    built for; later inserts route by the same boundaries (values outside
    the original domain clamp into the first/last shard).
    """

    def __init__(self, relation: Relation, dim: str, num_shards: int,
                 mode: str = "width") -> None:
        if num_shards <= 0:
            raise PlanningError(f"num_shards must be positive, got {num_shards}")
        if mode not in ("width", "depth"):
            raise PlanningError(f"mode must be 'width' or 'depth', got {mode!r}")
        if not (relation.schema.is_selection(dim) or relation.schema.is_ranking(dim)):
            raise PlanningError(f"unknown dimension {dim!r} for range sharding")
        self.dim = dim
        self.num_shards = num_shards
        self.mode = mode
        values = self._column(relation)
        if mode == "width":
            self.boundaries = equiwidth_boundaries(values, num_shards)
        else:
            self.boundaries = equidepth_boundaries(values, num_shards)

    def _column(self, relation: Relation) -> np.ndarray:
        if relation.schema.is_selection(self.dim):
            return relation.selection_column(self.dim).astype(np.float64)
        return relation.ranking_column(self.dim)

    def _shard_of_values(self, values: np.ndarray) -> np.ndarray:
        # Interior boundaries only: values at or below boundary i fall into
        # shard i, everything beyond the last interior boundary into the
        # final shard — so out-of-domain values clamp instead of erroring.
        interior = self.boundaries[1:-1]
        return np.searchsorted(interior, values, side="left").astype(np.int64)

    def assign(self, relation: Relation) -> np.ndarray:
        return self._shard_of_values(self._column(relation))

    def shard_for_row(self, relation: Relation, row: Mapping[str, object],
                      global_tid: int) -> int:
        value = float(row[self.dim])  # type: ignore[arg-type]
        return int(self._shard_of_values(np.array([value]))[0])

    def describe(self) -> str:
        return f"range({self.dim}, {self.num_shards}, {self.mode})"

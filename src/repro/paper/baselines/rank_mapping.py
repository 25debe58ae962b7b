"""Rank-mapping baseline (Section 3.5.1, after Bruno et al. [14]).

The rank-mapping technique converts a top-k query into a multi-dimensional
range query: bounds ``n_i`` on each ranking dimension are chosen so that
every tuple scoring at most the (unknown) k-th best score lies inside the
range.  The thesis gives the comparison the strongest possible version of
this baseline by feeding it the *optimal* bound values — derived from the
true k-th score — and we do the same: an oracle pass (not charged to the
method) computes the exact k-th score, and the bounds follow from the
ranking function.

Costs charged: the selection-index lookups plus one page access per block of
tuples that satisfy both the boolean conditions and the derived range — the
tuples a multi-dimensional index on (selection dims, ranking dims) would
fetch.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Optional, Tuple

import numpy as np

from repro.storage.table_scan import table_pages
from repro.errors import QueryError
from repro.functions.base import RankingFunction
from repro.functions.distance import SquaredDistanceFunction
from repro.functions.linear import LinearFunction
from repro.query import Predicate, QueryResult, TopKQuery
from repro.paper.bitmap import SelectionIndex
from repro.storage.pager import DEFAULT_PAGE_SIZE
from repro.storage.table import Relation

#: Tuples fetched per page when scanning a clustered multi-dimensional index.
_TUPLES_PER_PAGE = 128


def optimal_range_bounds(function: RankingFunction, kth_score: float
                         ) -> Dict[str, Tuple[float, float]]:
    """Per-dimension bounds implied by ``f(t) <= kth_score``.

    Linear functions with non-negative weights give ``N_i <= s*/w_i``;
    squared-distance functions give ``|N_i - t_i| <= sqrt(s*/w_i)``.  Other
    functions fall back to an unbounded range (the mapping provides no
    pruning), which is also how the original technique degrades.
    """
    bounds: Dict[str, Tuple[float, float]] = {}
    if isinstance(function, LinearFunction) and all(w >= 0 for w in function.weights):
        for dim, weight in zip(function.dims, function.weights):
            if weight > 0:
                bounds[dim] = (-math.inf, (kth_score - function.constant) / weight)
            else:
                bounds[dim] = (-math.inf, math.inf)
        return bounds
    if isinstance(function, SquaredDistanceFunction):
        for dim, target, weight in zip(function.dims, function.targets, function.weights):
            if weight > 0:
                radius = math.sqrt(max(0.0, kth_score) / weight)
                bounds[dim] = (target - radius, target + radius)
            else:
                bounds[dim] = (-math.inf, math.inf)
        return bounds
    for dim in function.dims:
        bounds[dim] = (-math.inf, math.inf)
    return bounds


class RankMappingTopK:
    """Answer top-k queries by mapping them to optimally-bounded range queries."""

    def __init__(self, relation: Relation, index: Optional[SelectionIndex] = None,
                 page_size: int = DEFAULT_PAGE_SIZE) -> None:
        self.relation = relation
        self.index = index or SelectionIndex(relation)
        self.page_size = page_size

    def _oracle_kth_score(self, query: TopKQuery) -> float:
        tids = self.relation.tids_matching(query.predicate.as_dict)
        if tids.size == 0:
            return math.inf
        values = self.relation.ranking_values_bulk(tids, query.function.dims)
        scores = np.sort(np.array([query.function.evaluate(row) for row in values]))
        return float(scores[min(query.k, len(scores)) - 1])

    def query(self, query: TopKQuery) -> QueryResult:
        """Execute the range-mapped query with oracle-optimal bounds."""
        query.validate(self.relation)
        start = time.perf_counter()
        kth_score = self._oracle_kth_score(query)
        bounds = optimal_range_bounds(query.function, kth_score)

        before = self.index.pager.stats.physical_reads
        tids = self.index.tids_for_conditions(query.predicate.as_dict)
        index_io = self.index.pager.stats.physical_reads - before

        if tids.size:
            in_range = np.ones(tids.size, dtype=bool)
            for dim, (low, high) in bounds.items():
                column = self.relation.ranking_column(dim)[tids]
                in_range &= (column >= low) & (column <= high)
            range_tids = tids[in_range]
        else:
            range_tids = tids

        if range_tids.size:
            values = self.relation.ranking_values_bulk(range_tids, query.function.dims)
            scores = np.array([query.function.evaluate(row) for row in values])
            order = np.argsort(scores, kind="stable")[: query.k]
            top_tids = tuple(int(range_tids[i]) for i in order)
            top_scores = tuple(float(scores[i]) for i in order)
        else:
            top_tids, top_scores = (), ()

        fetch_io = max(1, -(-int(range_tids.size) // _TUPLES_PER_PAGE))
        disk = min(index_io + fetch_io, table_pages(self.relation, self.page_size))
        elapsed = time.perf_counter() - start
        return QueryResult(
            tids=top_tids,
            scores=top_scores,
            disk_accesses=disk,
            tuples_evaluated=int(range_tids.size),
            elapsed_seconds=elapsed,
            extra={"range_tuples": float(range_tids.size), "kth_bound": kth_score},
        )

    def top_k(self, predicate: Predicate, function, k: int) -> QueryResult:
        """Convenience wrapper."""
        return self.query(TopKQuery(predicate=predicate, function=function, k=k))

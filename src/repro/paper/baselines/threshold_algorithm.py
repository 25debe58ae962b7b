"""Fagin-style threshold algorithm (TA) over per-dimension B+-trees.

TA is the sort-merge reference point that Chapter 5 contrasts index-merge
against: it performs sorted access on one pre-sorted list per ranking
dimension and random accesses to resolve full scores, and it requires the
ranking function to be monotone.  It is included both as a baseline and as a
correctness oracle for monotone linear queries.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import QueryError
from repro.functions.base import FunctionShape, RankingFunction
from repro.query import Predicate, QueryResult, TopKQuery
from repro.paper.btree import BPlusTree
from repro.storage.table import Relation


class ThresholdAlgorithmTopK:
    """Classic TA with round-robin sorted access and eager random access."""

    def __init__(self, relation: Relation, trees: Dict[str, BPlusTree]) -> None:
        self.relation = relation
        self.trees = dict(trees)

    def query(self, query: TopKQuery) -> QueryResult:
        """Run TA; only monotone ranking functions are supported."""
        query.validate(self.relation)
        function = query.function
        if function.shape is not FunctionShape.MONOTONE:
            raise QueryError("the threshold algorithm requires a monotone ranking function")
        missing = [d for d in function.dims if d not in self.trees]
        if missing:
            raise QueryError(f"no sorted list (B+-tree) available for dimensions {missing}")

        start = time.perf_counter()
        io_before = {dim: self.trees[dim].pager.stats.physical_reads
                     for dim in function.dims}
        scans = {dim: self.trees[dim].sorted_scan(ascending=True) for dim in function.dims}
        last_seen: Dict[str, float] = {}
        seen_scores: Dict[int, float] = {}
        random_accesses = 0
        sorted_accesses = 0

        best_k: List[Tuple[int, float]] = []

        def kth_score() -> float:
            if len(best_k) < query.k:
                return float("inf")
            return best_k[query.k - 1][1]

        exhausted = False
        while not exhausted:
            exhausted = True
            for dim in function.dims:
                try:
                    value, tid = next(scans[dim])
                except StopIteration:
                    continue
                exhausted = False
                sorted_accesses += 1
                last_seen[dim] = value
                if tid not in seen_scores:
                    random_accesses += 1
                    if query.predicate.matches(self.relation, tid):
                        score = function.evaluate_tuple(self.relation, tid)
                        seen_scores[tid] = score
                        best_k.append((tid, score))
                        best_k.sort(key=lambda p: (p[1], p[0]))
                        del best_k[query.k:]
                    else:
                        seen_scores[tid] = float("inf")
            if len(last_seen) == len(function.dims):
                threshold = function.evaluate([last_seen[d] for d in function.dims])
                # Strict halt: an unseen tuple tying the k-th score may
                # still win the canonical (score, tid) tie-break.
                if kth_score() < threshold:
                    break

        tree_io = sum(
            self.trees[dim].pager.stats.physical_reads - io_before[dim]
            for dim in function.dims
        )
        elapsed = time.perf_counter() - start
        return QueryResult(
            tids=tuple(tid for tid, _ in best_k),
            scores=tuple(score for _, score in best_k),
            disk_accesses=tree_io + random_accesses,
            tuples_evaluated=len(seen_scores),
            elapsed_seconds=elapsed,
            extra={"sorted_accesses": float(sorted_accesses),
                   "random_accesses": float(random_accesses)},
        )

    def top_k(self, predicate: Predicate, function, k: int) -> QueryResult:
        """Convenience wrapper."""
        return self.query(TopKQuery(predicate=predicate, function=function, k=k))


def build_dimension_trees(relation: Relation, dims: Optional[Sequence[str]] = None,
                          fanout: Optional[int] = None) -> Dict[str, BPlusTree]:
    """One B+-tree per ranking dimension (TA's pre-sorted lists)."""
    dims = tuple(dims) if dims else relation.ranking_dims
    return {
        dim: BPlusTree.build(dim, relation.ranking_column(dim), fanout=fanout)
        for dim in dims
    }

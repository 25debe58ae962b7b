"""Ranking-first baseline (``Ranking`` in Section 4.4.1).

Progressively retrieves R-tree nodes in best-first order (branch and bound
on the ranking function only) and verifies the boolean predicate by a random
access on each tuple that would otherwise enter the top-k heap — exactly the
configuration the thesis describes: boolean verification is issued only for
tuples that have already been determined to be candidate results.
"""

from __future__ import annotations

import heapq
import time
from typing import List, Optional, Tuple

from repro.cube.query import TopKAccumulator
from repro.query import Predicate, QueryResult, TopKQuery
from repro.paper.rtree import RTree
from repro.storage.table import Relation


class RankingFirstTopK:
    """Best-first R-tree search with post-hoc boolean verification."""

    def __init__(self, relation: Relation, rtree: RTree) -> None:
        self.relation = relation
        self.rtree = rtree

    def query(self, query: TopKQuery) -> QueryResult:
        """Answer the query ranking-first."""
        query.validate(self.relation)
        start = time.perf_counter()
        io_before = self.rtree.pager.stats.physical_reads

        function = query.function
        dims = self.rtree.dims
        dim_positions = [dims.index(d) for d in function.dims]
        topk = TopKAccumulator(query.k)
        verifications = 0
        states = 0
        peak_heap = 0

        root = self.rtree.root()
        counter = 0
        heap: List[Tuple[float, int, object]] = [
            (function.lower_bound(root.box), counter, root)]
        while heap:
            peak_heap = max(peak_heap, len(heap))
            bound, _, node = heapq.heappop(heap)
            # Strict halt/skip (here and below): anything tying the k-th
            # score may still beat the incumbent on the canonical
            # (score, tid) tie-break, so only strictly worse work is pruned.
            if topk.is_full() and topk.kth_score < bound:
                break
            states += 1
            if node.is_leaf:
                for entry in self.rtree.leaf_entries(node):
                    score = function.evaluate([entry.values[i] for i in dim_positions])
                    if topk.is_full() and score > topk.kth_score:
                        continue
                    verifications += 1
                    if query.predicate.matches(self.relation, entry.tid):
                        topk.offer(entry.tid, score)
            else:
                for child in self.rtree.children(node):
                    child_bound = function.lower_bound(child.box)
                    if topk.is_full() and child_bound > topk.kth_score:
                        continue
                    counter += 1
                    heapq.heappush(heap, (child_bound, counter, child))

        rtree_io = self.rtree.pager.stats.physical_reads - io_before
        elapsed = time.perf_counter() - start
        ranked = topk.ranked()
        return QueryResult(
            tids=tuple(tid for tid, _ in ranked),
            scores=tuple(score for _, score in ranked),
            disk_accesses=rtree_io + verifications,
            states_generated=states,
            peak_heap_size=peak_heap,
            tuples_evaluated=verifications,
            elapsed_seconds=elapsed,
            extra={"rtree_accesses": float(rtree_io),
                   "boolean_verifications": float(verifications)},
        )

    def top_k(self, predicate: Predicate, function, k: int) -> QueryResult:
        """Convenience wrapper."""
        return self.query(TopKQuery(predicate=predicate, function=function, k=k))

"""Boolean-first baseline (``Boolean`` in Section 4.4.1).

Evaluates the boolean predicates first through per-dimension selection
indexes, then ranks the qualifying tuples while keeping only a size-k heap.
This is also how the thesis models the commercial-DBMS baseline of Section
3.5.1: per-dimension non-clustered indexes followed by random accesses to
the qualifying tuples.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.storage.table_scan import table_pages
from repro.query import Predicate, QueryResult, TopKQuery
from repro.paper.bitmap import SelectionIndex
from repro.storage.table import Relation


class BooleanFirstTopK:
    """Filter by selection indexes, then rank the survivors."""

    def __init__(self, relation: Relation, index: Optional[SelectionIndex] = None) -> None:
        self.relation = relation
        self.index = index or SelectionIndex(relation)

    def query(self, query: TopKQuery) -> QueryResult:
        """Answer the query boolean-first.

        Disk cost: the posting-list pages read from the selection indexes
        plus one random access per qualifying tuple (the thesis' point that
        this is expensive when the output is small but the predicate is not
        very selective), capped by a full table scan — the optimizer would
        switch to a scan rather than do more random I/O than that.
        """
        query.validate(self.relation)
        start = time.perf_counter()
        before = self.index.pager.stats.physical_reads
        tids = self.index.tids_for_conditions(query.predicate.as_dict)
        index_io = self.index.pager.stats.physical_reads - before

        if tids.size:
            values = self.relation.ranking_values_bulk(tids, query.function.dims)
            scores = np.array([query.function.evaluate(row) for row in values])
            order = np.argsort(scores, kind="stable")[: query.k]
            top_tids = tuple(int(tids[i]) for i in order)
            top_scores = tuple(float(scores[i]) for i in order)
        else:
            top_tids, top_scores = (), ()

        random_io = int(tids.size)
        scan_io = table_pages(self.relation)
        disk = min(index_io + random_io, index_io + scan_io)
        elapsed = time.perf_counter() - start
        return QueryResult(
            tids=top_tids,
            scores=top_scores,
            disk_accesses=disk,
            tuples_evaluated=int(tids.size),
            elapsed_seconds=elapsed,
        )

    def top_k(self, predicate: Predicate, function, k: int) -> QueryResult:
        """Convenience wrapper."""
        return self.query(TopKQuery(predicate=predicate, function=function, k=k))

"""Table scan (``TS`` in Section 5.4.1): the fallback every stack serves.

Sequentially reads the whole relation, applies the boolean predicate,
scores the matches in one batch and cuts the best k.  Disk cost is the number
of heap pages of the base table — the cost every index-based method is trying
to beat.
"""

from __future__ import annotations

import time

import numpy as np

from repro.query import QueryResult, TopKQuery
from repro.storage.pager import DEFAULT_PAGE_SIZE
from repro.storage.table import Relation

#: Assumed bytes per stored tuple when estimating the table's page count.
_BYTES_PER_TUPLE_FIELD = 8


def table_pages(relation: Relation, page_size: int = DEFAULT_PAGE_SIZE) -> int:
    """Number of heap pages occupied by ``relation``."""
    fields = len(relation.selection_dims) + len(relation.ranking_dims) + 1
    bytes_per_tuple = fields * _BYTES_PER_TUPLE_FIELD
    tuples_per_page = max(1, page_size // bytes_per_tuple)
    return max(1, -(-relation.num_tuples // tuples_per_page))


class TableScanTopK:
    """Full-scan evaluation of top-k queries with boolean predicates."""

    def __init__(self, relation: Relation, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        self.relation = relation
        self.page_size = page_size

    def query(self, query: TopKQuery) -> QueryResult:
        """Scan every tuple, filter, rank, and return the top k."""
        query.validate(self.relation)
        start = time.perf_counter()
        mask = self.relation.mask_equal(query.predicate.as_dict)
        tids = np.nonzero(mask)[0]
        matches = int(tids.size)
        scores = query.function.evaluate_batch(
            self.relation.ranking_values_bulk(tids, query.function.dims))
        # Cut to the rows scoring at most the k-th smallest score, ties kept:
        # they still ascend in tid, so a stable sort on score is the
        # (score, tid) order of the full sort.  A NaN k-th score (NaN sorts
        # last) cannot be cut by value, so it keeps the full sort.
        if query.k < scores.size:
            kth = np.partition(scores, query.k - 1)[query.k - 1]
            if not np.isnan(kth):
                keep = np.flatnonzero(scores <= kth)
                tids, scores = tids[keep], scores[keep]
        order = np.argsort(scores, kind="stable")[: query.k]
        elapsed = time.perf_counter() - start
        return QueryResult(
            tids=tuple(tids[order].tolist()),
            scores=tuple(scores[order].tolist()),
            disk_accesses=table_pages(self.relation, self.page_size),
            tuples_evaluated=matches,
            elapsed_seconds=elapsed,
        )

"""Rank-aware selection: streaming one relation's tuples in score order.

Section 6.3.1: each participating relation is accessed through its ranking
cube so that tuples satisfying the relation's boolean predicate emerge in
non-decreasing order of the relation's ranking sub-function.  The stream is
the building block the rank-join operator pulls from.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.functions.base import RankingFunction
from repro.functions.linear import LinearFunction
from repro.query import Predicate
from repro.paper.signature.cube import SignatureRankingCube
from repro.storage.table import Relation


@dataclass(frozen=True)
class StreamEntry:
    """One tuple emitted by a rank stream."""

    tid: int
    score: float


class RankStream:
    """Best-first stream of predicate-satisfying tuples, cheapest score first."""

    def __init__(self, cube: SignatureRankingCube, predicate: Predicate,
                 function: Optional[RankingFunction]) -> None:
        self.cube = cube
        self.relation = cube.relation
        self.predicate = predicate
        # A relation without a ranking contribution streams in constant score
        # order; a zero-weight linear function keeps the machinery uniform.
        if function is None:
            function = LinearFunction((cube.ranking_dims[0],), (0.0,))
        self.function = function
        self._reader = (cube.signature_reader(predicate)
                        if not predicate.is_empty() else None)
        self._heap: List[Tuple[float, int, int, object]] = []
        self._counter = 0
        self._started = False
        self.pulled = 0

    def _push_node(self, node) -> None:
        if self._reader is not None and not self._reader.test(node.path):
            return
        self._counter += 1
        bound = self.function.lower_bound(node.box)
        heapq.heappush(self._heap, (bound, 0, self._counter, node))

    def _push_entry(self, tid: int, score: float) -> None:
        self._counter += 1
        heapq.heappush(self._heap, (score, 1, self._counter, tid))

    def _start(self) -> None:
        if self._started:
            return
        self._started = True
        root = self.cube.rtree.root()
        if self._reader is None or self._reader.test(()):
            self._push_node(root)

    def __iter__(self) -> Iterator[StreamEntry]:
        return self._generate()

    def _generate(self) -> Iterator[StreamEntry]:
        self._start()
        rtree = self.cube.rtree
        dims = rtree.dims
        positions = [dims.index(d) for d in self.function.dims]
        while self._heap:
            score, kind, _, payload = heapq.heappop(self._heap)
            if kind == 1:
                self.pulled += 1
                yield StreamEntry(tid=int(payload), score=float(score))
                continue
            node = payload
            if node.is_leaf:
                for entry in rtree.leaf_entries(node):
                    entry_path = node.path + (entry.position,)
                    if self._reader is not None and not self._reader.test(entry_path):
                        continue
                    value = self.function.evaluate([entry.values[i] for i in positions])
                    self._push_entry(entry.tid, value)
            else:
                for child in rtree.children(node):
                    self._push_node(child)

    def disk_accesses(self) -> int:
        """Physical reads charged to this stream's cube so far."""
        return (self.cube.rtree.pager.stats.physical_reads
                + self.cube.store.pager.stats.physical_reads)

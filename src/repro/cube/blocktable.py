"""Base block table: ranking values grouped by base block (Section 3.2.2).

After the geometry partition, the original relation is decomposed into a
*selection table* (selection dims + block dimension ``B``, which feeds the
ranking cube) and a *base block table* holding, per base block, the tids and
their real ranking values.  The query algorithm's ``get_base_block`` data
access method (Section 3.3.1) reads one of these pages.

Page layout: a page is the pair ``(tids int64[n], values float64[n, R])`` in
ascending tid order (the build's stable sort keeps it, an insert appends the
next tid), so the row of a tid is ``tids.searchsorted(tid)`` and no side
index is kept.  Pages are immutable once handed out, like cuboid pages (see
:mod:`repro.cube.model`): read-only arrays, and an insert writes a new pair.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CubeError
from repro.partition.grid import GridPartition
from repro.storage.buffer import BufferPool
from repro.storage.pager import Pager
from repro.storage.table import Relation


class BaseBlockTable:
    """Per-base-block pages of ``(tid, ranking values)`` entries."""

    def __init__(self, relation: Relation, grid: GridPartition,
                 bids: Optional[np.ndarray] = None, pager: Optional[Pager] = None,
                 buffer_capacity: int = 256) -> None:
        self.relation = relation
        self.grid = grid
        self.dims: Tuple[str, ...] = grid.dims
        self.pager = pager or Pager()
        self.buffer = BufferPool(self.pager, capacity=buffer_capacity)
        if bids is None:
            bids = grid.assign(relation)
        bids = np.asarray(bids, dtype=np.int64)
        if bids.shape[0] != relation.num_tuples:
            raise CubeError("bids must assign a block to every tuple")
        self.bids = bids
        self._block_pages: Dict[int, int] = {}
        self._build()

    def _build(self) -> None:
        values = self.relation.ranking_values_bulk(
            np.arange(self.relation.num_tuples), self.dims)
        order = np.argsort(self.bids, kind="stable")
        sorted_bids = self.bids[order]
        boundaries = np.flatnonzero(np.diff(sorted_bids)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(sorted_bids)]))
        for start, end in zip(starts, ends):
            if start == end:
                continue
            bid = int(sorted_bids[start])
            tids = np.ascontiguousarray(order[start:end], dtype=np.int64)
            block_values = np.ascontiguousarray(values[tids], dtype=np.float64)
            tids.flags.writeable = block_values.flags.writeable = False
            self._block_pages[bid] = self.pager.allocate((tids, block_values))

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def insert(self, tid: int, values: Sequence[float]) -> int:
        """Append tuple ``tid`` to its base-block page; return its bid.

        ``values`` are the tuple's ranking values in :attr:`dims` order and
        must lie inside the grid domain — clamping an outside point into an
        edge block would put a tuple below that block's lower bound.  Tids
        arrive densely (``tid`` is the number of tuples covered so far), so
        the new row lands last on its page and page order stays tid order.
        One page write (a fresh page when the block was empty) of new
        arrays; the pair a reader holds is never touched.
        """
        if tid != len(self.bids):
            raise CubeError(
                f"tuple {tid} is not the next row of a table covering "
                f"{len(self.bids)}")
        point = dict(zip(self.dims, values))
        if not self.grid.domain().contains_point(point):
            raise CubeError(f"tuple {tid} lies outside the grid domain")
        bid = self.grid.bid_of_point(point)
        tids = np.array([tid], dtype=np.int64)
        block_values = np.array([values], dtype=np.float64)
        page_id = self._block_pages.get(bid)
        if page_id is not None:
            old_tids, old_values = self.buffer.read(page_id)
            tids = np.concatenate((old_tids, tids))
            block_values = np.concatenate((old_values, block_values))
        tids.flags.writeable = block_values.flags.writeable = False
        if page_id is None:
            self._block_pages[bid] = self.buffer.allocate((tids, block_values))
        else:
            self.buffer.write(page_id, (tids, block_values))
        self.bids = np.append(self.bids, bid)
        return bid

    # ------------------------------------------------------------------
    # data access methods
    # ------------------------------------------------------------------
    def block_arrays(self, bid: int) -> Tuple[np.ndarray, np.ndarray]:
        """The paper's ``get_base_block``, columnar: ``(tids, values)`` arrays.

        ``tids`` has shape ``(n,)`` and ``values`` shape ``(n, len(dims))``;
        both are contiguous so ranking functions can score the whole block
        with one vectorized call.  Reads one page through the buffer pool
        (counts a disk access on a miss); an unknown / empty block returns
        empty arrays for free.
        """
        page_id = self._block_pages.get(int(bid))
        if page_id is None:
            return (np.empty(0, dtype=np.int64),
                    np.empty((0, len(self.dims)), dtype=np.float64))
        return self.buffer.read(page_id)

    def num_blocks(self) -> int:
        """Number of non-empty base blocks."""
        return len(self._block_pages)

    def size_in_bytes(self) -> int:
        """Estimated materialized size of the base block table."""
        return self.pager.total_bytes()

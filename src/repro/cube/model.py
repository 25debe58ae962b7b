"""Cuboid storage for the grid ranking cube (Section 3.2.3).

A *cuboid* is named by its selection dimensions (e.g. ``A1A2_N1N2``) and
stores, for every (cell, pseudo block) combination, the list of
``(tid, bid)`` pairs of tuples that fall in that cell and pseudo block.
Each such list occupies one page, mirroring the thesis' clustered index on
``(selection dims, pid)``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CubeError
from repro.partition.grid import GridPartition
from repro.storage.buffer import BufferPool
from repro.storage.pager import Pager, estimate_size
from repro.storage.table import Relation

CellKey = Tuple[int, ...]


class Cuboid:
    """One materialized cuboid of the ranking cube."""

    def __init__(self, dims: Sequence[str], relation: Relation, grid: GridPartition,
                 bids: np.ndarray, pager: Pager, buffer_capacity: int = 256) -> None:
        self.dims: Tuple[str, ...] = tuple(dims)
        if not self.dims:
            raise CubeError("a cuboid needs at least one selection dimension")
        self.grid = grid
        self.pager = pager
        self.buffer = BufferPool(pager, capacity=buffer_capacity)
        cardinalities = [relation.cardinality(d) for d in self.dims]
        self.scale_factor = grid.scale_factor(cardinalities)
        self._pages: Dict[Tuple[CellKey, int], int] = {}
        self._build(relation, bids)

    @property
    def name(self) -> str:
        """Cuboid name in the thesis' ``A1A2_N1N2`` convention."""
        return "".join(self.dims) + "_" + "".join(self.grid.dims)

    def _build(self, relation: Relation, bids: np.ndarray) -> None:
        if not relation.num_tuples:
            return
        bids = np.asarray(bids, dtype=np.int64)
        columns = [relation.selection_column(d) for d in self.dims]
        pids = self.grid.pids_of_bids(bids, self.scale_factor)
        # One stable sort groups the tuples by (cell, pid) and keeps tid
        # order inside every group; pages are then allocated in order of
        # each group's first tid, i.e. in first-seen order of a tid scan.
        order = np.lexsort([pids] + columns[::-1])
        keys = [column[order] for column in columns] + [pids[order]]
        changed = np.zeros(len(order) - 1, dtype=bool)
        for key in keys:
            changed |= key[1:] != key[:-1]
        starts = np.concatenate(([0], np.flatnonzero(changed) + 1))
        ends = np.concatenate((starts[1:], [len(order)]))
        first_seen = np.argsort(order[starts], kind="stable")
        tids = order.tolist()
        tid_bids = bids[order].tolist()
        group_keys = [key[starts].tolist() for key in keys]
        for group in first_seen.tolist():
            start, end = int(starts[group]), int(ends[group])
            cell: CellKey = tuple(key[group] for key in group_keys[:-1])
            self._pages[(cell, group_keys[-1][group])] = self.pager.allocate(
                list(zip(tids[start:end], tid_bids[start:end])))

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def insert(self, tid: int, bid: int, row: Mapping[str, object]) -> None:
        """Append ``(tid, bid)`` to the (cell, pseudo block) page of ``row``.

        ``tid`` must exceed every tid already stored, so page order stays
        tid order.  One page write (a fresh page for an unseen cell or an
        empty pseudo block).  The scale factor keeps its build-time value:
        it only decides how base blocks group into pages, never an answer.
        """
        key = (self.cell_of_predicate(row),
               self.grid.pid_of_bid(bid, self.scale_factor))
        entry = (tid, bid)
        page_id = self._pages.get(key)
        if page_id is None:
            self._pages[key] = self.buffer.allocate([entry])
        else:
            self.buffer.write(
                page_id, self.buffer.read(page_id) + [entry],
                size=self.pager.page_bytes(page_id) + estimate_size(entry))

    # ------------------------------------------------------------------
    # data access method: get_pseudo_block (Section 3.3.1)
    # ------------------------------------------------------------------
    def get_pseudo_block(self, cell: CellKey, pid: int) -> List[Tuple[int, int]]:
        """``(tid, bid)`` list of one (cell, pseudo block), one page read."""
        page_id = self._pages.get((tuple(cell), int(pid)))
        if page_id is None:
            return []
        return self.buffer.read(page_id)

    def cell_of_predicate(self, conditions: Mapping[str, int]) -> CellKey:
        """Cell key for a predicate that constrains every cuboid dimension."""
        missing = [d for d in self.dims if d not in conditions]
        if missing:
            raise CubeError(
                f"cuboid {self.name} needs values for dimensions {missing}")
        return tuple(int(conditions[d]) for d in self.dims)

    def num_cells(self) -> int:
        """Number of materialized (cell, pseudo block) pages."""
        return len(self._pages)

    def size_in_bytes(self) -> int:
        """Estimated size of this cuboid's pages."""
        total = 0
        for page_id in self._pages.values():
            total += len(self.pager.read(page_id, physical=False)) * 16
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cuboid({self.name}, sf={self.scale_factor}, pages={len(self._pages)})"

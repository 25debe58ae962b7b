"""Cuboid storage for the grid ranking cube (Section 3.2.3).

A *cuboid* is named by its selection dimensions (e.g. ``A1A2_N1N2``) and
stores, for every (cell, pseudo block) combination, the tuples that fall in
that cell and pseudo block.  Each combination occupies one page, mirroring
the thesis' clustered index on ``(selection dims, pid)``.

Page layout: a page is the pair ``(tids int64[n], bids int64[n])`` — entry
``i`` says tuple ``tids[i]`` lies in base block ``bids[i]`` — in ascending
tid order, sized at 16 bytes per entry.  Pages are immutable once handed
out: the arrays are stored ``writeable=False`` and a writer replaces the
pair instead of touching it, so a reader may keep what
:meth:`Cuboid.get_pseudo_block` returned across an insert.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import CubeError
from repro.partition.grid import GridPartition
from repro.storage.buffer import BufferPool
from repro.storage.pager import Pager
from repro.storage.table import Relation

CellKey = Tuple[int, ...]
#: One cuboid page: ``(tids, bids)``, see the module docstring.
CuboidPage = Tuple[np.ndarray, np.ndarray]
#: Stored size of one ``(tid, bid)`` page entry.
ENTRY_BYTES = 16


def _read_only(values) -> np.ndarray:
    array = np.asarray(values, dtype=np.int64)
    array.flags.writeable = False
    return array


_EMPTY_PAGE: CuboidPage = (_read_only([]), _read_only([]))


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
        # Pages are slices of the two sorted arrays: views, never copies.
        tids = _read_only(order)
        tid_bids = _read_only(bids[order])
        group_keys = [key[starts].tolist() for key in keys]
        for group in first_seen.tolist():
            start, end = int(starts[group]), int(ends[group])
            cell: CellKey = tuple(key[group] for key in group_keys[:-1])
            self._pages[(cell, group_keys[-1][group])] = self.pager.allocate(
                (tids[start:end], tid_bids[start:end]),
                size=ENTRY_BYTES * (end - start))

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def insert(self, tid: int, bid: int, row: Mapping[str, object]) -> None:
        """Append ``(tid, bid)`` to the (cell, pseudo block) page of ``row``.

        ``tid`` must exceed every tid already stored, so page order stays
        tid order.  One page write (a fresh page for an unseen cell or an
        empty pseudo block) of a *new* array pair — the pair a reader holds
        is never touched.  The scale factor keeps its build-time value: it
        only decides how base blocks group into pages, never an answer.
        """
        key = (self.cell_of_predicate(row),
               self.grid.pid_of_bid(bid, self.scale_factor))
        page_id = self._pages.get(key)
        tids, bids = (_EMPTY_PAGE if page_id is None
                      else self.buffer.read(page_id))
        page = (_read_only(np.concatenate((tids, (tid,)))),
                _read_only(np.concatenate((bids, (bid,)))))
        size = ENTRY_BYTES * len(page[0])
        if page_id is None:
            self._pages[key] = self.buffer.allocate(page, size=size)
        else:
            self.buffer.write(page_id, page, size=size)

    # ------------------------------------------------------------------
    # data access method: get_pseudo_block (Section 3.3.1)
    # ------------------------------------------------------------------
    def get_pseudo_block(self, cell: CellKey, pid: int) -> CuboidPage:
        """The ``(tids, bids)`` page of one (cell, pseudo block), one page
        read (an empty pair, for free, when nothing was ever stored there)."""
        page_id = self._pages.get((tuple(cell), int(pid)))
        if page_id is None:
            return _EMPTY_PAGE
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
        """Stored size of this cuboid's pages (``ENTRY_BYTES`` per entry)."""
        return sum(self.pager.page_bytes(page_id)
                   for page_id in self._pages.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cuboid({self.name}, sf={self.scale_factor}, pages={len(self._pages)})"

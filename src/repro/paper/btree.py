"""Page-based B+-tree over a single ranking dimension.

The B+-tree serves three roles in the reproduction:

* equality / range lookups for the boolean-first and rank-mapping baselines
  (Sections 3.5.1 and 4.4.1),
* sorted sequential access for the threshold-algorithm baseline, and
* a :class:`repro.paper.hierindex.HierarchicalIndex` whose nodes cover key
  intervals, which is the single-attribute index merged by Chapter 5.

Nodes live as pages in a :class:`repro.storage.pager.Pager` and are read
through a :class:`repro.storage.buffer.BufferPool`, so lookups cost counted
disk accesses exactly like every other structure in the library.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.geometry import Box, Interval
from repro.storage.buffer import BufferPool
from repro.paper.hierindex import HierarchicalIndex, LeafEntry, NodeHandle
from repro.storage.pager import DEFAULT_PAGE_SIZE, Pager

#: Approximate bytes per (key, tid) leaf entry / (key, child) internal entry,
#: used to derive the fanout from the page size as the thesis does
#: ("fixing the page size as 4kB, the fanout of B-tree node is 204").
_BYTES_PER_ENTRY = 20


def fanout_for_page_size(page_size: int) -> int:
    """Node fanout implied by a simulated page size."""
    return max(4, page_size // _BYTES_PER_ENTRY)


class BPlusTree(HierarchicalIndex):
    """A bulk-loaded B+-tree mapping one attribute's values to tids."""

    def __init__(self, dim: str, pager: Optional[Pager] = None,
                 fanout: Optional[int] = None,
                 buffer_capacity: int = 256) -> None:
        self.dims: Tuple[str, ...] = (dim,)
        self.dim = dim
        self.pager = pager or Pager()
        self.fanout = fanout or fanout_for_page_size(self.pager.page_size)
        if self.fanout < 2:
            raise IndexError_(f"B+-tree fanout must be at least 2, got {self.fanout}")
        self.buffer = BufferPool(self.pager, capacity=buffer_capacity)
        self._root_page: Optional[int] = None
        self._height = 0
        self._node_count = 0
        self._num_entries = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, dim: str, values: Sequence[float], tids: Optional[Sequence[int]] = None,
              pager: Optional[Pager] = None, fanout: Optional[int] = None,
              buffer_capacity: int = 256) -> "BPlusTree":
        """Bulk-load a tree from a column of values (tids default to 0..n-1)."""
        tree = cls(dim, pager=pager, fanout=fanout, buffer_capacity=buffer_capacity)
        tree._bulk_load(values, tids)
        return tree

    def _bulk_load(self, values: Sequence[float], tids: Optional[Sequence[int]]) -> None:
        if self._root_page is not None:
            raise IndexError_("B+-tree is already built")
        values = np.asarray(values, dtype=np.float64)
        if tids is None:
            tids = np.arange(len(values), dtype=np.int64)
        else:
            tids = np.asarray(tids, dtype=np.int64)
        if len(values) != len(tids):
            raise IndexError_("values and tids must have the same length")
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        sorted_tids = tids[order]
        self._num_entries = len(sorted_values)

        if self._num_entries == 0:
            payload = {"leaf": True, "keys": [], "tids": [], "next": None}
            self._root_page = self.pager.allocate(payload)
            self._node_count = 1
            self._height = 1
            return

        # Build the leaf level.
        leaf_pages: List[int] = []
        leaf_ranges: List[Tuple[float, float]] = []
        num_leaves = max(1, math.ceil(self._num_entries / self.fanout))
        per_leaf = math.ceil(self._num_entries / num_leaves)
        for start in range(0, self._num_entries, per_leaf):
            end = min(start + per_leaf, self._num_entries)
            keys = sorted_values[start:end].tolist()
            leaf_tids = sorted_tids[start:end].tolist()
            payload = {"leaf": True, "keys": keys, "tids": leaf_tids, "next": None}
            page_id = self.pager.allocate(payload)
            leaf_pages.append(page_id)
            leaf_ranges.append((keys[0], keys[-1]))
        for i in range(len(leaf_pages) - 1):
            payload = self.pager.read(leaf_pages[i], physical=False)
            payload["next"] = leaf_pages[i + 1]
            self.pager.write(leaf_pages[i], payload)
        self._node_count = len(leaf_pages)

        # Build internal levels bottom-up.
        level_pages = leaf_pages
        level_ranges = leaf_ranges
        height = 1
        while len(level_pages) > 1:
            parent_pages: List[int] = []
            parent_ranges: List[Tuple[float, float]] = []
            num_parents = max(1, math.ceil(len(level_pages) / self.fanout))
            per_parent = math.ceil(len(level_pages) / num_parents)
            for start in range(0, len(level_pages), per_parent):
                end = min(start + per_parent, len(level_pages))
                children = level_pages[start:end]
                ranges = level_ranges[start:end]
                payload = {
                    "leaf": False,
                    "children": list(children),
                    "ranges": [list(r) for r in ranges],
                }
                page_id = self.pager.allocate(payload)
                parent_pages.append(page_id)
                parent_ranges.append((ranges[0][0], ranges[-1][1]))
            self._node_count += len(parent_pages)
            level_pages = parent_pages
            level_ranges = parent_ranges
            height += 1
        self._root_page = level_pages[0]
        self._root_range = level_ranges[0]
        self._height = height

    # ------------------------------------------------------------------
    # point / range lookups
    # ------------------------------------------------------------------
    def search_eq(self, key: float) -> List[int]:
        """Tids whose indexed value equals ``key``."""
        return self.search_range(key, key)

    def search_range(self, low: float, high: float) -> List[int]:
        """Tids whose indexed value lies in the closed range ``[low, high]``."""
        if self._root_page is None:
            raise IndexError_("B+-tree has not been built")
        if low > high:
            return []
        result: List[int] = []
        leaf_id = self._find_leaf(low)
        while leaf_id is not None:
            payload = self.buffer.read(leaf_id)
            keys = payload["keys"]
            tids = payload["tids"]
            if keys and keys[0] > high:
                break
            for key, tid in zip(keys, tids):
                if low <= key <= high:
                    result.append(tid)
                elif key > high:
                    return result
            leaf_id = payload["next"]
        return result

    def _find_leaf(self, key: float) -> int:
        page_id = self._root_page
        payload = self.buffer.read(page_id)
        while not payload["leaf"]:
            children = payload["children"]
            ranges = payload["ranges"]
            chosen = children[-1]
            for child_id, (lo, hi) in zip(children, ranges):
                if key <= hi:
                    chosen = child_id
                    break
            page_id = chosen
            payload = self.buffer.read(page_id)
        return page_id

    def sorted_scan(self, ascending: bool = True) -> Iterator[Tuple[float, int]]:
        """Iterate ``(value, tid)`` pairs in sorted order (TA sorted access)."""
        if self._root_page is None:
            raise IndexError_("B+-tree has not been built")
        leaves: List[int] = []
        payload = self.buffer.read(self._root_page)
        page_id = self._root_page
        while not payload["leaf"]:
            page_id = payload["children"][0]
            payload = self.buffer.read(page_id)
        while page_id is not None:
            leaves.append(page_id)
            payload = self.buffer.read(page_id)
            page_id = payload["next"]
        ordered = leaves if ascending else list(reversed(leaves))
        for leaf_id in ordered:
            payload = self.buffer.read(leaf_id)
            pairs = list(zip(payload["keys"], payload["tids"]))
            if not ascending:
                pairs.reverse()
            for key, tid in pairs:
                yield key, tid

    # ------------------------------------------------------------------
    # HierarchicalIndex interface
    # ------------------------------------------------------------------
    def root(self) -> NodeHandle:
        if self._root_page is None:
            raise IndexError_("B+-tree has not been built")
        payload = self.pager.read(self._root_page, physical=False)
        if payload["leaf"]:
            keys = payload["keys"]
            low = keys[0] if keys else 0.0
            high = keys[-1] if keys else 0.0
        else:
            low, high = self._root_range
        box = Box({self.dim: Interval(float(low), float(high))})
        return NodeHandle(page_id=self._root_page, box=box,
                          is_leaf=payload["leaf"], level=self._height, path=())

    def children(self, node: NodeHandle) -> List[NodeHandle]:
        if node.is_leaf:
            return []
        payload = self.buffer.read(node.page_id)
        handles: List[NodeHandle] = []
        for position, (child_id, (lo, hi)) in enumerate(
                zip(payload["children"], payload["ranges"]), start=1):
            child_payload = self.pager.read(child_id, physical=False)
            box = Box({self.dim: Interval(float(lo), float(hi))})
            handles.append(NodeHandle(
                page_id=child_id, box=box, is_leaf=child_payload["leaf"],
                level=node.level - 1, path=node.path + (position,)))
        return handles

    def leaf_entries(self, node: NodeHandle) -> List[LeafEntry]:
        payload = self.buffer.read(node.page_id)
        if not payload["leaf"]:
            raise IndexError_(f"page {node.page_id} is not a leaf")
        return [
            LeafEntry(tid=int(tid), values=(float(key),), position=i)
            for i, (key, tid) in enumerate(zip(payload["keys"], payload["tids"]), start=1)
        ]

    def height(self) -> int:
        return self._height

    def node_count(self) -> int:
        return self._node_count

    def max_fanout(self) -> int:
        return self.fanout

    @property
    def num_entries(self) -> int:
        """Number of indexed (value, tid) pairs."""
        return self._num_entries

    def size_in_bytes(self) -> int:
        """Estimated materialized size of the tree."""
        return self.pager.total_bytes()

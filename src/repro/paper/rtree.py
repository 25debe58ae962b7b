"""Page-based R-tree over the ranking dimensions.

The R-tree is the hierarchical partition template of the signature-based
ranking cube (Chapter 4): the cube's signatures mirror its node structure,
queries walk it best-first, and incremental maintenance tracks how inserts
move tuples between its nodes.  It is also one of the index types merged by
Chapter 5 and the access structure of the skyline engine (Chapter 7).

Construction is Sort-Tile-Recursive (STR) bulk loading; incremental inserts
use Guttman's least-enlargement descent with quadratic node splits.  Because
signature maintenance (Section 4.2.5) needs the *old* and *new* paths of
every tuple whose position changes, :meth:`RTree.insert` reports exactly
that in its :class:`InsertOutcome`.

Page layout
-----------
A node page is columnar: the tuple ``(leaf, ids, lows, highs)`` with
``ids`` an ``int64[n]`` array and ``lows`` / ``highs`` ``float64[n, d]``
arrays, row ``i`` describing the node's entry at 1-based path position
``i + 1``.  In an internal node ``ids`` are child page ids and
``lows[i]`` / ``highs[i]`` the child's MBR; in a leaf ``ids`` are tids and
``highs is lows`` — a point is its own MBR, stored once.
:meth:`RTree.node_arrays` hands the page out as stored, so a consumer can
process a whole node at a time; :meth:`RTree.children` and
:meth:`RTree.leaf_entries` are row-wise views of the same page.

**Pages are immutable once handed out; writers replace arrays.**  An insert
or a split builds new arrays and writes a new page tuple — it never assigns
into an array a reader may still hold (the rule
``BaseBlockTable.insert`` follows for base blocks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.geometry import Box
from repro.storage.buffer import BufferPool
from repro.paper.hierindex import HierarchicalIndex, LeafEntry, NodeHandle
from repro.storage.pager import Pager

#: Approximate bytes per R-tree entry per dimension, used to derive the node
#: capacity from the page size (the thesis quotes M=204 for 2-d, 94 for 5-d
#: nodes at 4 KB pages).
_BYTES_PER_DIM = 10

#: One node page: ``(leaf, ids, lows, highs)`` — see the module docstring.
NodePage = Tuple[bool, np.ndarray, np.ndarray, np.ndarray]


def capacity_for_page_size(page_size: int, num_dims: int) -> int:
    """Node capacity (max entries) implied by a page size and dimensionality."""
    return max(4, page_size // (_BYTES_PER_DIM * (num_dims + 1)))


@dataclass
class InsertOutcome:
    """What an insert did to the tree, for signature maintenance.

    ``old_paths`` / ``new_paths`` cover every pre-existing tuple whose path
    changed (node splits re-distribute entries); ``new_paths`` additionally
    contains the freshly inserted tid.  Paths use 1-based entry positions
    and include the slot inside the leaf, matching Section 4.2.1.
    """

    tid: int
    split_occurred: bool
    old_paths: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    new_paths: Dict[int, Tuple[int, ...]] = field(default_factory=dict)


def _page_bytes(page: NodePage) -> int:
    """Stored size of a node page: ids, and each coordinate once."""
    leaf, ids, lows, highs = page
    return ids.nbytes + lows.nbytes + (0 if leaf else highs.nbytes)


def _frozen(page: NodePage) -> NodePage:
    """The page with its arrays read-only: a write through a view raises."""
    for array in page[1:]:
        array.setflags(write=False)
    return page


def _areas(lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Area of each box of a ``(..., d)`` pair of corner arrays."""
    return np.clip(highs - lows, 0.0, None).prod(axis=-1)


class RTree(HierarchicalIndex):
    """An R-tree storing points on the ranking dimensions."""

    def __init__(self, dims: Sequence[str], pager: Optional[Pager] = None,
                 max_entries: Optional[int] = None, min_entries: Optional[int] = None,
                 buffer_capacity: int = 256) -> None:
        if not dims:
            raise IndexError_("an R-tree needs at least one dimension")
        self.dims: Tuple[str, ...] = tuple(dims)
        self.pager = pager or Pager()
        self.max_entries = max_entries or capacity_for_page_size(
            self.pager.page_size, len(self.dims))
        if self.max_entries < 2:
            raise IndexError_("R-tree max_entries must be at least 2")
        self.min_entries = min_entries or max(1, self.max_entries // 3)
        self.buffer = BufferPool(self.pager, capacity=buffer_capacity)
        self._root_page: Optional[int] = None
        self._height = 0
        self._node_count = 0
        self._num_entries = 0

    # ------------------------------------------------------------------
    # bulk loading (STR)
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, dims: Sequence[str], points: np.ndarray,
              tids: Optional[Sequence[int]] = None, pager: Optional[Pager] = None,
              max_entries: Optional[int] = None, min_entries: Optional[int] = None,
              buffer_capacity: int = 256) -> "RTree":
        """Bulk-load an R-tree with Sort-Tile-Recursive packing."""
        tree = cls(dims, pager=pager, max_entries=max_entries,
                   min_entries=min_entries, buffer_capacity=buffer_capacity)
        tree._bulk_load(points, tids)
        return tree

    def _bulk_load(self, points: np.ndarray, tids: Optional[Sequence[int]]) -> None:
        if self._root_page is not None:
            raise IndexError_("R-tree is already built")
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != len(self.dims):
            raise IndexError_(
                f"points must be a (n, {len(self.dims)}) array, got {points.shape}")
        if tids is None:
            tids = np.arange(points.shape[0], dtype=np.int64)
        else:
            tids = np.asarray(tids, dtype=np.int64)
        self._num_entries = points.shape[0]

        if self._num_entries == 0:
            self._root_page = self._allocate(True, tids, points, points)
            self._height = 1
            return

        level_pages: List[int] = []
        level_lows: List[np.ndarray] = []
        level_highs: List[np.ndarray] = []
        for group in self._str_pack(np.arange(self._num_entries), points, 0):
            leaf_points = points[group]
            level_pages.append(self._allocate(True, tids[group], leaf_points, leaf_points))
            level_lows.append(leaf_points.min(axis=0))
            level_highs.append(leaf_points.max(axis=0))

        height = 1
        while len(level_pages) > 1:
            parent_pages: List[int] = []
            parent_lows: List[np.ndarray] = []
            parent_highs: List[np.ndarray] = []
            for start in range(0, len(level_pages), self.max_entries):
                end = start + self.max_entries
                lows = np.array(level_lows[start:end])
                highs = np.array(level_highs[start:end])
                parent_pages.append(self._allocate(
                    False, np.array(level_pages[start:end], dtype=np.int64), lows, highs))
                parent_lows.append(lows.min(axis=0))
                parent_highs.append(highs.max(axis=0))
            level_pages, level_lows, level_highs = parent_pages, parent_lows, parent_highs
            height += 1
        self._root_page = level_pages[0]
        self._height = height

    def _str_pack(self, indices: np.ndarray, points: np.ndarray, dim: int) -> List[np.ndarray]:
        """Recursively sort-tile indices into leaf groups of at most ``max_entries``."""
        count = len(indices)
        num_leaves = math.ceil(count / self.max_entries)
        if num_leaves <= 1:
            return [indices]
        remaining_dims = len(self.dims) - dim
        if remaining_dims <= 1:
            order = np.argsort(points[indices, dim], kind="stable")
            ordered = indices[order]
            return [
                ordered[start:start + self.max_entries]
                for start in range(0, count, self.max_entries)
            ]
        slices = math.ceil(num_leaves ** (1.0 / remaining_dims))
        per_slice = math.ceil(count / slices)
        order = np.argsort(points[indices, dim], kind="stable")
        ordered = indices[order]
        groups: List[np.ndarray] = []
        for start in range(0, count, per_slice):
            chunk = ordered[start:start + per_slice]
            groups.extend(self._str_pack(chunk, points, dim + 1))
        return groups

    # ------------------------------------------------------------------
    # incremental insertion (Guttman descent + quadratic split)
    # ------------------------------------------------------------------
    def insert(self, point: Sequence[float], tid: int) -> InsertOutcome:
        """Insert a point, reporting every tuple whose path changed."""
        if self._root_page is None:
            raise IndexError_("R-tree has not been built (bulk-load first)")
        point = np.array([float(v) for v in point], dtype=np.float64)
        if len(point) != len(self.dims):
            raise IndexError_("point dimensionality does not match the tree")

        descent = self._choose_path(point)
        split_chain = self._predict_splits(descent)
        root_will_split = split_chain == len(descent)

        old_paths: Dict[int, Tuple[int, ...]] = {}
        if split_chain > 0:
            # Topmost node that will split: the (split_chain)-th node from the
            # leaf upwards.  Capture every tuple path under it before any
            # structural change (paths elsewhere are unaffected; if the root
            # splits, every path gets a longer prefix, so capture everything).
            if root_will_split:
                old_paths = dict(self.iter_tuple_paths())
            else:
                top_index = len(descent) - split_chain
                top_page = descent[top_index][0]
                top_path = tuple(pos for _, pos in descent[1:top_index + 1])
                old_paths = dict(self._paths_under(top_page, top_path))

        self._num_entries += 1
        split_occurred = self._insert_at_leaf(descent, point, tid)

        new_paths: Dict[int, Tuple[int, ...]] = {}
        if split_occurred:
            if root_will_split:
                new_paths = dict(self.iter_tuple_paths())
            else:
                top_index = len(descent) - split_chain
                parent_index = max(0, top_index - 1)
                parent_page = descent[parent_index][0]
                parent_path = tuple(pos for _, pos in descent[1:parent_index + 1])
                new_paths = dict(self._paths_under(parent_page, parent_path))
            changed_old = {
                t: p for t, p in old_paths.items()
                if new_paths.get(t) is not None and new_paths[t] != p
            }
            changed_new = {t: new_paths[t] for t in (*changed_old, tid)}
            return InsertOutcome(tid=tid, split_occurred=True,
                                 old_paths=changed_old, new_paths=changed_new)

        leaf_path = tuple(pos for _, pos in descent[1:])
        new_path = leaf_path + (len(self._peek(descent[-1][0])[1]),)
        return InsertOutcome(
            tid=tid, split_occurred=False, old_paths={}, new_paths={tid: new_path})

    def _choose_path(self, point: np.ndarray) -> List[Tuple[int, int]]:
        """Least-enlargement descent.  Returns [(page_id, entry_pos_in_parent)]
        from the root (position 0, unused) down to the target leaf."""
        path: List[Tuple[int, int]] = [(self._root_page, 0)]
        leaf, ids, lows, highs = self.node_arrays(self._root_page)
        while not leaf:
            area = _areas(lows, highs)
            cost = _areas(np.minimum(lows, point), np.maximum(highs, point)) - area
            # Least enlargement, then least area, then the first such entry.
            best = int(np.lexsort((area, cost))[0])
            child = int(ids[best])
            path.append((child, best + 1))
            leaf, ids, lows, highs = self.node_arrays(child)
        return path

    def _predict_splits(self, descent: List[Tuple[int, int]]) -> int:
        """Length of the contiguous chain of nodes (from the leaf upward)
        that will split when one entry is added at the leaf."""
        chain = 0
        for page_id, _ in reversed(descent):
            if len(self._peek(page_id)[1]) >= self.max_entries:
                chain += 1
            else:
                break
        return chain

    def _insert_at_leaf(self, descent: List[Tuple[int, int]],
                        point: np.ndarray, tid: int) -> bool:
        leaf_id = descent[-1][0]
        _, ids, points, _ = self.node_arrays(leaf_id)
        points = np.vstack([points, point])
        self._write(leaf_id, True, np.append(ids, tid), points, points)
        self._adjust_mbrs(descent, point)

        split_occurred = False
        for level in range(len(descent) - 1, -1, -1):
            page_id = descent[level][0]
            if len(self._peek(page_id)[1]) <= self.max_entries:
                break
            split_occurred = True
            new_page_id = self._split_node(page_id)
            if level == 0:
                self._grow_root(page_id, new_page_id)
                break
            parent_id = descent[level - 1][0]
            _, ids, lows, highs = self._peek(parent_id)
            new_low, new_high = self._node_mbr(new_page_id)
            old_low, old_high = self._node_mbr(page_id)
            slot = int(np.flatnonzero(ids == page_id)[0])
            lows, highs = lows.copy(), highs.copy()
            lows[slot], highs[slot] = old_low, old_high
            self._write(parent_id, False, np.append(ids, new_page_id),
                        np.vstack([lows, new_low]), np.vstack([highs, new_high]))
        return split_occurred

    def _adjust_mbrs(self, descent: List[Tuple[int, int]], point: np.ndarray) -> None:
        for level in range(len(descent) - 1):
            parent_id = descent[level][0]
            slot = descent[level + 1][1] - 1
            _, ids, lows, highs = self._peek(parent_id)
            lows, highs = lows.copy(), highs.copy()
            lows[slot] = np.minimum(lows[slot], point)
            highs[slot] = np.maximum(highs[slot], point)
            self._write(parent_id, False, ids, lows, highs)

    def _split_node(self, page_id: int) -> int:
        """Quadratic split: distribute the node's entries into two nodes,
        keeping the original page for group 1 and allocating a new page for
        group 2.  Returns the new page id."""
        leaf, ids, lows, highs = self._peek(page_id)
        count = len(ids)
        areas = _areas(lows, highs)

        # Pick the first seed pair (i < j) with the largest dead area; pairs
        # that overlap so much that none wastes more than -1.0 leave (0, 1).
        waste = (_areas(np.minimum(lows[:, None], lows[None, :]),
                        np.maximum(highs[:, None], highs[None, :]))
                 - areas[:, None] - areas[None, :])
        waste[np.tril_indices(count)] = -np.inf
        seeds = divmod(int(np.argmax(waste)), count)
        if not waste[seeds] > -1.0:
            seeds = (0, 1)

        groups: Tuple[List[int], List[int]] = ([seeds[0]], [seeds[1]])
        group_lows, group_highs = lows[list(seeds)], highs[list(seeds)]
        remaining = [i for i in range(count) if i not in seeds]
        for placed, i in enumerate(remaining):
            left = len(remaining) - placed
            if self.min_entries - len(groups[0]) >= left:
                target = 0
            elif self.min_entries - len(groups[1]) >= left:
                target = 1
            else:
                enlarge = (_areas(np.minimum(group_lows, lows[i]),
                                  np.maximum(group_highs, highs[i]))
                           - _areas(group_lows, group_highs))
                target = 0 if enlarge[0] <= enlarge[1] else 1
            groups[target].append(i)
            group_lows[target] = np.minimum(group_lows[target], lows[i])
            group_highs[target] = np.maximum(group_highs[target], highs[i])

        def half(rows: List[int]) -> NodePage:
            half_lows = lows[rows]
            return leaf, ids[rows], half_lows, half_lows if leaf else highs[rows]

        self._write(page_id, *half(groups[0]))
        return self._allocate(*half(groups[1]))

    def _grow_root(self, old_root: int, sibling: int) -> None:
        low1, high1 = self._node_mbr(old_root)
        low2, high2 = self._node_mbr(sibling)
        self._root_page = self._allocate(
            False, np.array([old_root, sibling], dtype=np.int64),
            np.array([low1, low2]), np.array([high1, high2]))
        self._height += 1

    def _node_mbr(self, page_id: int) -> Tuple[np.ndarray, np.ndarray]:
        _, ids, lows, highs = self._peek(page_id)
        if not len(ids):
            zero = np.zeros(len(self.dims))
            return zero, zero
        return lows.min(axis=0), highs.max(axis=0)

    # ------------------------------------------------------------------
    # pages
    # ------------------------------------------------------------------
    def node_arrays(self, page_id: int) -> NodePage:
        """The node's page ``(leaf, ids, lows, highs)`` as stored.

        One counted read through the buffer pool — the same single access
        :meth:`children` and :meth:`leaf_entries` make.  The arrays are the
        page: read them, never assign into them.
        """
        return self.buffer.read(page_id)

    def _peek(self, page_id: int) -> NodePage:
        """The node's page without touching the buffer pool (maintenance)."""
        return self.pager.read(page_id, physical=False)

    def _allocate(self, *page) -> int:
        self._node_count += 1
        return self.pager.allocate(_frozen(page), size=_page_bytes(page))

    def _write(self, page_id: int, *page) -> None:
        self.buffer.write(page_id, _frozen(page), size=_page_bytes(page))

    # ------------------------------------------------------------------
    # path utilities
    # ------------------------------------------------------------------
    def _paths_under(self, page_id: int, prefix: Tuple[int, ...]
                     ) -> List[Tuple[int, Tuple[int, ...]]]:
        leaf, ids, _, _ = self._peek(page_id)
        if leaf:
            return [(tid, prefix + (pos,))
                    for pos, tid in enumerate(ids.tolist(), start=1)]
        result: List[Tuple[int, Tuple[int, ...]]] = []
        for pos, child in enumerate(ids.tolist(), start=1):
            result.extend(self._paths_under(child, prefix + (pos,)))
        return result

    def tuple_paths(self) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`iter_tuple_paths` as arrays: ``(n,)`` tids, ``(n, height)`` paths.

        The tree is balanced, so every path has ``height`` positions.  Pages
        are read in the same order (:meth:`iter_nodes`, a leaf through
        :meth:`node_arrays`), one counted read per node; rows come out sorted
        by path — the order signature cubing (Algorithm 1) sorts on.
        """
        tids, paths = [], []
        for node in self.iter_nodes():
            if node.is_leaf:
                ids = self.node_arrays(node.page_id)[1]
                rows = np.empty((len(ids), self._height), dtype=np.int64)
                rows[:, :-1], rows[:, -1] = node.path, np.arange(1, len(ids) + 1)
                tids.append(ids)
                paths.append(rows)
        return np.concatenate(tids), np.concatenate(paths)

    # ------------------------------------------------------------------
    # HierarchicalIndex interface
    # ------------------------------------------------------------------
    def root(self) -> NodeHandle:
        if self._root_page is None:
            raise IndexError_("R-tree has not been built")
        lows, highs = self._node_mbr(self._root_page)
        return NodeHandle(page_id=self._root_page,
                          box=Box.from_bounds(self.dims, lows, highs),
                          is_leaf=self._height == 1, level=self._height, path=())

    def children(self, node: NodeHandle) -> List[NodeHandle]:
        if node.is_leaf:
            return []
        _, ids, lows, highs = self.node_arrays(node.page_id)
        # The tree is balanced (STR packing, Guttman splits), so the level
        # says whether the children are leaves; no child page is read.
        return [
            NodeHandle(page_id=child, box=Box.from_bounds(self.dims, low, high),
                       is_leaf=node.level == 2, level=node.level - 1,
                       path=node.path + (position,))
            for position, (child, low, high) in enumerate(
                zip(ids.tolist(), lows.tolist(), highs.tolist()), start=1)
        ]

    def leaf_entries(self, node: NodeHandle) -> List[LeafEntry]:
        leaf, ids, points, _ = self.node_arrays(node.page_id)
        if not leaf:
            raise IndexError_(f"page {node.page_id} is not a leaf")
        return [
            LeafEntry(tid=tid, values=tuple(values), position=position)
            for position, (tid, values) in enumerate(
                zip(ids.tolist(), points.tolist()), start=1)
        ]

    def height(self) -> int:
        return self._height

    def node_count(self) -> int:
        return self._node_count

    def max_fanout(self) -> int:
        return self.max_entries

    @property
    def num_entries(self) -> int:
        """Number of indexed points."""
        return self._num_entries

    def size_in_bytes(self) -> int:
        """Estimated materialized size of the tree."""
        return self.pager.total_bytes()

"""Grid partition of the ranking dimensions into base and pseudo blocks.

Section 3.2.2: the ranking dimensions are cut into bins; the Cartesian
product of the bins forms *base blocks* identified by a ``bid``.  Section
3.2.3: for a cuboid whose selection cardinalities are ``c1..cs``, every
``sf = floor((prod c_j) ** (1/R))`` consecutive bins per dimension are
merged into a *pseudo block* identified by a ``pid`` so the tuples of one
cube cell fill roughly one disk page.

The class below owns the bin boundaries (the cube's *meta information*),
maps points to bids/pids, exposes the geometric box of any block (used for
ranking-function lower bounds), and enumerates block neighborhoods (Lemma 1
expansion in the query algorithm).

A grid never changes after construction (a cube that outgrows its grid
builds a new one), so ``domain``, ``neighbors``, the un-projected
``block_box``, ``block_corners``, ``corner_bids`` and ``pid_of_bid`` are
kept after their first derivation; nothing can invalidate them, so nothing
does.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CubeError
from repro.geometry import Box, Interval
from repro.storage.table import Relation


class GridPartition:
    """An axis-aligned grid over a fixed tuple of ranking dimensions."""

    def __init__(self, dims: Sequence[str], boundaries: Mapping[str, np.ndarray]) -> None:
        self.dims: Tuple[str, ...] = tuple(dims)
        if not self.dims:
            raise CubeError("a grid partition needs at least one ranking dimension")
        self.boundaries: Dict[str, np.ndarray] = {}
        for dim in self.dims:
            bounds = np.asarray(boundaries[dim], dtype=np.float64)
            if bounds.ndim != 1 or bounds.size < 2:
                raise CubeError(f"dimension {dim!r} needs at least two boundaries")
            if np.any(np.diff(bounds) <= 0):
                raise CubeError(f"boundaries of {dim!r} must be strictly increasing")
            self.boundaries[dim] = bounds
        self._bins_per_dim: Tuple[int, ...] = tuple(
            len(self.boundaries[d]) - 1 for d in self.dims
        )
        #: The boundaries as float lists: a scalar bin is one ``bisect``.
        self._edges = {d: bounds.tolist() for d, bounds in self.boundaries.items()}
        # Derived-once geometry.  Plain dict get / set: a sweep on another
        # thread can at worst derive an entry twice.
        self._domain: Optional[Box] = None
        self._boxes: Dict[int, Box] = {}
        self._corners: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._corner_bids: Dict[Tuple[str, ...], tuple] = {}
        self._neighbors: Dict[int, Tuple[int, ...]] = {}
        self._pids: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # basic shape
    # ------------------------------------------------------------------
    @property
    def num_blocks(self) -> int:
        """Total number of base blocks."""
        total = 1
        for count in self._bins_per_dim:
            total *= count
        return total

    def domain(self) -> Box:
        """The full domain box covered by the grid."""
        if self._domain is None:
            self._domain = Box({
                dim: Interval(float(bounds[0]), float(bounds[-1]))
                for dim, bounds in self.boundaries.items()
            })
        return self._domain

    # ------------------------------------------------------------------
    # coordinates <-> linear block ids
    # ------------------------------------------------------------------
    def bid_of_coords(self, coords: Sequence[int]) -> int:
        """Row-major linear base-block id of grid coordinates (0-based)."""
        bid = 0
        for coord, count in zip(coords, self._bins_per_dim):
            if not 0 <= coord < count:
                raise CubeError(f"coordinate {coord} out of range [0, {count})")
            bid = bid * count + coord
        return bid

    def coords_of_bid(self, bid: int) -> Tuple[int, ...]:
        """Grid coordinates of a linear base-block id."""
        if not 0 <= bid < self.num_blocks:
            raise CubeError(f"bid {bid} out of range [0, {self.num_blocks})")
        coords: List[int] = []
        for count in reversed(self._bins_per_dim):
            coords.append(bid % count)
            bid //= count
        return tuple(reversed(coords))

    def bid_of_point(self, values: Mapping[str, float]) -> int:
        """Base block containing a point given as ``{dim: value}``; a value
        outside the domain falls in its edge bin."""
        bid = 0
        for dim, count in zip(self.dims, self._bins_per_dim):
            bin_ = bisect_right(self._edges[dim], values[dim]) - 1
            bid = bid * count + min(max(bin_, 0), count - 1)
        return bid

    def assign(self, relation: Relation) -> np.ndarray:
        """Base-block id of every tuple in ``relation`` (vectorized)."""
        bids = np.zeros(relation.num_tuples, dtype=np.int64)
        for dim, count in zip(self.dims, self._bins_per_dim):
            bounds = self.boundaries[dim]
            column = relation.ranking_column(dim)
            bins = np.searchsorted(bounds, column, side="right") - 1
            bins = np.clip(bins, 0, count - 1)
            bids = bids * count + bins
        return bids

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def block_box(self, bid: int, dims: Optional[Sequence[str]] = None) -> Box:
        """Axis-aligned box of a base block, optionally projected onto ``dims``."""
        box = self._boxes.get(bid)
        if box is None:
            coords = self.coords_of_bid(bid)
            intervals: Dict[str, Interval] = {}
            for dim, coord in zip(self.dims, coords):
                bounds = self.boundaries[dim]
                intervals[dim] = Interval(float(bounds[coord]),
                                          float(bounds[coord + 1]))
            box = self._boxes[bid] = Box(intervals)
        if dims is not None:
            box = box.project(dims)
        return box

    def block_corners(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(lows, highs)`` corners of every base block, read-only.

        Both have shape ``(num_blocks, len(dims))``; row ``bid`` holds the
        ends of ``block_box(bid)``'s intervals in :attr:`dims` order — what
        :meth:`~repro.functions.base.RankingFunction.lower_bound_batch`
        takes to bound a whole sweep's blocks in one call.
        """
        if self._corners is None:
            lows = np.empty((self.num_blocks, len(self.dims)), dtype=np.float64)
            highs = np.empty_like(lows)
            bids = np.arange(self.num_blocks)
            for axis in reversed(range(len(self.dims))):
                bounds = self.boundaries[self.dims[axis]]
                bids, coords = np.divmod(bids, self._bins_per_dim[axis])
                lows[:, axis] = bounds[coords]
                highs[:, axis] = bounds[coords + 1]
            lows.flags.writeable = highs.flags.writeable = False
            self._corners = lows, highs
        return self._corners

    def corner_bids(self, dims: Tuple[str, ...]) -> tuple:
        """``(values along dims, bid)`` of each domain corner over ``dims``
        in ``Box.corners`` order (other dims at their low end); the value
        lists are shared: read them, never write into them."""
        kept = self._corner_bids.get(dims)
        if kept is None:
            lows = {dim: edges[0] for dim, edges in self._edges.items()}
            kept = self._corner_bids[dims] = tuple(
                ([corner[dim] for dim in dims],
                 self.bid_of_point({**lows, **corner}))
                for corner in self.domain().project(dims).corners())
        return kept

    def neighbors(self, bid: int) -> Tuple[int, ...]:
        """Base blocks sharing a face with ``bid`` (±1 along one dimension)."""
        kept = self._neighbors.get(bid)
        if kept is None:
            coords = self.coords_of_bid(bid)
            result: List[int] = []
            for axis, count in enumerate(self._bins_per_dim):
                for delta in (-1, 1):
                    coord = coords[axis] + delta
                    if 0 <= coord < count:
                        neighbor = list(coords)
                        neighbor[axis] = coord
                        result.append(self.bid_of_coords(neighbor))
            kept = self._neighbors[bid] = tuple(result)
        return kept

    # ------------------------------------------------------------------
    # pseudo blocks (Section 3.2.3)
    # ------------------------------------------------------------------
    def scale_factor(self, cardinalities: Sequence[int]) -> int:
        """``sf = floor((prod c_j) ** (1/R))``, clamped to the grid size."""
        product = 1
        for card in cardinalities:
            product *= max(1, int(card))
        sf = int(math.floor(product ** (1.0 / len(self.dims)))) if product > 1 else 1
        sf = max(1, sf)
        return min(sf, max(self._bins_per_dim))

    def pid_of_bid(self, bid: int, scale_factor: int) -> int:
        """Pseudo-block id of a base block under a given scale factor."""
        pid = self._pids.get((bid, scale_factor))
        if pid is None:
            coords = self.coords_of_bid(bid)
            pseudo_counts = self.pseudo_bins_per_dim(scale_factor)
            pid = 0
            for coord, pseudo_count in zip(coords, pseudo_counts):
                pid = pid * pseudo_count + min(coord // scale_factor,
                                               pseudo_count - 1)
            self._pids[(bid, scale_factor)] = pid
        return pid

    def pids_of_bids(self, bids: np.ndarray, scale_factor: int) -> np.ndarray:
        """:meth:`pid_of_bid` of a whole array of base-block ids (vectorized)."""
        coords = []
        for count in reversed(self._bins_per_dim):
            coords.append(bids % count)
            bids = bids // count
        pids = np.zeros(len(bids), dtype=np.int64)
        for coord, pseudo_count in zip(reversed(coords),
                                       self.pseudo_bins_per_dim(scale_factor)):
            pids = pids * pseudo_count + np.minimum(coord // scale_factor,
                                                    pseudo_count - 1)
        return pids

    def pseudo_bins_per_dim(self, scale_factor: int) -> Tuple[int, ...]:
        """Number of pseudo bins along each dimension under ``scale_factor``."""
        return tuple(
            max(1, math.ceil(count / scale_factor)) for count in self._bins_per_dim
        )

    # ------------------------------------------------------------------
    # meta information
    # ------------------------------------------------------------------
    def meta(self) -> Dict[str, List[float]]:
        """Bin boundaries keyed by dimension (the cube meta table)."""
        return {dim: bounds.tolist() for dim, bounds in self.boundaries.items()}

    def project(self, dims: Sequence[str]) -> "GridPartition":
        """Grid restricted to a subset of its dimensions."""
        missing = [d for d in dims if d not in self.boundaries]
        if missing:
            raise CubeError(f"dimensions {missing} are not part of this grid")
        return GridPartition(dims, {d: self.boundaries[d] for d in dims})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shape = "x".join(str(c) for c in self._bins_per_dim)
        return f"GridPartition(dims={list(self.dims)}, bins={shape})"

"""BBS skylines over the signature ranking cube (Sections 7.2.2–7.2.4).

The signature-pruned engine follows the branch-and-bound skyline (BBS)
paradigm: R-tree entries are visited in increasing *mindist* order, a node
is pruned if its best mapped corner is dominated by an already-found skyline
point (domination pruning) or if its signature bit says no tuple inside
satisfies the boolean predicate (boolean pruning).  Dynamic skylines map
every value to its distance from a query target before dominance is tested.

Drill-down / roll-up sessions (Section 7.2.4) reuse the pages and entries
retrieved by the previous query: the buffer pool stays warm, so an OLAP
navigation step costs far fewer disk accesses than a fresh query.

The served skyline is :class:`repro.skyline.BooleanFirstSkyline`; this
engine answers the same :class:`~repro.skyline.engine.SkylineResult` for
the Chapter 7 figures and, registered by
:func:`repro.paper.stack.register_paper_backends`, through an
:class:`~repro.engine.Executor`.
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import QueryError
from repro.paper.signature.cube import SignatureRankingCube
from repro.query import Predicate, SkylineQuery
from repro.skyline.dominance import dominated_by_any, dominated_rows, mapped_corners
from repro.skyline.engine import SkylineResult


#: Page id of heap items that are data points, not R-tree nodes.
_POINT = -1


class SkylineEngine:
    """BBS-style skyline computation over a signature ranking cube."""

    def __init__(self, cube: SignatureRankingCube, use_signature: bool = True) -> None:
        self.cube = cube
        self.relation = cube.relation
        self.rtree = cube.rtree
        self.use_signature = use_signature

    # ------------------------------------------------------------------
    # main query entry point
    # ------------------------------------------------------------------
    def query(self, query: SkylineQuery) -> SkylineResult:
        """Compute the (dynamic) skyline restricted by the boolean predicate.

        BBS as written — one heap keyed ``(mindist, corner, counter)``
        (a dominating corner sums to no more and sorts first, so a float
        tie never pops a point before its dominator), entries pushed in
        stored order.  Numpy runs once per expanded node: the
        signature mask (and leaf verification), then for its survivors only
        one mapped-corner matrix, one dominance test against the skyline so
        far and one left-to-right row sum.  A popped item is tested with
        the scalar :func:`dominated_by_any` on the float tuple it carries.
        """
        for dim in query.preference_dims:
            if dim not in self.rtree.dims:
                raise QueryError(
                    f"preference dimension {dim!r} is not covered by the R-tree")
        start = time.perf_counter()
        rtree_before = self.rtree.pager.stats.physical_reads
        sig_before = self.cube.store.pager.stats.physical_reads

        columns = [self.rtree.dims.index(d) for d in query.preference_dims]
        targets = (np.array(query.targets, dtype=np.float64)
                   if query.targets is not None else None)
        predicate = query.predicate
        reader = (self.cube.signature_reader(predicate)
                  if self.use_signature and not predicate.is_empty() else None)
        verify = reader is None and not predicate.is_empty()

        if reader is not None and not reader.test(()):
            # The root test may have loaded a member reader's first page.
            sig_io = self.cube.store.pager.stats.physical_reads - sig_before
            return SkylineResult(tids=(), disk_accesses=sig_io,
                                 signature_accesses=sig_io,
                                 elapsed_seconds=time.perf_counter() - start)

        # Every R-tree dimension in stored order is the common case: a slice
        # (a view) instead of a gathered copy of the page's columns.
        select = (slice(None) if columns == list(range(len(self.rtree.dims)))
                  else columns)

        # Skyline points in the order found, mapped values as float tuples;
        # ``found`` is them as a matrix, rebuilt when the skyline has grown.
        skyline_tids: List[int] = []
        skyline: List[Tuple[float, ...]] = []
        found = np.empty((0, len(columns)))

        peak_heap = 0
        expanded = 0
        verifications = 0
        counter = 0

        # Heap items: (mindist, corner, counter, page id, path, seen) for a
        # node, (mindist, mapped values, counter, _POINT, tid, seen) for a
        # data point, corners as float tuples.  ``seen`` is how many skyline
        # points the item was already tested against when pushed; the
        # skyline only grows, so a pop tests the later ones only.  The root
        # has no corner worth computing: it is popped while the skyline is
        # empty.
        heap: List[Tuple[float, Tuple[float, ...], int, int, object, int]] = [
            (0.0, (), counter, self.rtree.root().page_id, (), 0)]

        while heap:
            peak_heap = max(peak_heap, len(heap))
            _, corner, _, page_id, path, seen = heapq.heappop(heap)
            if seen < len(skyline) and dominated_by_any(corner, skyline[seen:]):
                continue
            if page_id == _POINT:
                skyline.append(corner)
                skyline_tids.append(path)
                continue

            expanded += 1
            leaf, ids, lows, highs = self.rtree.node_arrays(page_id)
            keep = (reader.mask(path, len(ids)) if reader is not None
                    else np.ones(len(ids), dtype=bool))
            if leaf and verify:
                verifications += len(ids)
                for dim, value in predicate.conditions:
                    keep = keep & (self.relation.selection_column(dim)[ids] == value)
            rows = keep.nonzero()[0]
            if not len(rows):
                continue
            lows = lows[rows][:, select]
            corners = mapped_corners(lows, lows if leaf else highs[rows][:, select],
                                     targets)
            seen = len(skyline)
            if seen:
                if len(found) != seen:
                    found = np.array(skyline)
                alive = ~dominated_rows(corners, found)
                rows, corners = rows[alive], corners[alive]
            # Column by column, left to right: equals float(sum(corner)).
            mindist = corners[:, 0].copy()
            for column in range(1, corners.shape[1]):
                mindist += corners[:, column]
            for row, entry, dist, corner in zip(rows.tolist(), ids[rows].tolist(),
                                                mindist.tolist(),
                                                map(tuple, corners.tolist())):
                counter += 1
                heapq.heappush(heap, (
                    (dist, corner, counter, _POINT, entry, seen) if leaf else
                    (dist, corner, counter, entry, path + (row + 1,), seen)))

        elapsed = time.perf_counter() - start
        rtree_io = self.rtree.pager.stats.physical_reads - rtree_before
        sig_io = self.cube.store.pager.stats.physical_reads - sig_before
        return SkylineResult(
            tids=tuple(sorted(skyline_tids)),
            disk_accesses=rtree_io + sig_io + verifications,
            signature_accesses=sig_io,
            peak_heap_size=peak_heap,
            nodes_expanded=expanded,
            elapsed_seconds=elapsed,
            extra={"boolean_verifications": float(verifications)},
        )


class SkylineSession:
    """OLAP navigation session: drill-down / roll-up with warm buffers."""

    def __init__(self, engine: SkylineEngine) -> None:
        self.engine = engine
        self._last_query: Optional[SkylineQuery] = None

    def fresh(self, query: SkylineQuery) -> SkylineResult:
        """Run a query from cold buffers (a brand-new query)."""
        self.engine.rtree.buffer.invalidate()
        self.engine.cube.store.buffer.invalidate()
        result = self.engine.query(query)
        self._last_query = query
        return result

    def drill_down(self, extra_conditions: Dict[str, int]) -> SkylineResult:
        """Add boolean conditions to the previous query, reusing its pages."""
        if self._last_query is None:
            raise QueryError("drill_down requires a previous query in the session")
        merged = dict(self._last_query.predicate.as_dict)
        merged.update({k: int(v) for k, v in extra_conditions.items()})
        query = SkylineQuery(Predicate.of(merged), self._last_query.preference_dims,
                             self._last_query.targets)
        result = self.engine.query(query)
        self._last_query = query
        return result

    def roll_up(self, drop_dims: Sequence[str]) -> SkylineResult:
        """Remove boolean conditions from the previous query, reusing its pages."""
        if self._last_query is None:
            raise QueryError("roll_up requires a previous query in the session")
        remaining = {
            dim: value for dim, value in self._last_query.predicate.as_dict.items()
            if dim not in set(drop_dims)
        }
        query = SkylineQuery(Predicate.of(remaining), self._last_query.preference_dims,
                             self._last_query.targets)
        result = self.engine.query(query)
        self._last_query = query
        return result

"""The BBS loop against the loop it replaced, on small generated relations.

``SkylineEngine.query`` tests a popped heap item with the scalar
``dominated_by_any`` on the float tuple the item carries, and computes a
node's corners, dominance test and ``mindist`` only for the entries that
survive its signature mask.  ``_reference_query`` below is the earlier
loop, kept here as the reference: every popped item paid a one-row
``dominated_rows`` call and every entry of a node had its corner computed.
Both must answer the same tids and report the same counts, on twin cubes
whose pagers and buffers start alike, so the counts pin every page read.

The reference's early return (root signature test fails) reports the pages
that test loaded, as the engine does, and its heap is keyed
``(mindist, corner, counter)`` like the engine's, so a float ``mindist`` tie
pops the dominating point first; nothing else differs from the loop it
copies.  Both answers are also compared with ``BooleanFirstSkyline``: on this
grid-valued data ``mindist`` sums tie often.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.query import Predicate, SkylineQuery
from repro.paper.signature import SignatureRankingCube
from repro.paper.skyline import SkylineEngine
from repro.skyline import BooleanFirstSkyline
from repro.skyline.dominance import dominated_rows, mapped_corners
from repro.storage.pager import Pager
from repro.paper.rtree import RTree
from repro.storage.table import Relation, Schema

SELECTION = ("A1", "A2", "A3")
RANKING = ("N1", "N2", "N3")
CARDINALITY = 3  # codes 0..2; the code 3 is absent from every column
_POINT = -1


def _reference_query(engine: SkylineEngine, query: SkylineQuery):
    """The per-item-numpy loop: ``(tids, disk, signature, peak, expanded,
    verifications)``."""
    rtree, store = engine.rtree, engine.cube.store
    rtree_before = rtree.pager.stats.physical_reads
    sig_before = store.pager.stats.physical_reads
    columns = [rtree.dims.index(d) for d in query.preference_dims]
    targets = (np.array(query.targets, dtype=np.float64)
               if query.targets is not None else None)
    predicate = query.predicate
    reader = (engine.cube.signature_reader(predicate)
              if engine.use_signature and not predicate.is_empty() else None)
    verify = reader is None and not predicate.is_empty()
    if reader is not None and not reader.test(()):
        sig_io = store.pager.stats.physical_reads - sig_before
        return (), sig_io, sig_io, 0, 0, 0.0
    select = (slice(None) if columns == list(range(len(rtree.dims)))
              else columns)
    skyline_tids: List[int] = []
    skyline_values = np.empty((64, len(columns)))
    peak_heap = expanded = verifications = counter = 0
    heap: List[Tuple[float, tuple, int, int, object, np.ndarray, int]] = [
        (0.0, (), counter, rtree.root().page_id, (), np.zeros(len(columns)), 0)]
    while heap:
        peak_heap = max(peak_heap, len(heap))
        _, _, _, page_id, path, corner, seen = heapq.heappop(heap)
        if seen < len(skyline_tids) and dominated_rows(
                corner[None, :], skyline_values[seen:len(skyline_tids)])[0]:
            continue
        if page_id == _POINT:
            if len(skyline_tids) == len(skyline_values):
                skyline_values = np.concatenate(
                    [skyline_values, np.empty_like(skyline_values)])
            skyline_values[len(skyline_tids)] = corner
            skyline_tids.append(path)
            continue
        expanded += 1
        leaf, ids, lows, highs = rtree.node_arrays(page_id)
        keep = (reader.mask(path, len(ids)) if reader is not None
                else np.ones(len(ids), dtype=bool))
        if leaf and verify:
            verifications += len(ids)
            for dim, value in predicate.conditions:
                keep = keep & (engine.relation.selection_column(dim)[ids] == value)
        lows = lows[:, select]
        corners = mapped_corners(lows, lows if leaf else highs[:, select], targets)
        seen = len(skyline_tids)
        if seen:
            keep = keep & ~dominated_rows(corners, skyline_values[:seen])
        mindist = corners[:, 0].copy()
        for column in range(1, corners.shape[1]):
            mindist += corners[:, column]
        rows = keep.nonzero()[0]
        for row, entry, dist, corner in zip(rows.tolist(), ids[rows].tolist(),
                                            mindist[rows].tolist(), corners[rows]):
            counter += 1
            key = (dist, tuple(corner.tolist()), counter)
            heapq.heappush(heap, key + (
                (_POINT, entry, corner, seen) if leaf else
                (entry, path + (row + 1,), corner, seen)))
    rtree_io = rtree.pager.stats.physical_reads - rtree_before
    sig_io = store.pager.stats.physical_reads - sig_before
    return (tuple(sorted(skyline_tids)), rtree_io + sig_io + verifications,
            sig_io, peak_heap, expanded, float(verifications))


def _observed(result):
    return (result.tids, result.disk_accesses, result.signature_accesses,
            result.peak_heap_size, result.nodes_expanded,
            result.extra.get("boolean_verifications", 0.0))


@st.composite
def relations(draw):
    """Ranking values on a coarse grid (exact ties on every dim) with some
    rows repeated verbatim (duplicate points)."""
    num_tuples = draw(st.integers(1, 160))
    levels = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    selection = rng.integers(0, CARDINALITY, size=(num_tuples, len(SELECTION)))
    ranking = rng.integers(0, levels + 1, size=(num_tuples, len(RANKING))) / levels
    repeats = draw(st.integers(0, num_tuples))
    if repeats:
        picked = rng.integers(0, num_tuples, size=repeats)
        selection = np.concatenate([selection, selection[picked]])
        ranking = np.concatenate([ranking, ranking[picked]])
    return Relation(Schema(SELECTION, RANKING), selection, ranking), levels


@st.composite
def queries(draw, levels):
    dims = draw(st.permutations(RANKING))[:draw(st.integers(1, 3))]
    targets = None
    if draw(st.booleans()):
        targets = tuple(draw(st.integers(0, levels)) / levels for _ in dims)
    count = draw(st.integers(0, 3))
    conditions = {SELECTION[i]: draw(st.integers(0, CARDINALITY))
                  for i in draw(st.permutations(range(3)))[:count]}
    return draw(st.booleans()), SkylineQuery(Predicate.of(conditions),
                                             tuple(dims), targets=targets)


def _twin_cube(relation, max_entries, rtree_buffer, sig_buffer, page_size):
    rtree = RTree.build(RANKING, relation.ranking_matrix(),
                        max_entries=max_entries, buffer_capacity=rtree_buffer)
    return SignatureRankingCube(relation, rtree=rtree,
                                pager=Pager(page_size=page_size),
                                buffer_capacity=sig_buffer)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), max_entries=st.integers(4, 10),
       rtree_buffer=st.integers(1, 6), sig_buffer=st.integers(1, 6),
       page_size=st.sampled_from((64, 256, 1024)))
def test_the_loop_is_the_per_item_numpy_loop(data, max_entries, rtree_buffer,
                                             sig_buffer, page_size):
    relation, levels = data.draw(relations())
    shape = (relation, max_entries, rtree_buffer, sig_buffer, page_size)
    reference_cube, cube = _twin_cube(*shape), _twin_cube(*shape)
    # A short stream per cube pair: later queries run on the buffers the
    # earlier ones left, so the counts pin the read order too.
    for _ in range(3):
        use_signature, query = data.draw(queries(levels))
        expected = _reference_query(
            SkylineEngine(reference_cube, use_signature=use_signature), query)
        observed = _observed(
            SkylineEngine(cube, use_signature=use_signature).query(query))
        assert observed == expected, query
        assert observed[0] == BooleanFirstSkyline(relation).query(query).tids, \
            query

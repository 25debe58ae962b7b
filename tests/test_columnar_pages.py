"""Seams of the columnar pages: the array-at-a-time accessors must agree with
the row-wise ones they sit beside, and cost exactly the same page loads."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.cube import RankingCube, build_ranking_fragments
from repro.cube.providers import (
    CuboidCellProvider,
    IntersectionCellProvider,
    UnfilteredCellProvider,
)
from repro.cube.query import TopKAccumulator
from repro.geometry import Box
from repro.partition.grid import GridPartition
from repro.query import Predicate, SkylineQuery
from repro.paper.signature import Signature, SignatureRankingCube, SignatureStore
from repro.paper.signature.encoding import (
    adaptive_code_bits,
    adaptive_code_bits_batch,
    encode_adaptive,
)
from repro.paper.signature.store import CombinedSignatureReader
from repro.paper.skyline import SkylineEngine
from repro.skyline import BooleanFirstSkyline
from repro.skyline.dominance import dominated_by_any, dominated_rows, mapped_corners
from repro.storage.pager import Pager
from repro.paper.rtree import RTree
from repro.workloads import SyntheticSpec, generate_relation
from tests.conftest import mask_equal

FANOUT = 5
DEPTH = 3

positions = st.integers(min_value=1, max_value=FANOUT)
tuple_paths = st.lists(st.tuples(*[positions] * DEPTH), min_size=1, max_size=40)
# Parent paths to probe: real nodes, pruned nodes and paths below a leaf slot.
probes = st.lists(st.lists(positions, min_size=0, max_size=DEPTH + 1).map(tuple),
                  min_size=1, max_size=25)
# 24..64-byte pages: budgets of 96..256 bits against ~22 bits a node, so a
# signature is cut into several partial pages that probes load one at a time.
page_sizes = st.integers(min_value=24, max_value=64)


def _readers(cells, page_size):
    store = SignatureStore(fanout=FANOUT, pager=Pager(page_size=page_size))
    for number, paths in enumerate(cells):
        store.put(("A",), (number,), Signature.from_paths(paths, FANOUT))
    return [store.reader(("A",), (number,)) for number in range(len(cells))]


def _assert_mask_is_test(by_mask, by_test, probe_paths):
    for parent in probe_paths:
        for count in (FANOUT, FANOUT + 2, 2):
            mask = by_mask.mask(parent, count)
            assert mask.dtype == bool and mask.shape == (count,)
            assert mask.tolist() == [by_test.test(parent + (i,))
                                     for i in range(1, count + 1)]
            assert by_mask.pages_loaded == by_test.pages_loaded


class TestSignatureMask:
    @settings(max_examples=60, deadline=None)
    @given(tuple_paths, probes, page_sizes)
    def test_single_reader(self, paths, probe_paths, page_size):
        by_mask, = _readers([paths], page_size)
        by_test, = _readers([paths], page_size)
        _assert_mask_is_test(by_mask, by_test, probe_paths)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(tuple_paths, min_size=2, max_size=3), probes, page_sizes)
    def test_combined_reader_short_circuits_like_test(self, cells, probe_paths,
                                                      page_size):
        by_mask = CombinedSignatureReader(_readers(cells, page_size))
        by_test = CombinedSignatureReader(_readers(cells, page_size))
        _assert_mask_is_test(by_mask, by_test, probe_paths)
        assert ([r.pages_loaded for r in by_mask.readers]
                == [r.pages_loaded for r in by_test.readers])

    def test_the_page_sizes_drawn_cut_a_signature_into_several_pages(self):
        paths = [(a, b, c) for a in (1, 2, 3, 4) for b in (1, 3, 5) for c in (2, 4)]
        assert all(len(_readers([paths], size)[0].refs) >= 3 for size in (24, 64))

    def test_missing_cell_masks_everything_out(self):
        reader = SignatureStore(fanout=FANOUT).reader(("A",), (9,))
        assert not reader.mask((), FANOUT).any()
        assert reader.pages_loaded == 0

    def test_stored_bits_cannot_be_written_through_a_mask(self):
        reader, = _readers([[(1, 2, 3), (4, 2, 1)]], 96)
        mask = reader.mask((), 4)
        assert mask.tolist() == [True, False, False, True]
        assert not mask.flags.writeable


def _assert_arrays_are_the_row_views(tree):
    leaves = internals = 0
    for node in tree.iter_nodes():
        leaf, ids, lows, highs = tree.node_arrays(node.page_id)
        assert leaf == node.is_leaf
        assert ids.dtype == np.int64 and lows.dtype == np.float64
        assert lows.shape == highs.shape == (len(ids), len(tree.dims))
        if leaf:
            leaves += 1
            assert highs is lows
            entries = tree.leaf_entries(node)
            assert [e.tid for e in entries] == ids.tolist()
            assert [e.values for e in entries] == [tuple(row) for row in lows.tolist()]
            assert [e.position for e in entries] == list(range(1, len(ids) + 1))
        else:
            internals += 1
            children = tree.children(node)
            assert [c.page_id for c in children] == ids.tolist()
            assert [c.path for c in children] == [
                node.path + (i,) for i in range(1, len(ids) + 1)]
            for child, low, high in zip(children, lows.tolist(), highs.tolist()):
                assert [child.box.interval(d).low for d in tree.dims] == low
                assert [child.box.interval(d).high for d in tree.dims] == high
                # children() derives the leaf flag from the level alone.
                assert child.is_leaf == tree.node_arrays(child.page_id)[0]
    assert leaves and (internals or tree.height() == 1)


class TestNodeArrays:
    def test_rows_equal_the_row_wise_views_after_bulk_load(self):
        points = np.random.default_rng(21).random((700, 3))
        _assert_arrays_are_the_row_views(
            RTree.build(["X", "Y", "Z"], points, max_entries=8))

    def test_rows_equal_the_row_wise_views_after_inserts_with_splits(self):
        rng = np.random.default_rng(22)
        # 14 points in one level of 4-entry leaves under one root: 200
        # inserts split leaves, internal nodes and the root itself.
        tree = RTree.build(["X", "Y"], rng.random((14, 2)), max_entries=4)
        height = tree.height()
        splits = 0
        for tid in range(14, 214):
            splits += tree.insert(rng.random(2).tolist(), tid).split_occurred
        assert splits > 20 and tree.height() > height
        assert sorted(tid for tid, _ in tree.iter_tuple_paths()) == list(range(214))
        _assert_arrays_are_the_row_views(tree)

    def test_one_counted_read_like_children(self):
        tree = RTree.build(["X", "Y"], np.random.default_rng(23).random((300, 2)),
                           max_entries=8)
        root = tree.root()
        reads = (tree.buffer.hits + tree.buffer.misses,
                 tree.pager.stats.logical_reads)
        tree.node_arrays(root.page_id)
        after_arrays = (tree.buffer.hits + tree.buffer.misses,
                        tree.pager.stats.logical_reads)
        tree.children(root)
        after_children = (tree.buffer.hits + tree.buffer.misses,
                          tree.pager.stats.logical_reads)
        assert after_arrays == (reads[0] + 1, reads[1] + 1)
        assert after_children == (reads[0] + 2, reads[1] + 2)

    def test_an_insert_replaces_arrays_a_reader_holds(self):
        tree = RTree.build(["X", "Y"], np.random.default_rng(24).random((6, 2)),
                           max_entries=8)
        _, ids, points, _ = tree.node_arrays(tree.root().page_id)
        held = ids.copy(), points.copy()
        tree.insert([0.5, 0.5], 6)
        assert np.array_equal(ids, held[0]) and np.array_equal(points, held[1])
        assert not ids.flags.writeable and not points.flags.writeable
        assert tree.node_arrays(tree.root().page_id)[1].tolist() == list(range(7))


def _min_corner(box, dims, targets):
    """The box's best mapped corner, one interval at a time: its low end,
    or the target's distance to the interval."""
    if targets is None:
        return [box.interval(dim).low for dim in dims]
    return [abs(box.interval(dim).clamp(t) - t) for dim, t in zip(dims, targets)]


# A coarse grid, so equal coordinates (ties are not dominance) are common.
grid = st.integers(0, 4).map(lambda v: v / 4)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(st.tuples(*[grid] * d), min_size=0, max_size=6),
    st.lists(st.tuples(*[grid] * d, *[grid] * d), min_size=1, max_size=8),
    st.one_of(st.none(), st.tuples(*[grid] * d)))))
def test_array_dominance_is_the_scalar_definition(case):
    found, boxes, targets = case
    d = len(boxes[0]) // 2
    one, other = np.array([b[:d] for b in boxes]), np.array([b[d:] for b in boxes])
    lows, highs = np.minimum(one, other), np.maximum(one, other)
    target_array = None if targets is None else np.array(targets)
    dims = [f"N{i}" for i in range(d)]

    corners = mapped_corners(lows, highs, target_array)
    assert corners.tolist() == [
        _min_corner(Box.from_bounds(dims, low, high), dims, targets)
        for low, high in zip(lows.tolist(), highs.tolist())]
    points = mapped_corners(lows, lows, target_array)
    assert points.tolist() == [
        row if targets is None else [abs(v - t) for v, t in zip(row, targets)]
        for row in lows.tolist()]
    assert dominated_rows(corners, np.array(found).reshape(len(found), d)).tolist() == [
        dominated_by_any(corner, found) for corner in corners.tolist()]


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=204).flatmap(
    lambda fanout: st.tuples(
        st.just(fanout),
        st.lists(st.integers(0, 1), min_size=0, max_size=fanout + 8))))
def test_adaptive_code_bits_is_the_length_of_the_adaptive_code(case):
    fanout, bits = case
    assert adaptive_code_bits(bits, fanout) == len(encode_adaptive(bits, fanout))


def test_sparse_and_dense_extremes_size_like_their_codes():
    for fanout in (2, 16, 32, 204):
        for bits in ([1] * fanout, [0] * (fanout - 1) + [1], [1] + [0] * (fanout - 1),
                     [1, 0] * (fanout // 2), [1]):
            assert adaptive_code_bits(bits, fanout) == len(encode_adaptive(bits, fanout))


def _code_lengths(bits, widths, fanout):
    return [len(encode_adaptive([int(b) for b in row[:width]], fanout))
            for row, width in zip(bits, widths)]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_row_of_the_batch_kernel_is_the_length_of_its_adaptive_code(data):
    fanout = data.draw(st.integers(2, 204))
    columns = data.draw(st.integers(0, fanout + 8))
    rows = data.draw(st.lists(
        st.tuples(st.lists(st.booleans(), min_size=columns, max_size=columns),
                  st.integers(0, columns)),
        min_size=0, max_size=12))
    bits = np.array([row for row, _ in rows], dtype=bool).reshape(len(rows), columns)
    widths = np.array([width for _, width in rows], dtype=np.int64)
    sizes = adaptive_code_bits_batch(bits, widths, fanout)
    assert sizes.shape == (len(rows),)
    assert sizes.tolist() == _code_lengths(bits, widths, fanout)


def test_the_batch_kernel_sizes_the_extremes_and_an_empty_matrix():
    for fanout in (2, 3, 16, 32, 33, 204):
        bits = np.zeros((5, fanout), dtype=bool)
        bits[0, -1] = True       # all zero but the last
        bits[1, :] = True        # all ones
        bits[2, ::2] = True      # alternating
        bits[3, 0] = True        # a single leading bit
        widths = np.array([fanout, fanout, fanout, fanout, 0])  # and no bits at all
        assert (adaptive_code_bits_batch(bits, widths, fanout).tolist()
                == _code_lengths(bits, widths, fanout))
        assert adaptive_code_bits_batch(
            np.zeros((0, fanout), dtype=bool), np.zeros(0, dtype=np.int64), fanout
        ).tolist() == []


class TestMaintenanceClearsBeforeItSets:
    """A split can move tuple B into the slot tuple A of the same cell just
    left; patching per tid would let A's clear wipe the bit B just set."""

    def _grown_cube(self):
        relation = generate_relation(SyntheticSpec(
            num_tuples=3000, num_selection_dims=3, num_ranking_dims=2,
            cardinality=5, seed=3))
        cube = SignatureRankingCube(relation, rtree_max_entries=16)
        rng = np.random.default_rng(4)
        splits = 0
        for _ in range(60):
            row = {d: int(rng.integers(0, 5)) for d in relation.selection_dims}
            row.update({d: float(rng.random()) for d in relation.ranking_dims})
            splits += cube.insert([row]).node_splits
        assert splits >= 20
        return relation, cube, rng

    def test_stored_signatures_equal_a_rebuild_and_skylines_the_baseline(self):
        relation, cube, rng = self._grown_cube()
        paths = dict(cube.rtree.iter_tuple_paths())
        assert len(paths) == relation.num_tuples == 3060
        for dims in cube.cuboid_dims:
            columns = [relation.selection_column(d) for d in dims]
            cells = {}
            for tid, path in paths.items():
                cells.setdefault(tuple(int(c[tid]) for c in columns), []).append(path)
            for cell, cell_paths in cells.items():
                assert (cube.store.load_signature(dims, cell)
                        == Signature.from_paths(cell_paths, cube.store.fanout)), (dims, cell)

        engine, baseline = SkylineEngine(cube), BooleanFirstSkyline(relation)
        for number in range(60):
            dims = rng.choice(3, size=int(rng.integers(1, 3)), replace=False)
            query = SkylineQuery(
                Predicate.of({relation.selection_dims[int(d)]: int(rng.integers(0, 5))
                              for d in dims}),
                relation.ranking_dims,
                targets=tuple(rng.random(2)) if number % 2 else None)
            assert engine.query(query).tids == baseline.query(query).tids, query


# ----------------------------------------------------------------------
# the grid cube's columnar pages
# ----------------------------------------------------------------------
# Three distinct scores: ties at the k-th position and at the lexsort cut
# are the common case, so the tid tie-break decides most examples.
scored_tuples = st.lists(st.integers(0, 80), unique=True, max_size=50).flatmap(
    lambda tids: st.tuples(
        st.just(tids),
        st.lists(st.sampled_from([0.25, 0.5, 0.5, 1.0]),
                 min_size=len(tids), max_size=len(tids))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scored_tuples, st.integers(1, 60),
       st.lists(st.integers(1, 30), min_size=1, max_size=8))
def test_offer_many_is_offer_one_by_one(scored, k, chunk_sizes):
    """Whatever the chunking (chunks above and below ``k``, ``k`` beyond the
    input), the bulk path retains what the per-tuple path retains."""
    tids, scores = scored
    one_by_one, bulk = TopKAccumulator(k), TopKAccumulator(k)
    start = 0
    for number in range(len(tids) + 1):
        size = chunk_sizes[number % len(chunk_sizes)]
        chunk = slice(start, start + size)
        for tid, score in zip(tids[chunk], scores[chunk]):
            one_by_one.offer(tid, score)
        bulk.offer_many(np.array(tids[chunk], dtype=np.int64),
                        np.array(scores[chunk], dtype=np.float64))
        assert bulk.ranked() == one_by_one.ranked()
        assert bulk.kth_score == one_by_one.kth_score
        assert len(bulk) == len(one_by_one)
        for bound in (0.25, 0.5, 1.0, float("inf")):
            assert (bulk.verified_count(bound)
                    == one_by_one.verified_count(bound))
        start += size
        if start >= len(tids):
            break
    assert all(type(tid) is int and type(score) is float
               for tid, score in bulk.ranked())


@settings(max_examples=400, deadline=None, derandomize=True)
@given(scored_tuples, st.integers(1, 60),
       st.lists(st.tuples(st.integers(0, 12), st.booleans()),
                min_size=1, max_size=8))
@example(([3, 1, 2], [0.5, 0.5, 0.25]), 1, [(0, True), (3, True)])
@example(([3, 1, 2], [0.5, 0.5, 0.25]), 7, [(2, False), (0, True), (1, True)])
# A bulk chunk that lands exactly on k, then one that crosses it ...
@example((list(range(9)), [0.5] * 4 + [0.25] * 5), 4,
         [(4, True), (3, True), (2, False)])
@example((list(range(9)), [1.0] * 4 + [0.5] * 5), 4,
         [(3, True), (3, True), (3, False)])
# ... and the same two boundaries reached by a scalar offer.
@example((list(range(9)), [0.5] * 4 + [0.25] * 5), 4,
         [(3, True), (1, False), (5, True)])
def test_any_interleaving_of_offers_retains_the_canonical_k(scored, k, steps):
    """Scalar and bulk offers in any mix — empty chunks, ties under different
    tids, ``k = 1``, ``k`` above the total, a chunk ending on ``k`` and one
    crossing it — leave, after every step, exactly the first ``k`` of the
    pairs seen so far in ``(score, tid)`` order."""
    tids, scores = scored
    topk, seen, start = TopKAccumulator(k), [], 0
    for number in range(2 * len(tids) + 2):
        size, bulk = steps[number % len(steps)]
        chunk = slice(start, start + size)
        if bulk:
            topk.offer_many(np.array(tids[chunk], dtype=np.int64),
                            np.array(scores[chunk], dtype=np.float64))
        else:
            for tid, score in zip(tids[chunk], scores[chunk]):
                topk.offer(tid, score)
        seen.extend(zip(tids[chunk], scores[chunk]))
        start += size
        expected = sorted(seen, key=lambda pair: (pair[1], pair[0]))[:k]
        assert topk.ranked() == expected
        assert topk.ordered() == ([tid for tid, _ in expected],
                                  [score for _, score in expected])
        assert len(topk) == len(expected)
        assert topk.is_full() == (len(seen) >= k)
        assert topk.kth_score == (expected[-1][1] if len(seen) >= k
                                  else float("inf"))
        for bound in (0.25, 0.5, 1.0, float("inf")):
            assert topk.verified_count(bound) == sum(
                score < bound for _, score in expected)

PROVIDER_SPEC = SyntheticSpec(num_tuples=400, num_selection_dims=3,
                              num_ranking_dims=2, cardinality=3, seed=31)


def _assert_provider_is_brute_force(cube, provider, predicate):
    relation, table = cube.relation, cube.block_table
    matches = mask_equal(relation, predicate.as_dict)
    provider.reset()
    for bid in range(cube.grid.num_blocks):
        tids = provider.tids_in_block(bid)
        assert isinstance(tids, np.ndarray) and tids.dtype == np.int64
        assert (np.diff(tids) > 0).all()  # ascending, no duplicates
        assert np.isin(tids, table.block_arrays(bid)[0]).all()
        assert tids.tolist() == np.flatnonzero(
            matches & (table.bids == bid)).tolist()


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(0, 10 ** 6))
def test_providers_hand_out_the_brute_force_tids_ascending(seed):
    rng = np.random.default_rng(seed)
    relation = generate_relation(PROVIDER_SPEC)
    cubes = [RankingCube(relation, block_size=25),
             build_ranking_fragments(relation, fragment_size=1, block_size=25)]
    values = {dim: int(rng.integers(0, 3)) for dim in relation.selection_dims}
    predicates = [Predicate.of(), Predicate.of(A2=values["A2"]),
                  Predicate.of(A1=values["A1"], A3=values["A3"]),
                  Predicate.of(values), Predicate.of(A1=values["A1"], A2=7)]
    expected_kinds = [
        {UnfilteredCellProvider, CuboidCellProvider},
        {UnfilteredCellProvider, CuboidCellProvider, IntersectionCellProvider}]

    def check():
        for cube, kinds in zip(cubes, expected_kinds):
            seen = set()
            for predicate in predicates:
                provider, _ = cube.plan_for(predicate)
                seen.add(type(provider))
                _assert_provider_is_brute_force(cube, provider, predicate)
            assert seen == kinds

    check()
    domain = cubes[0].grid.domain()  # one relation, one block size: one grid
    for _ in range(40):
        # Codes run 0..2: a 3 opens cells no page exists for yet.
        row = {dim: int(rng.integers(0, 4)) for dim in relation.selection_dims}
        for dim in relation.ranking_dims:
            interval = domain.interval(dim)
            row[dim] = float(rng.uniform(interval.low, interval.high))
        tid = relation.append(row)
        for cube in cubes:
            cube.insert(tid, row)
    check()


def test_an_empty_first_fragment_spares_the_second_fragments_pages():
    relation = generate_relation(PROVIDER_SPEC)
    cube = build_ranking_fragments(relation, fragment_size=1, block_size=25)
    probe, _ = cube.plan_for(Predicate.of(A1=0, A2=0))
    assert isinstance(probe, IntersectionCellProvider)
    first, second = (p.cuboid.dims[0] for p in probe.providers)
    provider, _ = cube.plan_for(Predicate.of({first: 99, second: 0}))
    spared = provider.providers[1].cuboid.buffer
    reads = spared.hits + spared.misses
    for bid in range(cube.grid.num_blocks):
        assert provider.tids_in_block(bid).tolist() == []
    assert spared.hits + spared.misses == reads
    # The other way round the second fragment is read, and still nothing
    # qualifies.
    provider, _ = cube.plan_for(Predicate.of({first: 0, second: 99}))
    assert all(not len(provider.tids_in_block(bid))
               for bid in range(cube.grid.num_blocks))
    assert spared.hits + spared.misses == reads


boundaries = st.lists(st.integers(0, 40), min_size=2, max_size=6,
                      unique=True).map(lambda cuts: sorted(c / 8 for c in cuts))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(boundaries, min_size=1, max_size=3), st.integers(0, 2))
def test_kept_grid_geometry_is_what_a_fresh_grid_derives(cuts, single_bin):
    """1-, 2- and 3-dim grids, one dimension forced down to a single bin."""
    cuts = [list(c) for c in cuts]
    if single_bin < len(cuts):
        cuts[single_bin] = cuts[single_bin][:2]
    dims = [f"N{i}" for i in range(len(cuts))]
    bounds = {dim: np.array(c) for dim, c in zip(dims, cuts)}
    grid = GridPartition(dims, bounds)
    for _ in range(2):  # first derivation, then the kept value
        fresh = GridPartition(dims, bounds)
        assert grid.domain() == fresh.domain() == Box.from_bounds(
            dims, [c[0] for c in cuts], [c[-1] for c in cuts])
        lows, highs = grid.block_corners()
        assert lows.shape == highs.shape == (grid.num_blocks, len(dims))
        assert not lows.flags.writeable and not highs.flags.writeable
        for bid in range(grid.num_blocks):
            box = fresh.block_box(bid)
            assert lows[bid].tolist() == [box.interval(d).low for d in dims]
            assert highs[bid].tolist() == [box.interval(d).high for d in dims]
    for bid in range(grid.num_blocks):
        fresh = GridPartition(dims, bounds)
        for _ in range(2):
            assert grid.neighbors(bid) == fresh.neighbors(bid)
            assert grid.block_box(bid) == fresh.block_box(bid)
            assert (grid.block_box(bid, dims=dims[:1])
                    == fresh.block_box(bid).project(dims[:1]))
            for scale_factor in (1, 2, 3):
                assert (grid.pid_of_bid(bid, scale_factor)
                        == fresh.pid_of_bid(bid, scale_factor))
        # What is kept cannot be changed through what is handed out.
        assert isinstance(grid.neighbors(bid), tuple)

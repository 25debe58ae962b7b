"""Tests for the signature ranking cube: construction, queries, maintenance."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QueryError
from repro.functions import (
    ExpressionFunction,
    LinearFunction,
    SquaredDistanceFunction,
    Var,
)
from repro.query import Predicate, TopKQuery
from repro.paper.signature import (
    Signature,
    SignatureRankingCube,
    SignatureStore,
    SignatureTopKExecutor,
)
from repro.storage.pager import Pager
from repro.paper.rtree import RTree
from repro.workloads import SyntheticSpec, generate_relation
from tests.conftest import brute_force_topk


@pytest.fixture(scope="module")
def relation():
    return generate_relation(SyntheticSpec(num_tuples=2500, num_selection_dims=3,
                                           num_ranking_dims=3, cardinality=7, seed=41))


@pytest.fixture(scope="module")
def cube(relation):
    return SignatureRankingCube(relation, rtree_max_entries=16)


@pytest.fixture(scope="module")
def executor(cube):
    return SignatureTopKExecutor(cube)


class TestConstruction:
    def test_atomic_cuboids_by_default(self, relation, cube):
        assert set(cube.cuboid_dims) == {(d,) for d in relation.selection_dims}
        # One signature per (dimension, value).
        expected = sum(relation.cardinality(d) for d in relation.selection_dims)
        assert cube.stats.num_signatures == expected
        assert cube.stats.cube_bytes > 0
        assert cube.stats.num_partial_pages >= expected
        assert cube.size_in_bytes() == cube.stats.cube_bytes

    def test_cube_smaller_than_rtree(self, cube):
        assert cube.size_in_bytes() < cube.stats.rtree_bytes

    def test_multidim_cuboid_materialization(self, relation):
        cube = SignatureRankingCube(relation, cuboid_dims=[("A1", "A2")],
                                    rtree_max_entries=16)
        reader = cube.signature_reader(Predicate.of(A1=0, A2=1))
        assert reader is not None

    def test_empty_cuboid_dims_rejected(self, relation):
        from repro.errors import CubeError
        with pytest.raises(CubeError):
            SignatureRankingCube(relation, cuboid_dims=[()])

    def test_the_sweep_heavy_stack_builds_exactly_these_counts(self):
        """Figure 4.9's metric on the benchmark's full stack (20,000 tuples,
        seed 61, fanout 32): a change to the build moves none of them."""
        relation = generate_relation(SyntheticSpec(
            num_tuples=20_000, num_selection_dims=3, num_ranking_dims=2,
            cardinality=8, seed=61))
        cube = SignatureRankingCube(relation, rtree_max_entries=32)
        assert cube.stats.num_signatures == 24
        assert cube.stats.num_partial_pages == 4_555
        assert cube.stats.cube_bytes == 70_425
        written = cube.store.pager.stats
        assert (written.writes, written.bytes_written) == (4_555, 72_365)
        read = cube.rtree.pager.stats
        assert (read.logical_reads, read.physical_reads) == (647, 646)

    def test_signature_reader_validation(self, cube):
        assert cube.signature_reader(Predicate.of()) is None
        with pytest.raises(QueryError):
            cube.signature_reader(Predicate.of(Z9=1))


class TestQueries:
    @pytest.mark.parametrize("k", [1, 10, 50])
    def test_linear_matches_oracle(self, relation, cube, executor, k):
        query = TopKQuery(Predicate.of(A1=3, A2=2),
                          LinearFunction(["N1", "N2"], [1.0, 3.0]), k)
        _, expected = brute_force_topk(relation, query)
        assert executor.query(query).scores == pytest.approx(expected)

    def test_distance_matches_oracle(self, relation, cube, executor):
        query = TopKQuery(Predicate.of(A3=4),
                          SquaredDistanceFunction(["N1", "N2", "N3"], [0.5, 0.5, 0.5]),
                          20)
        _, expected = brute_force_topk(relation, query)
        assert executor.query(query).scores == pytest.approx(expected)

    def test_general_function_matches_oracle(self, relation, cube, executor):
        query = TopKQuery(Predicate.of(A1=1),
                          ExpressionFunction((Var("N1") - Var("N2") ** 2) ** 2), 10)
        _, expected = brute_force_topk(relation, query)
        assert executor.query(query).scores == pytest.approx(expected)

    def test_empty_predicate(self, relation, cube, executor):
        query = TopKQuery(Predicate.of(), LinearFunction(["N3"], [1.0]), 5)
        _, expected = brute_force_topk(relation, query)
        assert executor.query(query).scores == pytest.approx(expected)

    def test_unsatisfiable_predicate(self, relation, cube, executor):
        query = TopKQuery(Predicate.of(A1=999), LinearFunction(["N1"], [1.0]), 5)
        assert executor.query(query).tids == ()

    def test_statistics_reported(self, relation, cube, executor):
        query = TopKQuery(Predicate.of(A1=2, A3=1),
                          LinearFunction(["N1", "N2"], [1, 1]), 10)
        result = executor.query(query)
        assert result.states_generated > 0
        assert result.peak_heap_size > 0
        assert "signature_accesses" in result.extra
        assert "rtree_accesses" in result.extra


class TestMaintenance:
    def _insert_rows(self, relation, count, seed):
        rng = np.random.default_rng(seed)
        rows = []
        for _ in range(count):
            row = {d: int(rng.integers(0, relation.cardinality(d)))
                   for d in relation.selection_dims}
            row.update({d: float(rng.random()) for d in relation.ranking_dims})
            rows.append(row)
        return rows

    def test_incremental_insert_keeps_queries_correct(self):
        relation = generate_relation(SyntheticSpec(
            num_tuples=800, num_selection_dims=2, num_ranking_dims=2,
            cardinality=4, seed=55))
        cube = SignatureRankingCube(relation, rtree_max_entries=8)
        executor = SignatureTopKExecutor(cube)
        rows = self._insert_rows(relation, 60, seed=56)
        report = cube.insert(rows)
        assert report.tuples_inserted == 60
        assert report.cells_updated > 0
        assert report.pages_written > 0
        assert relation.num_tuples == 860
        # Some inserts on a small fanout-8 tree must have split nodes.
        assert report.node_splits > 0
        query = TopKQuery(Predicate.of(A1=1),
                          LinearFunction(["N1", "N2"], [1.0, 1.0]), 15)
        _, expected = brute_force_topk(relation, query)
        assert executor.query(query).scores == pytest.approx(expected)

    def test_insert_touches_only_target_cells(self):
        relation = generate_relation(SyntheticSpec(
            num_tuples=500, num_selection_dims=2, num_ranking_dims=2,
            cardinality=10, seed=57))
        cube = SignatureRankingCube(relation, rtree_max_entries=32)
        row = {d: 0 for d in relation.selection_dims}
        row.update({d: 0.5 for d in relation.ranking_dims})
        report = cube.insert([row])
        # Without a node split only the two atomic cells of the new tuple's
        # values are touched (one per boolean dimension).
        if report.node_splits == 0:
            assert report.cells_updated == len(relation.selection_dims)

    def test_a_row_never_writes_more_pages_than_a_rebuild(self):
        """Figure 4.11 in the paper's own counts, row by row: a row that
        splits no node patches one cell per cuboid; one whose split
        reaches the root of the packed tree moves every path and re-writes
        every signature — what a rebuild writes, never more."""
        relation = generate_relation(SyntheticSpec(
            num_tuples=1500, num_selection_dims=3, num_ranking_dims=2,
            cardinality=20, seed=58))
        cube = SignatureRankingCube(relation, rtree_max_entries=16)
        reports = [cube.insert([row])
                   for row in self._insert_rows(relation, 5, seed=59)]
        writes_before = cube.store.pager.stats.writes
        cube.rebuild()
        rebuild_pages = cube.store.pager.stats.writes - writes_before
        for report in reports:
            assert 0 < report.pages_written <= rebuild_pages
            assert report.cells_updated <= cube.stats.num_signatures
            if not report.node_splits:
                assert report.cells_updated == len(cube.cuboid_dims)
        assert min(report.pages_written for report in reports) < rebuild_pages


# ----------------------------------------------------------------------
# the array build is the per-tuple build
# ----------------------------------------------------------------------
def _per_tuple_algorithm_1(relation, rtree, store, cuboid_dims):
    """Algorithm 1 one tuple at a time — the reference the array build in
    ``SignatureRankingCube._build_signatures`` must equal byte for byte."""
    tuple_paths = dict(rtree.iter_tuple_paths())
    count = 0
    for dims in cuboid_dims:
        columns = [relation.selection_column(d) for d in dims]
        cells = {}
        for tid, path in tuple_paths.items():
            cell = tuple(int(col[tid]) for col in columns)
            cells.setdefault(cell, []).append(path)
        for cell, paths in cells.items():
            store.put(dims, cell, Signature.from_paths(paths, store.fanout))
            count += 1
    return count


def _everything_stored(store, rtree):
    """Both pagers' counters, then every page in index order: key, ref path,
    page id, stored size, and each node's path, bytes, dtype and flag (read
    past the pager, so looking moves no counter)."""
    counters = (store.pager.stats.snapshot(), rtree.pager.stats.snapshot())
    pages = [
        (key, ref, page_id, store.pager.page_bytes(page_id), page["ref"],
         [(path, bits.tobytes(), bits.dtype, bits.flags.writeable)
          for path, bits in page["nodes"].items()])
        for key, refs in store._index.items() for ref, page_id in refs.items()
        for page in [store.pager._pages[page_id]]]
    return counters, pages, store._size_bits


CUBOIDS = (None, [("A1", "A2")], [("A2",), ("A2", "A1")])


@settings(max_examples=200, deadline=None)
@given(num_tuples=st.integers(1, 600), ranking_dims=st.integers(2, 4),
       cardinality=st.integers(1, 12), seed=st.integers(0, 10_000),
       max_entries=st.integers(4, 33), page_size=st.integers(8, 512),
       cuboid_dims=st.sampled_from(CUBOIDS), inserts=st.integers(0, 12))
def test_the_array_build_is_the_per_tuple_build(
        num_tuples, ranking_dims, cardinality, seed, max_entries, page_size,
        cuboid_dims, inserts):
    spec = SyntheticSpec(num_tuples=num_tuples, num_selection_dims=2,
                         num_ranking_dims=ranking_dims, cardinality=cardinality,
                         seed=seed)

    def build():
        return SignatureRankingCube(
            generate_relation(spec), cuboid_dims=cuboid_dims,
            rtree_max_entries=max_entries, pager=Pager(page_size=page_size))

    cube = build()
    relation = cube.relation
    rtree = RTree.build(relation.ranking_dims, relation.ranking_matrix(),
                        max_entries=max_entries)
    store = SignatureStore(fanout=max_entries, pager=Pager(page_size=page_size))
    count = _per_tuple_algorithm_1(relation, rtree, store, cube.cuboid_dims)
    assert (cube.stats.num_signatures, cube.stats.num_partial_pages,
            cube.stats.cube_bytes) == (count, store.num_pages(),
                                       store.total_size_bytes())
    assert _everything_stored(cube.store, cube.rtree) == _everything_stored(store, rtree)

    # The same after rows were inserted: rebuild() against the reference
    # run over a twin that took the same inserts.
    twin = build()
    rng = np.random.default_rng(seed)
    for _ in range(inserts):
        row = {d: int(rng.integers(0, cardinality + 1)) for d in relation.selection_dims}
        row.update({d: float(rng.random()) for d in relation.ranking_dims})
        assert (cube.insert([row]).pages_written
                == twin.insert([dict(row)]).pages_written)
    cube.rebuild()
    count = _per_tuple_algorithm_1(twin.relation, twin.rtree, twin.store,
                                   twin.cuboid_dims)
    assert cube.stats.num_signatures == count
    assert (_everything_stored(cube.store, cube.rtree)
            == _everything_stored(twin.store, twin.rtree))

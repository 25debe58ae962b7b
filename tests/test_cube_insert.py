"""The grid cube's write path and its vectorised build.

* ``Cuboid._build`` (array arithmetic + one stable sort) must lay out
  exactly the pages of the per-tuple loop it replaced — the loop is kept
  here as the reference;
* a cube maintained by N in-place inserts must answer exactly like a cube
  freshly built over the same relation (and like brute force);
* the backend's two rebuild rules (row outside the grid domain, relation
  doubled since the build) and the catch-up of out-of-band appends;
* the serving layer's unsharded write path on top of it.
"""

from __future__ import annotations

import asyncio
import warnings

import numpy as np
import pytest

from repro.cube import RankingCube
from repro.cube.model import ENTRY_BYTES, Cuboid
from repro.engine import CostModel, Executor
from repro.errors import CubeError
from repro.functions.base import FunctionShape
from repro.functions.distance import SquaredDistanceFunction
from repro.functions.expression import ExpressionFunction, Var
from repro.functions.linear import LinearFunction, skewed_linear_function
from repro.partition.equidepth import equidepth_partition
from repro.query import Predicate, TopKQuery
from repro.serve import QueryService
from repro.storage.pager import Pager, estimate_size
from repro.workloads import SyntheticSpec, generate_relation
from tests.conftest import brute_force_topk

BUILD_SPECS = (
    SyntheticSpec(num_tuples=1, num_selection_dims=1, num_ranking_dims=2,
                  cardinality=2, seed=41),
    SyntheticSpec(num_tuples=500, num_selection_dims=2, num_ranking_dims=2,
                  cardinality=5, distribution="C", seed=42),
    SyntheticSpec(num_tuples=900, num_selection_dims=3, num_ranking_dims=3,
                  cardinality=4, distribution="A", seed=43),
    SyntheticSpec(num_tuples=1500, num_selection_dims=3, num_ranking_dims=2,
                  cardinality=11, distribution="E", seed=44),
)


def reference_pages(dims, relation, grid, bids, scale_factor):
    """The per-tuple build loop ``Cuboid._build`` used to be."""
    columns = [relation.selection_column(d) for d in dims]
    pids = [grid.pid_of_bid(int(bid), scale_factor) for bid in bids]
    groups = {}
    for tid in range(relation.num_tuples):
        cell = tuple(int(col[tid]) for col in columns)
        groups.setdefault((cell, int(pids[tid])), []).append(
            (tid, int(bids[tid])))
    return groups


@pytest.mark.parametrize("spec", BUILD_SPECS, ids=lambda s: f"seed{s.seed}")
def test_vectorised_build_lays_out_the_loop_builds_pages(spec):
    relation = generate_relation(spec)
    grid = equidepth_partition(relation, block_size=40)
    bids = grid.assign(relation)
    subsets = [relation.selection_dims[:n]
               for n in range(1, len(relation.selection_dims) + 1)]
    subsets.append(relation.selection_dims[-1:])
    for dims in subsets:
        pager = Pager()
        cuboid = Cuboid(dims, relation, grid, bids, pager)
        expected = reference_pages(dims, relation, grid, bids,
                                   cuboid.scale_factor)
        reference_pager = Pager()
        expected_ids = {
            key: reference_pager.allocate(entries,
                                          size=ENTRY_BYTES * len(entries))
            for key, entries in expected.items()}
        # Same keys, allocated in the same order under the same page ids.
        assert list(cuboid._pages.items()) == list(expected_ids.items())
        for key, entries in expected.items():
            page = pager.read(cuboid._pages[key], physical=False)
            # Same entries in the same order, as two read-only columns.
            assert all(column.dtype == np.int64 and column.ndim == 1
                       and not column.flags.writeable for column in page)
            np.testing.assert_array_equal(np.column_stack(page), entries)
            assert all(type(v) is int for v in key[0]) and type(key[1]) is int
        assert pager.total_bytes() == reference_pager.total_bytes()
        assert cuboid.size_in_bytes() == ENTRY_BYTES * relation.num_tuples


# ----------------------------------------------------------------------
# in-place maintenance
# ----------------------------------------------------------------------
SPEC = SyntheticSpec(num_tuples=600, num_selection_dims=3,
                     num_ranking_dims=2, cardinality=4, seed=77)


def grid_stack(relation, **kwargs):
    return Executor.for_relation(relation, block_size=40,
                                 with_signature=False, with_skyline=False,
                                 **kwargs)


def seeded_queries(relation, seed, count=40):
    rng = np.random.default_rng(seed)
    dims = list(relation.ranking_dims)
    queries = []
    for _ in range(count):
        picked = rng.choice(relation.selection_dims,
                            size=int(rng.integers(0, 3)), replace=False)
        conditions = {
            str(dim): int(rng.choice(relation.selection_column(str(dim))))
            for dim in picked}
        if rng.random() < 0.5:
            function = skewed_linear_function(
                dims, float(rng.uniform(1.0, 4.0)), rng=rng)
        else:
            function = SquaredDistanceFunction(
                dims, [float(v) for v in rng.random(len(dims))])
        queries.append(TopKQuery(Predicate.of(conditions), function,
                                 int(rng.choice([1, 5, 25]))))
    return queries


def in_domain_row(relation, grid, rng):
    row = {dim: int(rng.choice(relation.selection_column(dim)))
           for dim in relation.selection_dims}
    domain = grid.domain()
    for dim in relation.ranking_dims:
        interval = domain.interval(dim)
        row[dim] = float(rng.uniform(interval.low, interval.high))
    return row


def insert(executor, relation, row):
    tid = relation.append(row)
    assert executor.insert(relation, tid, row)
    return tid


def test_cube_after_inserts_answers_like_a_fresh_build():
    relation = generate_relation(SPEC)
    executor = grid_stack(relation)
    backend = executor.registry.get("ranking-cube")
    cube = backend.cube
    rng = np.random.default_rng(5)
    for _ in range(150):
        insert(executor, relation, in_domain_row(relation, cube.grid, rng))
    assert backend.cube is cube  # maintained, never rebuilt
    assert cube.num_rows == relation.num_tuples == 750
    fresh = RankingCube(relation, block_size=40)
    for query in seeded_queries(relation, seed=6):
        ours, theirs = cube.query(query), fresh.query(query)
        assert ours.tids == theirs.tids and ours.scores == theirs.scores
        assert (ours.tids, ours.scores) == brute_force_topk(relation, query)
    fused = seeded_queries(relation, seed=7, count=6)
    shared = [TopKQuery(q.predicate, fused[0].function, q.k) for q in fused]
    for ours, theirs in zip(cube.query_batch(shared),
                            fresh.query_batch(shared)):
        assert ours.tids == theirs.tids and ours.scores == theirs.scores


def test_insert_costs_one_write_per_structure_and_keeps_sizes_exact():
    relation = generate_relation(SPEC)
    cube = RankingCube(relation, block_size=40)
    rng = np.random.default_rng(8)
    for _ in range(60):
        row = in_domain_row(relation, cube.grid, rng)
        before = (cube.pager.stats.writes
                  + cube.block_table.pager.stats.writes)
        cube.insert(relation.append(row), row)
        after = cube.pager.stats.writes + cube.block_table.pager.stats.writes
        assert after - before == 1 + cube.num_cuboids()
    # The size ledger, advanced per write, equals the from-scratch size of
    # every page: 16 B per cuboid entry (fresh pages of unseen cells
    # included), the estimate of the arrays for base blocks.
    assert cube.pager.total_bytes() == sum(
        ENTRY_BYTES * len(cube.pager.read(page_id, physical=False)[0])
        for page_id in cube.pager.page_ids())
    assert sum(c.size_in_bytes() for c in cube.cuboids.values()) == \
        cube.pager.total_bytes()
    table = cube.block_table
    assert table.pager.total_bytes() == sum(
        estimate_size(table.pager.read(page_id, physical=False))
        for page_id in table.pager.page_ids())
    # Base-block pages stay in strict tid order, so a binary search finds
    # every tid at its row — no side index to keep in step.
    for bid in table.non_empty_bids():
        tids, values = table.block_arrays(bid)
        assert (np.diff(tids) > 0).all()
        assert tids.searchsorted(tids).tolist() == list(range(len(tids)))
        np.testing.assert_array_equal(
            values, relation.ranking_values_bulk(tids, table.dims))
    assert np.array_equal(table.bids, cube.grid.assign(relation))


def test_pages_handed_out_before_an_insert_are_unchanged_and_read_only():
    relation = generate_relation(SPEC)
    cube = RankingCube(relation, block_size=40)
    row = in_domain_row(relation, cube.grid, np.random.default_rng(15))
    bid = cube.grid.bid_of_point(row)
    cuboid = cube.cuboids[("A1",)]
    cell = cuboid.cell_of_predicate(row)
    pid = cube.grid.pid_of_bid(bid, cuboid.scale_factor)
    held = (cuboid.get_pseudo_block(cell, pid)
            + cube.block_table.block_arrays(bid))
    before = [array.copy() for array in held]
    tid = relation.append(row)
    cube.insert(tid, row)
    for array, copy in zip(held, before):
        np.testing.assert_array_equal(array, copy)
    # The writer replaced the pairs; the new ones end with the new row.
    after = (cuboid.get_pseudo_block(cell, pid)
             + cube.block_table.block_arrays(bid))
    assert [len(array) for array in after] == [len(a) + 1 for a in held]
    assert after[0][-1] == after[2][-1] == tid and after[1][-1] == bid
    for array in held + after:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_unseen_cell_and_empty_block_get_fresh_pages():
    # Correlated ranking values leave the off-diagonal blocks empty.
    relation = generate_relation(SyntheticSpec(
        num_tuples=600, num_selection_dims=3, num_ranking_dims=2,
        cardinality=4, distribution="C", seed=78))
    cube = RankingCube(relation, block_size=40)
    empty = sorted(set(cube.grid.iter_bids())
                   - set(cube.block_table.non_empty_bids()))
    assert empty
    box = cube.grid.block_box(empty[0])
    row = {dim: 99 for dim in relation.selection_dims}  # unseen everywhere
    for dim in relation.ranking_dims:
        interval = box.interval(dim)
        row[dim] = (interval.low + interval.high) / 2.0
    pages_before = cube.pager.num_pages
    blocks_before = cube.block_table.num_blocks()
    tid = relation.append(row)
    cube.insert(tid, row)
    assert cube.block_table.num_blocks() == blocks_before + 1
    assert cube.pager.num_pages == pages_before + cube.num_cuboids()
    query = TopKQuery(Predicate.of(A1=99),
                      LinearFunction(relation.ranking_dims, [1.0, 1.0]), 3)
    assert cube.query(query).tids == (tid,)


def test_cube_refuses_what_it_cannot_absorb_before_writing():
    relation = generate_relation(SPEC)
    cube = RankingCube(relation, block_size=40)
    writes = cube.pager.stats.writes + cube.block_table.pager.stats.writes
    outside = {"A1": 0, "A2": 0, "A3": 0, "N1": 7.0, "N2": 0.5}
    with pytest.raises(CubeError, match="outside the grid domain"):
        cube.insert(relation.num_tuples, outside)
    inside = dict(outside, N1=0.5)
    with pytest.raises(CubeError, match="not the next row"):
        cube.insert(relation.num_tuples + 3, inside)
    assert cube.num_rows == relation.num_tuples
    assert (cube.pager.stats.writes
            + cube.block_table.pager.stats.writes) == writes


def test_backend_rebuilds_on_out_of_domain_rows_and_on_doubling():
    relation = generate_relation(SPEC)
    executor = grid_stack(relation, include_fragments=True)
    backends = [executor.registry.get(name)
                for name in ("ranking-cube", "fragments")]
    cubes = [backend.cube for backend in backends]
    queries = seeded_queries(relation, seed=9, count=12)

    def check():
        for query in queries:
            expected = brute_force_topk(relation, query)
            for backend in backends:
                result = backend.run(query)
                assert (result.tids, result.scores) == expected

    rng = np.random.default_rng(10)
    insert(executor, relation, in_domain_row(relation, cubes[0].grid, rng))
    assert [backend.cube for backend in backends] == cubes
    check()
    # Below every N1 in the data: the best row for a rising N1 weight.
    tid = insert(executor, relation,
                 {"A1": 1, "A2": 1, "A3": 1, "N1": -2.0, "N2": 0.5})
    assert all(backend.cube is not cube
               for backend, cube in zip(backends, cubes))
    assert set(backends[1].cube.cuboids) == set(cubes[1].cuboids)
    top = executor.execute(TopKQuery(
        Predicate.of(A1=1), LinearFunction(["N1", "N2"], [1.0, 0.1]), 1))
    assert top.tids == (tid,)
    check()
    # In-domain rows until the relation has doubled since that rebuild.
    rebuilt = backends[0].cube
    assert rebuilt.built_rows == 602
    while relation.num_tuples < 2 * rebuilt.built_rows - 1:
        insert(executor, relation, in_domain_row(relation, rebuilt.grid, rng))
    assert backends[0].cube is rebuilt
    insert(executor, relation, in_domain_row(relation, rebuilt.grid, rng))
    assert backends[0].cube is not rebuilt
    assert backends[0].cube.built_rows == relation.num_tuples
    check()


def test_insert_keeps_the_bound_cache_warm_and_drops_only_affected_results():
    relation = generate_relation(SPEC)
    executor = grid_stack(relation, cost_model=CostModel(**CostModel.PAPER))
    function = LinearFunction(["N1", "N2"], [1.0, 2.0])
    hit = TopKQuery(Predicate.of(A1=0), function, 5)
    spared = TopKQuery(Predicate.of(A1=1), function, 5)
    # The same function as an expression tree: it has no
    # ``lower_bound_batch``, so its sweep bounds blocks one at a time
    # through the bound cache (and, having no value key, is never
    # result-cached).
    unbatched = TopKQuery(
        Predicate.of(A1=0),
        ExpressionFunction(Var("N1") + 2.0 * Var("N2"),
                           shape=FunctionShape.MONOTONE), 5)
    executor.execute(hit), executor.execute(spared)
    assert executor.execute(unbatched).extra["backend"] == "ranking-cube"
    bounds = len(executor.bound_cache)
    assert bounds
    grid = executor.registry.get("ranking-cube").cube.grid
    row = in_domain_row(relation, grid, np.random.default_rng(11))
    row["A1"] = 0
    insert(executor, relation, row)
    assert len(executor.bound_cache) == bounds
    misses = executor.bound_cache.misses
    assert executor.execute(spared).extra["result_cache"] == "hit"
    again = executor.execute(hit)
    assert again.extra["result_cache"] == "miss"
    assert (again.tids, again.scores) == brute_force_topk(relation, hit)
    assert executor.execute(unbatched).tids == again.tids
    assert executor.bound_cache.misses == misses  # same grid, same bounds
    assert executor.bound_cache.hits


def test_rows_appended_behind_the_cubes_back_are_caught_up():
    relation = generate_relation(SPEC)
    executor = grid_stack(relation)
    cube = executor.registry.get("ranking-cube").cube
    rng = np.random.default_rng(12)
    for _ in range(3):  # the benchmark ledger's direct path
        row = in_domain_row(relation, cube.grid, rng)
        relation.append(row)
        executor.note_mutation(relation, row=row)
    assert cube.num_rows == relation.num_tuples - 3
    insert(executor, relation, in_domain_row(relation, cube.grid, rng))
    assert cube.num_rows == relation.num_tuples
    for query in seeded_queries(relation, seed=13, count=12):
        result = executor.execute(query)
        assert (result.tids, result.scores) == brute_force_topk(relation,
                                                                query)


def test_executor_refuses_a_stack_it_cannot_keep_exact():
    relation = generate_relation(SPEC)
    executor = Executor.for_relation(relation, block_size=40)
    cube = executor.registry.get("ranking-cube").cube
    row = in_domain_row(relation, cube.grid, np.random.default_rng(14))
    tid = relation.append(row)
    assert not executor.insert(relation, tid, row)
    assert cube.num_rows == tid  # asked first: nothing was touched


# ----------------------------------------------------------------------
# the unsharded serving write path
# ----------------------------------------------------------------------
REPRO_ROW = {"A1": 1, "A2": 0, "A3": 0, "N1": 0.0005, "N2": 0.0005}


def serve_insert(executor, relation, row, query):
    async def run():
        async with QueryService(executor, relation=relation) as service:
            before = await service.submit(query)
            tid = await service.insert(row)
            return before, tid, await service.submit(query)

    return asyncio.run(run())


def test_unsharded_insert_is_visible_on_a_grid_stack():
    relation = generate_relation(SyntheticSpec(
        num_tuples=3000, num_selection_dims=3, num_ranking_dims=2,
        cardinality=8, seed=1))
    executor = Executor.for_relation(relation, with_signature=False,
                                     with_skyline=False,
                                     cost_model=CostModel(**CostModel.PAPER))
    query = TopKQuery(Predicate.of(A1=1),
                      LinearFunction(["N1", "N2"], [1.0, 1.0]), 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        before, tid, after = serve_insert(executor, relation, REPRO_ROW,
                                          query)
    assert tid == 3000 and tid not in before.tids
    assert after.tids == (tid,) + before.tids[:2]
    assert after.scores[0] == 0.001
    assert after.extra["backend"] == "ranking-cube"


def test_unsharded_insert_on_a_static_stack_warns_naming_the_backends():
    relation = generate_relation(SPEC)
    executor = Executor.for_relation(relation, block_size=40)
    query = TopKQuery(Predicate.of(A1=1),
                      LinearFunction(["N1", "N2"], [1.0, 1.0]), 3)
    with pytest.warns(RuntimeWarning, match="signature-cube.*skyline"):
        _, tid, _ = serve_insert(executor, relation, REPRO_ROW, query)
    assert tid == 600 and relation.num_tuples == 601

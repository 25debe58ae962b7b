"""The worked example of Chapter 3 (Tables 3.1–3.7, Figure 3.3).

The thesis runs a top-2 query ``A1 = 1 and A2 = 1 order by N1 + N2`` over a
small example database whose equi-depth partition has bin boundaries
``[0, 0.4, 0.45, 0.8, 1]`` and ``[0, 0.2, 0.45, 0.9, 1]``.  The tests below
reconstruct that setup with an explicit grid and check the elements the
thesis walks through: the block assignment, the pseudo-block scale factor,
the first candidate block, and the final answer {t1, t3}.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cube import RankingCube, find_start_block
from repro.functions import sum_function
from repro.partition.grid import GridPartition
from repro.query import Predicate, TopKQuery
from repro.storage.table import Relation, Schema


@pytest.fixture()
def example_setup():
    schema = Schema(("A1", "A2"), ("N1", "N2"))
    rows = [
        {"A1": 1, "A2": 1, "N1": 0.05, "N2": 0.05},   # t1 (tid 0)
        {"A1": 1, "A2": 2, "N1": 0.65, "N2": 0.70},   # t2 (tid 1)
        {"A1": 1, "A2": 1, "N1": 0.05, "N2": 0.25},   # t3 (tid 2)
        {"A1": 1, "A2": 1, "N1": 0.35, "N2": 0.15},   # t4 (tid 3)
        {"A1": 2, "A2": 2, "N1": 0.50, "N2": 0.50},   # filler tuples
        {"A1": 2, "A2": 1, "N1": 0.85, "N2": 0.95},
        {"A1": 2, "A2": 2, "N1": 0.42, "N2": 0.30},
        {"A1": 1, "A2": 2, "N1": 0.90, "N2": 0.10},
    ]
    relation = Relation.from_rows(schema, rows, name="example")
    grid = GridPartition(("N1", "N2"), {
        "N1": np.array([0.0, 0.4, 0.45, 0.8, 1.0]),
        "N2": np.array([0.0, 0.2, 0.45, 0.9, 1.0]),
    })
    cube = RankingCube(relation, grid=grid, block_size=2)
    return relation, grid, cube


class TestWorkedExample:
    def test_grid_shape_matches_table(self, example_setup):
        _, grid, _ = example_setup
        assert grid.pseudo_bins_per_dim(1) == (4, 4)
        assert grid.num_blocks == 16
        assert grid.meta()["N1"] == [0.0, 0.4, 0.45, 0.8, 1.0]

    def test_block_assignment_of_example_tuples(self, example_setup):
        relation, grid, _ = example_setup
        bids = grid.assign(relation)
        # t1 = (0.05, 0.05) and t4 = (0.35, 0.15) share the first block;
        # t3 = (0.05, 0.25) sits one block above; t2 = (0.65, 0.70) elsewhere.
        assert bids[0] == bids[3]
        assert bids[2] != bids[0]
        assert grid.coords_of_bid(int(bids[0])) == (0, 0)
        assert grid.coords_of_bid(int(bids[2])) == (0, 1)
        assert grid.coords_of_bid(int(bids[1])) == (2, 2)

    def test_scale_factor_matches_thesis(self, example_setup):
        _, grid, cube = example_setup
        cuboid = cube.cuboids[("A1", "A2")]
        # Cardinalities of A1 and A2 are both 2 -> sf = 2 (Example 4).
        assert cuboid.scale_factor == 2

    def test_first_candidate_block_contains_origin(self, example_setup):
        _, grid, _ = example_setup
        start = find_start_block(grid, sum_function(["N1", "N2"]))
        assert grid.coords_of_bid(start) == (0, 0)

    def test_top2_query_returns_t1_and_t3(self, example_setup):
        relation, _, cube = example_setup
        query = TopKQuery(Predicate.of(A1=1, A2=1), sum_function(["N1", "N2"]), 2)
        result = cube.query(query)
        assert result.tids == (0, 2)  # t1 then t3
        assert result.scores[0] == pytest.approx(0.10)
        assert result.scores[1] == pytest.approx(0.30)

    def test_pseudo_block_lookup(self, example_setup):
        relation, grid, cube = example_setup
        cuboid = cube.cuboids[("A1", "A2")]
        bid = int(grid.assign(relation)[0])
        pid = grid.pid_of_bid(bid, cuboid.scale_factor)
        tids, _ = cuboid.get_pseudo_block((1, 1), pid)
        # t1, t3 and t4 all fall in the first pseudo block of cell (1, 1).
        assert tids.tolist() == [0, 2, 3]

    def test_query_with_single_condition_uses_smaller_cuboid(self, example_setup):
        relation, _, cube = example_setup
        assert cube.covering_cuboids(("A1",)) == [("A1",)]
        query = TopKQuery(Predicate.of(A1=1), sum_function(["N1", "N2"]), 3)
        result = cube.query(query)
        assert result.tids[0] == 0
        assert len(result.tids) == 3

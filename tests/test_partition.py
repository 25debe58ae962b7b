"""Tests for grid partitioning: bins, blocks, pseudo blocks, neighborhoods."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CubeError
from repro.partition import (
    GridPartition,
    equidepth_boundaries,
    equidepth_partition,
    equiwidth_boundaries,
    equiwidth_partition,
)
from repro.partition.equidepth import bins_per_dimension
from repro.storage.table import Relation, Schema
from repro.workloads import SyntheticSpec, generate_relation


@pytest.fixture(scope="module")
def relation():
    return generate_relation(SyntheticSpec(num_tuples=3000, num_selection_dims=2,
                                           num_ranking_dims=2, cardinality=4, seed=9))


class TestBoundaries:
    def test_bins_per_dimension_formula(self):
        # b = (T/P)^(1/R): 16 blocks for 1600 tuples at block size 100 in 2-D.
        assert bins_per_dimension(1600, 100, 2) == 4
        assert bins_per_dimension(0, 100, 2) == 1
        assert bins_per_dimension(10, 100, 2) == 1

    def test_equidepth_boundaries_balanced(self):
        rng = np.random.default_rng(1)
        values = rng.random(1000)
        bounds = equidepth_boundaries(values, 4)
        assert len(bounds) == 5
        counts = np.histogram(values, bins=bounds)[0]
        assert counts.max() - counts.min() <= 60  # approximately equal depth

    def test_equidepth_handles_duplicates(self):
        values = np.array([0.5] * 100)
        bounds = equidepth_boundaries(values, 4)
        assert np.all(np.diff(bounds) > 0)

    def test_equidepth_empty_input(self):
        bounds = equidepth_boundaries(np.array([]), 3)
        assert len(bounds) == 4

    def test_equiwidth_boundaries(self):
        bounds = equiwidth_boundaries(np.array([0.0, 10.0]), 5)
        assert bounds[0] == 0 and bounds[-1] == 10
        assert np.allclose(np.diff(bounds), 2.0)
        degenerate = equiwidth_boundaries(np.array([3.0, 3.0]), 2)
        assert np.all(np.diff(degenerate) > 0)


class TestGridPartition:
    def test_validation(self):
        with pytest.raises(CubeError):
            GridPartition([], {})
        with pytest.raises(CubeError):
            GridPartition(["x"], {"x": np.array([0.0])})
        with pytest.raises(CubeError):
            GridPartition(["x"], {"x": np.array([0.0, 0.0, 1.0])})

    def test_bid_coords_roundtrip(self):
        grid = GridPartition(["x", "y"], {"x": np.linspace(0, 1, 5),
                                          "y": np.linspace(0, 1, 4)})
        assert grid.pseudo_bins_per_dim(1) == (4, 3)
        assert grid.num_blocks == 12
        for bid in range(grid.num_blocks):
            assert grid.bid_of_coords(grid.coords_of_bid(bid)) == bid
        with pytest.raises(CubeError):
            grid.coords_of_bid(12)
        with pytest.raises(CubeError):
            grid.bid_of_coords((4, 0))

    def test_point_assignment_and_blocks(self):
        grid = GridPartition(["x", "y"], {"x": np.linspace(0, 1, 5),
                                          "y": np.linspace(0, 1, 5)})
        bid = grid.bid_of_point({"x": 0.05, "y": 0.05})
        assert grid.coords_of_bid(bid) == (0, 0)
        # values past the last boundary are clamped into the last bin
        bid_edge = grid.bid_of_point({"x": 1.5, "y": 0.99})
        assert grid.coords_of_bid(bid_edge)[0] == 3
        box = grid.block_box(bid)
        assert box.interval("x").low == 0.0
        assert box.interval("x").high == pytest.approx(0.25)

    def test_neighbors(self):
        grid = GridPartition(["x", "y"], {"x": np.linspace(0, 1, 5),
                                          "y": np.linspace(0, 1, 5)})
        corner = grid.bid_of_coords((0, 0))
        middle = grid.bid_of_coords((1, 2))
        assert len(grid.neighbors(corner)) == 2
        assert len(grid.neighbors(middle)) == 4
        assert grid.bid_of_coords((0, 1)) in grid.neighbors(corner)

    def test_assign_matches_pointwise(self, relation):
        grid = equidepth_partition(relation, block_size=100)
        bids = grid.assign(relation)
        for tid in (0, 17, 512, relation.num_tuples - 1):
            point = {d: relation.ranking_values(tid, [d])[0] for d in grid.dims}
            assert bids[tid] == grid.bid_of_point(point)

    def test_pseudo_blocks(self):
        grid = GridPartition(["x", "y"], {"x": np.linspace(0, 1, 5),
                                          "y": np.linspace(0, 1, 5)})
        # Cardinalities 2x2 -> sf = floor(sqrt(4)) = 2 (the thesis example).
        sf = grid.scale_factor([2, 2])
        assert sf == 2
        assert grid.pseudo_bins_per_dim(sf) == (2, 2)
        # Blocks in the same 2x2 tile map to the same pid.
        assert grid.pid_of_bid(grid.bid_of_coords((0, 0)), sf) == \
            grid.pid_of_bid(grid.bid_of_coords((1, 1)), sf)
        assert grid.pid_of_bid(grid.bid_of_coords((0, 0)), sf) != \
            grid.pid_of_bid(grid.bid_of_coords((2, 2)), sf)
        assert grid.scale_factor([1]) == 1

    def test_meta_and_project(self):
        grid = GridPartition(["x", "y"], {"x": np.linspace(0, 1, 3),
                                          "y": np.linspace(0, 1, 3)})
        meta = grid.meta()
        assert set(meta) == {"x", "y"}
        projected = grid.project(["y"])
        assert projected.dims == ("y",)
        with pytest.raises(CubeError):
            grid.project(["z"])

    def test_equidepth_partition_of_relation(self, relation):
        grid = equidepth_partition(relation, block_size=300)
        assert set(grid.dims) == set(relation.ranking_dims)
        bids = grid.assign(relation)
        counts = np.bincount(bids, minlength=grid.num_blocks)
        assert counts.sum() == relation.num_tuples
        # Equi-depth keeps block populations within a reasonable factor.
        assert counts.max() <= 4 * max(1, counts[counts > 0].min())

    def test_equiwidth_partition_of_relation(self, relation):
        grid = equiwidth_partition(relation, num_bins=4)
        assert grid.pseudo_bins_per_dim(1) == (4, 4)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6),
       st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
def test_every_point_lands_in_its_block_box(bx, by, px, py):
    """bid_of_point and block_box are consistent for any grid shape."""
    grid = GridPartition(["x", "y"], {"x": np.linspace(0, 1, bx + 1),
                                      "y": np.linspace(0, 1, by + 1)})
    bid = grid.bid_of_point({"x": px, "y": py})
    box = grid.block_box(bid)
    assert box.interval("x").low - 1e-9 <= px <= box.interval("x").high + 1e-9
    assert box.interval("y").low - 1e-9 <= py <= box.interval("y").high + 1e-9


def test_pids_of_bids_matches_pid_of_bid():
    grid = GridPartition(("X", "Y", "Z"), {
        "X": np.linspace(0.0, 1.0, 6), "Y": np.linspace(0.0, 1.0, 4),
        "Z": np.linspace(0.0, 1.0, 8)})
    bids = np.arange(grid.num_blocks, dtype=np.int64)
    for scale_factor in (1, 2, 3, 7):
        assert grid.pids_of_bids(bids, scale_factor).tolist() == [
            grid.pid_of_bid(int(bid), scale_factor) for bid in bids]

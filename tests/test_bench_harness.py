"""Tests for the benchmark harness and the experiment registry."""

from __future__ import annotations

import pytest

from repro.paper.bench import ALL_EXPERIMENTS, bench_scale, scaled
from repro.paper.bench.harness import ExperimentResult, average, cold_buffers, timed
from repro.paper.bench.datasets import (
    clear_cache,
    dimension_btree,
    grid_cube,
    signature_cube,
    synthetic_relation,
)


class TestExperimentResult:
    def make(self):
        result = ExperimentResult("fig0.0", "demo", "k", ("time_s", "disk"))
        result.add("cube", 5, time_s=0.1, disk=3)
        result.add("scan", 5, time_s=0.2, disk=30)
        result.add("cube", 10, time_s=0.15, disk=5)
        result.add("scan", 10, time_s=0.2, disk=30)
        return result

    def test_methods_and_series(self):
        result = self.make()
        assert result.methods() == ["cube", "scan"]
        assert result.series("cube", "disk") == [(5, 3), (10, 5)]
        assert result.series("cube", "missing") == []

    def test_format_table(self):
        table = self.make().format_table()
        assert "fig0.0" in table
        assert "cube" in table and "scan" in table
        assert "0.1000" in table

    def test_check_shape(self):
        result = self.make()
        assert result.check_shape("cube", "scan", "disk")
        assert not result.check_shape("scan", "cube", "disk")


class TestHarnessHelpers:
    def test_scaled_and_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == "small"
        assert scaled(10, 1000) == 10
        monkeypatch.setenv("REPRO_BENCH_SCALE", "paper")
        assert bench_scale() == "paper"
        assert scaled(10, 1000) == 1000

    def test_average_and_timed(self):
        assert average([1.0, 3.0]) == 2.0
        assert average([]) == 0.0
        value, elapsed = timed(lambda: 42)
        assert value == 42 and elapsed >= 0

    def test_cold_buffers_clears_known_structures(self):
        relation = synthetic_relation(500, 2, 2, 4, seed=3)
        cube = grid_cube(relation, block_size=100)
        signature = signature_cube(relation, rtree_max_entries=8)
        btree = dimension_btree(relation, "N1", fanout=8)
        # Warm a few buffers, then invalidate them.
        btree.search_eq(0.5)
        assert btree.buffer._cache
        cold_buffers(cube, signature, btree, None)
        assert not btree.buffer._cache
        assert not signature.rtree.buffer._cache


class TestRegistry:
    def test_every_figure_has_an_experiment(self):
        expected = {
            "fig3.4", "fig3.5", "fig3.6", "fig3.7", "fig3.8", "fig3.9", "fig3.10",
            "fig3.11", "fig3.12", "fig3.13", "fig3.14", "fig3.15",
            "fig4.8", "fig4.9", "fig4.10", "fig4.11", "fig4.12", "fig4.13",
            "tab5.1", "fig5.7", "fig5.8", "fig5.9", "fig5.10", "fig5.11", "fig5.12",
            "fig5.13", "fig5.14", "fig5.15", "fig5.16", "fig5.17", "fig5.18",
            "fig5.19", "fig5.20", "fig5.21-22",
            "fig6.3", "fig6.4",
            "fig7.3-5", "fig7.6", "fig7.7", "fig7.8", "fig7.9", "fig7.10",
            "fig7.11", "fig7.12", "fig7.13-14",
        }
        assert expected <= set(ALL_EXPERIMENTS)
        assert all(callable(fn) for fn in ALL_EXPERIMENTS.values())

    def test_dataset_cache_roundtrip(self):
        relation_a = synthetic_relation(400, 2, 2, 4, seed=5)
        relation_b = synthetic_relation(400, 2, 2, 4, seed=5)
        assert relation_a is relation_b
        clear_cache()
        relation_c = synthetic_relation(400, 2, 2, 4, seed=5)
        assert relation_c is not relation_a

"""Tests for the page-based R-tree: bulk loading, search structure, inserts."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IndexError_
from repro.paper.rtree import RTree, capacity_for_page_size


@pytest.fixture(scope="module")
def built_tree():
    rng = np.random.default_rng(11)
    points = rng.random((600, 2))
    tree = RTree.build(["X", "Y"], points, max_entries=8)
    return tree, points


class TestConstruction:
    def test_capacity_from_page_size(self):
        assert capacity_for_page_size(4096, 2) > 100
        assert capacity_for_page_size(64, 5) >= 4

    def test_requires_dims(self):
        with pytest.raises(IndexError_):
            RTree([])

    def test_bad_point_shape(self):
        with pytest.raises(IndexError_):
            RTree.build(["X", "Y"], np.zeros((5, 3)))

    def test_double_build_rejected(self, built_tree):
        tree, points = built_tree
        with pytest.raises(IndexError_):
            tree._bulk_load(points, None)

    def test_empty_tree(self):
        tree = RTree.build(["X"], np.empty((0, 1)))
        assert tree.height() == 1
        assert tree.root().is_leaf
        assert list(tree.iter_tuple_paths()) == []

    def test_structure_invariants(self, built_tree):
        tree, points = built_tree
        assert tree.num_entries == len(points)
        assert len(list(tree.iter_tuple_paths())) == len(points)
        assert tree.height() >= 3
        assert tree.node_count() >= len(points) / 8
        # Every node's box contains its children's boxes.
        for node in tree.iter_nodes():
            if node.is_leaf:
                for entry in tree.leaf_entries(node):
                    assert node.box.contains_point(dict(zip(tree.dims, entry.values)))
            else:
                for child in tree.children(node):
                    assert node.box.union_hull(child.box) == node.box

    def test_leaf_capacity_respected(self, built_tree):
        tree, _ = built_tree
        for node in tree.iter_nodes():
            if node.is_leaf:
                assert len(tree.leaf_entries(node)) <= tree.max_entries

    def test_leaf_entries_requires_leaf(self, built_tree):
        tree, _ = built_tree
        with pytest.raises(IndexError_):
            tree.leaf_entries(tree.root())


class TestPaths:
    def test_tuple_paths_unique_and_consistent(self, built_tree):
        tree, points = built_tree
        paths = dict(tree.iter_tuple_paths())
        assert len(paths) == len(points)
        assert len(set(paths.values())) == len(points)
        assert all(len(path) == tree.height() for path in paths.values())
        # path positions are 1-based and within node capacity
        for path in paths.values():
            assert all(1 <= p <= tree.max_entries for p in path)

    def test_path_of_tid(self, built_tree):
        tree, _ = built_tree
        paths = dict(tree.iter_tuple_paths())
        tids, rows = tree.tuple_paths()
        assert tuple(rows[tids.tolist().index(5)].tolist()) == paths[5]
        assert 10 ** 9 not in tids


class TestInsert:
    def _fresh_tree(self, count=60, max_entries=4):
        rng = np.random.default_rng(3)
        points = rng.random((count, 2))
        return RTree.build(["X", "Y"], points, max_entries=max_entries), points

    def test_insert_without_split(self):
        tree, points = self._fresh_tree(count=10, max_entries=8)
        outcome = tree.insert([0.5, 0.5], 10)
        assert not outcome.split_occurred
        assert outcome.old_paths == {}
        assert list(outcome.new_paths) == [10]
        assert tree.num_entries == 11
        assert dict(tree.iter_tuple_paths())[10] == outcome.new_paths[10]

    def test_insert_with_splits_reports_changed_paths(self):
        tree, points = self._fresh_tree(count=64, max_entries=4)
        before = dict(tree.iter_tuple_paths())
        rng = np.random.default_rng(5)
        split_seen = False
        next_tid = len(points)
        for _ in range(40):
            point = rng.random(2)
            outcome = tree.insert(point.tolist(), next_tid)
            after = dict(tree.iter_tuple_paths())
            assert after[next_tid] == outcome.new_paths[next_tid]
            if outcome.split_occurred:
                split_seen = True
                for tid, old_path in outcome.old_paths.items():
                    assert before.get(tid) == old_path or before.get(tid) is None
                for tid, new_path in outcome.new_paths.items():
                    assert after[tid] == new_path
            # Tuples not reported must not have moved.
            reported = set(outcome.new_paths)
            for tid, path in after.items():
                if tid not in reported and tid in before:
                    assert before[tid] == path, f"unreported move of tid {tid}"
            before = after
            next_tid += 1
        assert split_seen, "the workload should have triggered at least one split"

    def test_insert_dimension_check(self):
        tree, _ = self._fresh_tree(count=10)
        with pytest.raises(IndexError_):
            tree.insert([0.1], 99)

    def test_insert_requires_built_tree(self):
        tree = RTree(["X"])
        with pytest.raises(IndexError_):
            tree.insert([0.5], 0)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=120), st.integers(min_value=4, max_value=10))
def test_bulk_load_indexes_every_point(count, max_entries):
    """Every point ends up in exactly one leaf, inside its leaf's box."""
    rng = np.random.default_rng(count)
    points = rng.random((count, 3))
    tree = RTree.build(["A", "B", "C"], points, max_entries=max_entries)
    seen = {}
    for node in tree.iter_nodes():
        if node.is_leaf:
            for entry in tree.leaf_entries(node):
                assert entry.tid not in seen
                seen[entry.tid] = entry.values
    assert len(seen) == count
    for tid, values in seen.items():
        assert np.allclose(values, points[tid])

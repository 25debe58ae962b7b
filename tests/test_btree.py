"""Tests for the page-based B+-tree."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import IndexError_
from repro.paper.btree import BPlusTree, fanout_for_page_size
from repro.paper.indexmerge.join_signature import leaf_paths


@pytest.fixture(scope="module")
def tree_and_values():
    rng = np.random.default_rng(7)
    values = rng.random(500)
    tree = BPlusTree.build("N", values, fanout=8)
    return tree, values


class TestConstruction:
    def test_fanout_from_page_size(self):
        assert fanout_for_page_size(4096) == 204
        assert fanout_for_page_size(10) >= 4

    def test_invalid_fanout(self):
        with pytest.raises(IndexError_):
            BPlusTree("N", fanout=1)

    def test_build_twice_rejected(self, tree_and_values):
        tree, values = tree_and_values
        with pytest.raises(IndexError_):
            tree._bulk_load(values, None)

    def test_empty_tree(self):
        tree = BPlusTree.build("N", [])
        assert tree.search_range(0, 1) == []
        assert tree.height() == 1
        assert list(tree.sorted_scan()) == []
        assert tree.root().is_leaf

    def test_mismatched_tids_rejected(self):
        with pytest.raises(IndexError_):
            BPlusTree.build("N", [1.0, 2.0], tids=[0])

    def test_height_and_node_count(self, tree_and_values):
        tree, values = tree_and_values
        assert tree.height() >= 3
        assert tree.node_count() > len(values) / 8
        assert tree.num_entries == len(values)
        assert tree.max_fanout() == 8
        assert tree.size_in_bytes() > 0


class TestSearch:
    def test_equality_search(self, tree_and_values):
        tree, values = tree_and_values
        target = float(values[42])
        assert 42 in tree.search_eq(target)

    def test_range_search_matches_numpy(self, tree_and_values):
        tree, values = tree_and_values
        low, high = 0.2, 0.4
        expected = set(np.nonzero((values >= low) & (values <= high))[0])
        assert set(tree.search_range(low, high)) == expected

    def test_empty_range(self, tree_and_values):
        tree, _ = tree_and_values
        assert tree.search_range(0.9, 0.1) == []
        assert tree.search_range(5.0, 6.0) == []

    def test_sorted_scan_order(self, tree_and_values):
        tree, values = tree_and_values
        scanned = [v for v, _ in tree.sorted_scan()]
        assert scanned == sorted(values.tolist())
        descending = [v for v, _ in tree.sorted_scan(ascending=False)]
        assert descending == sorted(values.tolist(), reverse=True)

    def test_search_counts_io(self):
        values = np.linspace(0, 1, 200)
        tree = BPlusTree.build("N", values, fanout=8, buffer_capacity=2)
        before = tree.pager.stats.physical_reads
        tree.search_eq(0.5)
        assert tree.pager.stats.physical_reads > before


class TestHierarchicalInterface:
    def test_root_and_children_boxes(self, tree_and_values):
        tree, values = tree_and_values
        root = tree.root()
        assert not root.is_leaf
        assert root.box.interval("N").low == pytest.approx(values.min())
        assert root.box.interval("N").high == pytest.approx(values.max())
        children = tree.children(root)
        assert children
        # Children cover disjoint, increasing key ranges.
        for first, second in zip(children, children[1:]):
            assert first.box.interval("N").high <= second.box.interval("N").high
        assert children[0].path == (1,)

    def test_leaf_entries_and_paths(self, tree_and_values):
        tree, values = tree_and_values
        paths = dict(tree.iter_tuple_paths())
        assert len(paths) == len(values)
        assert all(len(path) == tree.height() for path in paths.values())
        assert len(paths) == len(values)

    def test_leaf_entries_requires_leaf(self, tree_and_values):
        tree, _ = tree_and_values
        with pytest.raises(IndexError_):
            tree.leaf_entries(tree.root())

    def test_iter_leaf_paths_drop_slot(self, tree_and_values):
        tree, _ = tree_and_values
        paths = leaf_paths(tree)
        seen = 0
        for node in tree.iter_nodes():
            if node.is_leaf:
                for entry in tree.leaf_entries(node):
                    assert paths[entry.tid] == node.path
                    seen += 1
        assert seen == len(paths)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0, max_value=1, allow_nan=False),
                min_size=1, max_size=300),
       st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
def test_range_search_property(values, a, b):
    """Range search always agrees with a linear scan."""
    low, high = min(a, b), max(a, b)
    tree = BPlusTree.build("N", values, fanout=5)
    expected = {i for i, v in enumerate(values) if low <= v <= high}
    assert set(tree.search_range(low, high)) == expected

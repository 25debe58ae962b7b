"""Tests for the selection (inverted/bitmap) indexes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import IndexError_, QueryError
from repro.paper.bitmap import SelectionIndex, intersect_sorted
from repro.storage.pager import Pager
from repro.workloads import SyntheticSpec, generate_relation


@pytest.fixture(scope="module")
def relation():
    return generate_relation(SyntheticSpec(num_tuples=2000, num_selection_dims=3,
                                           num_ranking_dims=2, cardinality=5, seed=21))


@pytest.fixture(scope="module")
def index(relation):
    return SelectionIndex(relation)


class TestSelectionIndex:
    def test_single_dimension_lookup(self, relation, index):
        for value in range(relation.cardinality("A1")):
            expected = set(np.nonzero(relation.selection_column("A1") == value)[0])
            assert set(index.tids_for("A1", value)) == expected

    def test_missing_value_is_empty(self, index):
        assert index.tids_for("A1", 10 ** 6).size == 0

    def test_unknown_dimension_rejected(self, index):
        with pytest.raises(QueryError):
            index.tids_for("Z9", 0)

    def test_ranking_dimension_rejected(self, relation):
        with pytest.raises(IndexError_):
            SelectionIndex(relation, dims=["N1"])

    def test_conjunction(self, relation, index):
        conditions = {"A1": 1, "A2": 3}
        expected = set(relation.tids_matching(conditions))
        assert set(index.tids_for_conditions(conditions)) == expected

    def test_empty_conditions_return_everything(self, relation, index):
        assert len(index.tids_for_conditions({})) == relation.num_tuples

    def test_bitmap(self, relation, index):
        bitmap = index.bitmap_for("A2", 0)
        assert bitmap.dtype == bool
        assert bitmap.sum() == len(index.tids_for("A2", 0))

    def test_selectivity(self, relation, index):
        total = sum(index.selectivity("A1", v) for v in range(relation.cardinality("A1")))
        assert total == pytest.approx(1.0)

    def test_lookup_counts_io(self, relation):
        pager = Pager(page_size=64)  # tiny pages -> several per posting list
        small = SelectionIndex(relation, pager=pager, buffer_capacity=1)
        before = pager.stats.physical_reads
        small.tids_for("A1", 0)
        assert pager.stats.physical_reads > before
        assert small.num_pages() > relation.cardinality("A1")
        assert small.size_in_bytes() > 0


class TestIntersectSorted:
    def test_intersection(self):
        a = np.array([1, 3, 5, 7])
        b = np.array([3, 4, 5])
        c = np.array([5, 3])
        assert list(intersect_sorted([a, b])) == [3, 5]
        assert list(intersect_sorted([a, b, np.sort(c)])) == [3, 5]

    def test_empty_cases(self):
        assert intersect_sorted([]).size == 0
        assert intersect_sorted([np.array([1, 2]), np.array([3])]).size == 0

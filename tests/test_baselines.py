"""Tests for the baseline query-processing methods."""

from __future__ import annotations

import numpy as np
import pytest

from repro.paper.baselines import (
    BooleanFirstTopK,
    RankMappingTopK,
    RankingFirstTopK,
    TableScanTopK,
    ThresholdAlgorithmTopK,
    build_dimension_trees,
    optimal_range_bounds,
    table_pages,
)
from repro.errors import QueryError
from repro.functions import (
    ExpressionFunction,
    LinearFunction,
    SquaredDistanceFunction,
    Var,
)
from repro.query import Predicate, TopKQuery
from repro.paper.rtree import RTree
from repro.workloads import SyntheticSpec, generate_relation
from tests.conftest import brute_force_topk


@pytest.fixture(scope="module")
def relation():
    return generate_relation(SyntheticSpec(num_tuples=2500, num_selection_dims=3,
                                           num_ranking_dims=2, cardinality=6, seed=71))


@pytest.fixture(scope="module")
def rtree(relation):
    points = relation.ranking_values_bulk(np.arange(relation.num_tuples),
                                          relation.ranking_dims)
    return RTree.build(relation.ranking_dims, points, max_entries=16)


QUERY = TopKQuery(Predicate.of(A1=2, A2=1), LinearFunction(["N1", "N2"], [1.0, 2.0]), 10)


class TestTableScan:
    def test_matches_oracle(self, relation):
        _, expected = brute_force_topk(relation, QUERY)
        result = TableScanTopK(relation).query(QUERY)
        assert result.scores == pytest.approx(expected)
        assert result.disk_accesses == table_pages(relation)

    def test_no_matches(self, relation):
        query = TopKQuery(Predicate.of(A1=999), LinearFunction(["N1"], [1.0]), 5)
        assert TableScanTopK(relation).query(query).tids == ()

    def test_table_pages_scales_with_size(self, relation):
        small = generate_relation(SyntheticSpec(num_tuples=100, num_selection_dims=3,
                                                num_ranking_dims=2, seed=1))
        assert table_pages(relation) > table_pages(small)


class TestBooleanFirst:
    def test_matches_oracle(self, relation):
        _, expected = brute_force_topk(relation, QUERY)
        result = BooleanFirstTopK(relation).query(QUERY)
        assert result.scores == pytest.approx(expected)
        assert result.disk_accesses > 0
        assert result.tuples_evaluated > 0

    def test_more_selective_predicate_is_cheaper(self, relation):
        engine = BooleanFirstTopK(relation)
        loose = engine.query(TopKQuery(Predicate.of(A1=2),
                                       LinearFunction(["N1"], [1.0]), 10))
        tight = engine.query(TopKQuery(Predicate.of(A1=2, A2=1, A3=3),
                                       LinearFunction(["N1"], [1.0]), 10))
        assert tight.disk_accesses <= loose.disk_accesses


class TestRankingFirst:
    def test_matches_oracle(self, relation, rtree):
        _, expected = brute_force_topk(relation, QUERY)
        result = RankingFirstTopK(relation, rtree).query(QUERY)
        assert result.scores == pytest.approx(expected)
        assert result.extra["boolean_verifications"] >= len(expected)

    def test_distance_function(self, relation, rtree):
        query = TopKQuery(Predicate.of(A3=2),
                          SquaredDistanceFunction(["N1", "N2"], [0.9, 0.9]), 5)
        _, expected = brute_force_topk(relation, query)
        assert RankingFirstTopK(relation, rtree).query(query).scores == \
            pytest.approx(expected)

    def test_larger_k_costs_more(self, relation, rtree):
        engine = RankingFirstTopK(relation, rtree)
        small = engine.query(TopKQuery(QUERY.predicate, QUERY.function, 5))
        large = engine.query(TopKQuery(QUERY.predicate, QUERY.function, 100))
        assert large.tuples_evaluated >= small.tuples_evaluated


class TestRankMapping:
    def test_matches_oracle(self, relation):
        _, expected = brute_force_topk(relation, QUERY)
        result = RankMappingTopK(relation).query(QUERY)
        assert result.scores == pytest.approx(expected)
        assert result.extra["range_tuples"] >= len(expected)

    def test_optimal_bounds_linear(self):
        fn = LinearFunction(["a", "b"], [1.0, 2.0])
        bounds = optimal_range_bounds(fn, 10.0)
        assert bounds["a"][1] == pytest.approx(10.0)
        assert bounds["b"][1] == pytest.approx(5.0)

    def test_optimal_bounds_distance(self):
        fn = SquaredDistanceFunction(["a"], [1.0])
        bounds = optimal_range_bounds(fn, 4.0)
        assert bounds["a"] == (pytest.approx(-1.0), pytest.approx(3.0))

    def test_general_function_falls_back_to_unbounded(self, relation):
        fn = ExpressionFunction((Var("N1") - Var("N2") ** 2) ** 2)
        bounds = optimal_range_bounds(fn, 1.0)
        assert all(low == -np.inf and high == np.inf for low, high in bounds.values())
        query = TopKQuery(Predicate.of(A1=1), fn, 5)
        _, expected = brute_force_topk(relation, query)
        assert RankMappingTopK(relation).query(query).scores == pytest.approx(expected)

    def test_fewer_matches_than_k(self, relation):
        query = TopKQuery(Predicate.of(A1=0, A2=0, A3=0),
                          LinearFunction(["N1"], [1.0]), 500)
        _, expected = brute_force_topk(relation, query)
        assert RankMappingTopK(relation).query(query).scores == pytest.approx(expected)


class TestThresholdAlgorithm:
    def test_matches_oracle_for_monotone(self, relation):
        trees = build_dimension_trees(relation, fanout=32)
        engine = ThresholdAlgorithmTopK(relation, trees)
        query = TopKQuery(Predicate.of(), LinearFunction(["N1", "N2"], [1.0, 1.0]), 10)
        _, expected = brute_force_topk(relation, query)
        result = engine.query(query)
        assert result.scores == pytest.approx(expected)
        assert result.extra["sorted_accesses"] > 0

    def test_with_predicate(self, relation):
        trees = build_dimension_trees(relation, fanout=32)
        engine = ThresholdAlgorithmTopK(relation, trees)
        query = TopKQuery(Predicate.of(A1=1), LinearFunction(["N1", "N2"], [2.0, 1.0]), 5)
        _, expected = brute_force_topk(relation, query)
        assert engine.query(query).scores == pytest.approx(expected)

    def test_rejects_non_monotone(self, relation):
        trees = build_dimension_trees(relation)
        engine = ThresholdAlgorithmTopK(relation, trees)
        query = TopKQuery(Predicate.of(), LinearFunction(["N1", "N2"], [1.0, -1.0]), 5)
        with pytest.raises(QueryError):
            engine.query(query)

    def test_rejects_missing_tree(self, relation):
        trees = build_dimension_trees(relation, dims=["N1"])
        engine = ThresholdAlgorithmTopK(relation, trees)
        query = TopKQuery(Predicate.of(), LinearFunction(["N1", "N2"], [1.0, 1.0]), 5)
        with pytest.raises(QueryError):
            engine.query(query)

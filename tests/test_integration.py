"""End-to-end integration: every engine answers the same workload consistently."""

from __future__ import annotations

import numpy as np
import pytest

from repro.paper.baselines import (
    BooleanFirstTopK,
    RankMappingTopK,
    RankingFirstTopK,
    TableScanTopK,
)
from repro.cube import RankingCube, build_ranking_fragments
from repro.query import SkylineQuery, TopKQuery
from repro.paper.signature import SignatureRankingCube, SignatureTopKExecutor
from repro.paper.skyline import SkylineEngine
from repro.skyline import BooleanFirstSkyline
from repro.workloads import QuerySpec, SyntheticSpec, generate_queries, generate_relation
from tests.conftest import brute_force_topk


@pytest.fixture(scope="module")
def relation():
    return generate_relation(SyntheticSpec(num_tuples=3000, num_selection_dims=3,
                                           num_ranking_dims=2, cardinality=8,
                                           seed=111))


@pytest.fixture(scope="module")
def engines(relation):
    grid = RankingCube(relation, block_size=200)
    fragments = build_ranking_fragments(relation, fragment_size=2, block_size=200)
    signature = SignatureRankingCube(relation, rtree_max_entries=16)
    return {
        "grid cube": grid.query,
        "fragments": fragments.query,
        "signature cube": SignatureTopKExecutor(signature).query,
        "table scan": TableScanTopK(relation).query,
        "boolean first": BooleanFirstTopK(relation).query,
        "ranking first": RankingFirstTopK(relation, signature.rtree).query,
        "rank mapping": RankMappingTopK(relation).query,
    }


class TestAllEnginesAgree:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_workload(self, relation, engines, seed):
        queries = generate_queries(
            relation, QuerySpec(k=10, num_selection_conditions=2,
                                num_ranking_dims=2, skewness=2.0, seed=seed),
            count=3)
        for query in queries:
            _, expected = brute_force_topk(relation, query)
            for name, run in engines.items():
                outcome = run(query)
                assert outcome.scores == pytest.approx(expected), \
                    f"{name} diverged on seed {seed}"

    def test_distance_workload(self, relation, engines):
        queries = generate_queries(
            relation, QuerySpec(k=5, num_selection_conditions=1, num_ranking_dims=2,
                                function_kind="distance", seed=9),
            count=3)
        for query in queries:
            _, expected = brute_force_topk(relation, query)
            for name, run in engines.items():
                assert run(query).scores == pytest.approx(expected), name

    def test_skyline_engines_agree(self, relation):
        from repro.query import Predicate

        cube = SignatureRankingCube(relation, rtree_max_entries=16)
        signature_engine = SkylineEngine(cube)
        baseline = BooleanFirstSkyline(relation)
        rng = np.random.default_rng(5)
        for _ in range(3):
            tid = int(rng.integers(0, relation.num_tuples))
            values = relation.selection_values(tid)
            query = SkylineQuery(Predicate.of(A1=values["A1"]), ("N1", "N2"))
            assert signature_engine.query(query).tids == baseline.query(query).tids

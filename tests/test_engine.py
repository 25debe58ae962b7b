"""Tests for the unified engine layer: registry, planner, executor, cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cube import RankingCube
from repro.engine import (
    CostModel,
    Executor,
    EngineRegistry,
    LowerBoundCache,
    Planner,
    RankingCubeBackend,
    SkylineBackend,
    TableScanBackend,
    kind_of,
)
from repro.errors import PlanningError
from repro.functions import LinearFunction, SquaredDistanceFunction
from repro.functions.base import RankingFunction
from repro.paper.joins import (
    JoinCondition,
    RelationTerm,
    SPJRQuery,
    register_joins,
)
from repro.query import Predicate, SkylineQuery, TopKQuery
from repro.skyline import BooleanFirstSkyline, SkylineEngine
from repro.workloads import QuerySpec, SyntheticSpec, generate_queries, generate_relation
from tests.conftest import brute_force_topk


@pytest.fixture(scope="module")
def relation():
    return generate_relation(SyntheticSpec(num_tuples=3000, num_selection_dims=3,
                                           num_ranking_dims=2, cardinality=8,
                                           seed=111))


@pytest.fixture(scope="module")
def executor(relation):
    return Executor.for_relation(relation, block_size=200, rtree_max_entries=16)


@pytest.fixture(scope="module")
def paper_executor(relation):
    """The module stack under the first cost model's hand-set constants,
    for the tests that pin its routing."""
    return Executor.for_relation(relation, block_size=200, rtree_max_entries=16,
                                 cost_model=CostModel(**CostModel.PAPER))


class PerTupleFunction(RankingFunction):
    """Wrapper forcing the per-tuple (seed) scoring path of a function."""

    def __init__(self, inner: RankingFunction) -> None:
        self.inner = inner
        self.dims = inner.dims

    def evaluate(self, values):
        return self.inner.evaluate(values)

    def lower_bound(self, box):
        return self.inner.lower_bound(box)

    @property
    def shape(self):
        return self.inner.shape

    def minimum_point(self):
        return self.inner.minimum_point()


class TestRouting:
    def test_topk_routes_to_ranking_cube(self, paper_executor):
        query = TopKQuery(Predicate.of(A1=1, A2=2),
                          LinearFunction(["N1", "N2"], [1.0, 2.0]), 5)
        result = paper_executor.execute(query)
        assert result.extra["backend"] == "ranking-cube"
        assert "ranking-cube" in result.plan
        assert result.backend == "ranking-cube"
        assert result.plan is not None

    def test_skyline_routes_to_skyline_engine(self, executor):
        query = SkylineQuery(Predicate.of(A1=1), ("N1", "N2"))
        result = executor.execute(query)
        assert result.extra["backend"] == "skyline"
        assert result.plan is not None and "skyline" in result.plan

    def test_join_routes_to_index_merge(self):
        r1 = generate_relation(SyntheticSpec(num_tuples=400, num_selection_dims=2,
                                             num_ranking_dims=2, cardinality=4,
                                             seed=91), name="R1")
        r2 = generate_relation(SyntheticSpec(num_tuples=300, num_selection_dims=2,
                                             num_ranking_dims=2, cardinality=4,
                                             seed=92), name="R2")
        executor = Executor.for_relation(r1, rtree_max_entries=16)
        register_joins(executor, [r1, r2], rtree_max_entries=16)
        query = SPJRQuery(
            terms=(RelationTerm(r1, Predicate.of(A2=1),
                                LinearFunction(["N1", "N2"], [1, 1])),
                   RelationTerm(r2, Predicate.of(A2=2),
                                LinearFunction(["N1"], [1.0]))),
            joins=(JoinCondition("R1", "A1", "R2", "A1"),), k=5)
        result = executor.execute(query)
        assert result.extra["backend"] == "index-merge"
        assert "join_order" in result.plan

    def test_unroutable_query_kind(self, executor):
        with pytest.raises(PlanningError):
            executor.execute(object())

    def test_no_supporting_backend(self, relation):
        from repro.signature import SignatureRankingCube

        lonely = Executor()
        cube = SignatureRankingCube(relation, rtree_max_entries=16)
        lonely.register(SkylineBackend(SkylineEngine(cube)))
        with pytest.raises(PlanningError):
            lonely.execute(TopKQuery(Predicate.of(),
                                     LinearFunction(["N1"], [1.0]), 3))

    def test_kind_of(self, relation):
        assert kind_of(TopKQuery(Predicate.of(),
                                 LinearFunction(["N1"], [1.0]), 1)) == "topk"
        assert kind_of(SkylineQuery(Predicate.of(), ("N1",))) == "skyline"
        with pytest.raises(PlanningError):
            kind_of(42)


class TestPlannerResultsMatchDirectCalls:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_linear_workload(self, relation, executor, seed):
        queries = generate_queries(
            relation, QuerySpec(k=10, num_selection_conditions=2,
                                num_ranking_dims=2, skewness=2.0, seed=seed),
            count=4)
        direct = RankingCube(relation, block_size=200)
        for query in queries:
            routed = executor.execute(query)
            reference = direct.query(query)
            assert routed.tids == reference.tids
            assert routed.scores == reference.scores
            _, expected = brute_force_topk(relation, query)
            assert routed.scores == pytest.approx(expected)

    def test_distance_workload(self, relation, executor):
        queries = generate_queries(
            relation, QuerySpec(k=5, num_selection_conditions=1,
                                num_ranking_dims=2, function_kind="distance",
                                seed=9),
            count=3)
        for query in queries:
            routed = executor.execute(query)
            _, expected = brute_force_topk(relation, query)
            assert routed.scores == pytest.approx(expected)

    def test_skyline_matches_direct_engines(self, relation, executor):
        baseline = BooleanFirstSkyline(relation)
        for value in (0, 1, 2):
            query = SkylineQuery(Predicate.of(A1=value), ("N1", "N2"))
            assert executor.execute(query).tids == baseline.query(query).tids


class TestVectorizedParity:
    """Vectorized block scoring == the seed per-tuple loop, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_workload_identical(self, relation, seed):
        cube = RankingCube(relation, block_size=200)
        queries = generate_queries(
            relation, QuerySpec(k=10, num_selection_conditions=2,
                                num_ranking_dims=2, skewness=3.0, seed=seed),
            count=4)
        for query in queries:
            vectorized = cube.query(query)
            per_tuple = cube.query(TopKQuery(query.predicate,
                                             PerTupleFunction(query.function),
                                             query.k))
            assert vectorized.tids == per_tuple.tids
            assert vectorized.scores == per_tuple.scores  # exact, not approx
            assert vectorized.tuples_evaluated == per_tuple.tuples_evaluated

    def test_empty_predicate_identical(self, relation):
        cube = RankingCube(relation, block_size=200)
        function = SquaredDistanceFunction(["N1", "N2"], [0.3, 0.6])
        query = TopKQuery(Predicate.of(), function, 7)
        vectorized = cube.query(query)
        per_tuple = cube.query(TopKQuery(query.predicate,
                                         PerTupleFunction(function), query.k))
        assert vectorized.tids == per_tuple.tids
        assert vectorized.scores == per_tuple.scores


class TestRegistry:
    def test_duplicate_name_rejected(self, relation):
        registry = EngineRegistry()
        cube = RankingCube(relation, block_size=300)
        registry.register(RankingCubeBackend(cube))
        with pytest.raises(PlanningError):
            registry.register(RankingCubeBackend(cube))
        registry.register(RankingCubeBackend(cube), replace=True)
        assert registry.names() == ["ranking-cube"]

    def test_unregister_and_get(self, relation):
        registry = EngineRegistry()
        cube = RankingCube(relation, block_size=300)
        backend = registry.register(RankingCubeBackend(cube))
        assert registry.get("ranking-cube") is backend
        assert "ranking-cube" in registry
        removed = registry.unregister("ranking-cube")
        assert removed is backend
        with pytest.raises(PlanningError):
            registry.get("ranking-cube")
        with pytest.raises(PlanningError):
            registry.unregister("ranking-cube")

    def test_priority_ordering(self, executor):
        names = [b.name for b in executor.registry.backends_for("topk")]
        assert names == ["ranking-cube", "signature-cube", "table-scan"]

    def test_topk_only_stack(self, relation):
        slim = Executor.for_relation(relation, block_size=300,
                                     with_signature=False, with_skyline=False)
        assert slim.registry.names() == ["ranking-cube", "table-scan"]
        with pytest.raises(PlanningError):
            slim.execute(SkylineQuery(Predicate.of(), ("N1", "N2")))

    def test_fragments_stack(self, relation):
        stacked = Executor.for_relation(relation, block_size=300,
                                        rtree_max_entries=16,
                                        include_fragments=True)
        assert "fragments" in stacked.registry.names()
        names = [b.name for b in stacked.registry.backends_for("topk")]
        assert names.index("ranking-cube") < names.index("fragments")


class TestBoundCacheAndBatch:
    def test_execute_many_fuses_shared_function_queries(self, relation):
        executor = Executor.for_relation(
            relation, block_size=200, rtree_max_entries=16,
            cost_model=CostModel(**CostModel.PAPER))
        function = LinearFunction(["N1", "N2"], [1.0, 2.0])
        queries = [TopKQuery(Predicate.of(A1=value), function, 5)
                   for value in range(4)]
        results = executor.execute_many(queries)
        assert len(results) == len(queries)
        stats = executor.metrics_snapshot()
        # The shared-function group runs as one fused frontier sweep, so
        # each block's bound is computed once for the whole batch instead
        # of once per query (the pre-fusion batch path shared them through
        # bound-cache hits).
        assert stats["engine.fused_groups"] == 1.0
        assert stats["engine.fused_queries"] == float(len(queries))
        for query, batched in zip(queries, results):
            assert batched.extra["fused_group_size"] == float(len(queries))
            alone = executor.execute(query)
            assert alone.tids == batched.tids
            assert alone.scores == batched.scores

    def test_cache_counts_and_clear(self):
        from repro.partition.grid import GridPartition  # noqa: F401 (doc import)

        cache = LowerBoundCache(max_entries=2)

        class FakeGrid:
            def block_box(self, bid):
                return bid

        class FakeFunction:
            calls = 0

            def lower_bound(self, box):
                FakeFunction.calls += 1
                return float(box)

        grid, function = FakeGrid(), FakeFunction()
        assert cache.lower_bound(grid, function, 1) == 1.0
        assert cache.lower_bound(grid, function, 1) == 1.0
        assert (cache.hits, cache.misses) == (1, 1)
        assert FakeFunction.calls == 1
        cache.lower_bound(grid, function, 2)
        cache.lower_bound(grid, function, 3)  # evicts bid 1 (LRU, capacity 2)
        assert len(cache) == 2
        cache.lower_bound(grid, function, 1)
        assert FakeFunction.calls == 4
        assert (cache.hits, cache.misses) == (1, 4)
        cache.clear()
        assert len(cache) == 0

    def test_execute_many_hoists_plans_for_repeated_queries(self, relation):
        from repro.engine import ResultCache

        class NoStoreCache(ResultCache):
            """A cache that never retains results, forcing re-execution."""

            def store(self, key, result):
                result.extra["result_cache"] = "miss"

        executor = Executor.for_relation(relation, block_size=200,
                                         with_signature=False,
                                         with_skyline=False)
        executor.result_cache = NoStoreCache()
        plan_calls = []
        inner_plan = executor.planner.plan
        executor.planner.plan = lambda query: (plan_calls.append(query)
                                               or inner_plan(query))
        query = TopKQuery(Predicate.of(A1=1),
                          LinearFunction(["N1", "N2"], [1.0, 1.0]), 4)
        other = TopKQuery(Predicate.of(A1=2),
                          LinearFunction(["N1", "N2"], [1.0, 1.0]), 4)
        results = executor.execute_many([query, other, query, query])
        # Even with every result re-executed (no result cache), the two
        # distinct logical queries are planned exactly once each.
        assert len(plan_calls) == 2
        assert executor.metrics_snapshot()["engine.plans_reused"] == 2.0
        assert results[0].tids == results[2].tids == results[3].tids
        assert results[0].scores == results[3].scores
        alone = executor.execute(query)
        assert alone.tids == results[0].tids

    def test_execute_many_fully_cached_batch_never_plans(self, relation):
        executor = Executor.for_relation(relation, block_size=200,
                                         with_signature=False,
                                         with_skyline=False)
        query = TopKQuery(Predicate.of(A1=1),
                          LinearFunction(["N1", "N2"], [1.0, 1.0]), 4)
        warm = executor.execute(query)  # fills the result cache
        plan_calls = []
        inner_plan = executor.planner.plan
        executor.planner.plan = lambda q: (plan_calls.append(q)
                                           or inner_plan(q))
        results = executor.execute_many([query, query, query])
        # Every occurrence hits the result cache; hoisting is lazy, so no
        # plan is ever computed and no reuse is (over)counted.
        assert plan_calls == []
        assert executor.metrics_snapshot()["engine.plans_reused"] == 0.0
        assert all(r.extra["result_cache"] == "hit" for r in results)
        assert results[0].tids == warm.tids

    def test_execute_many_unkeyable_queries_still_replan(self, relation):
        executor = Executor.for_relation(relation, block_size=200,
                                         with_signature=False,
                                         with_skyline=False)
        plan_calls = []
        inner_plan = executor.planner.plan
        executor.planner.plan = lambda query: (plan_calls.append(query)
                                               or inner_plan(query))
        query = TopKQuery(Predicate.of(A1=1),
                          PerTupleFunction(LinearFunction(["N1", "N2"],
                                                          [1.0, 1.0])), 3)
        executor.execute_many([query, query])
        # No canonical key means no safe sharing: each occurrence plans.
        assert len(plan_calls) == 2
        assert executor.metrics_snapshot()["engine.plans_reused"] == 0.0

    def test_cached_results_identical_to_uncached(self, relation):
        plain = RankingCube(relation, block_size=200)
        bound_cache = LowerBoundCache()
        cached = RankingCube(relation, block_size=200,
                             bound_cache=bound_cache)
        # The cache is asked only for a function without
        # ``lower_bound_batch``: wrap each one so the sweep bounds its
        # blocks one at a time.
        queries = [
            TopKQuery(q.predicate, PerTupleFunction(q.function), q.k)
            for q in generate_queries(
                relation, QuerySpec(k=8, num_selection_conditions=1,
                                    num_ranking_dims=2, seed=4),
                count=3)]
        for query in queries:
            for _ in range(2):  # second pass hits the cache
                a = plain.query(query)
                b = cached.query(query)
                assert a.tids == b.tids
                assert a.scores == b.scores
        assert bound_cache.hits and bound_cache.hits == bound_cache.misses


class TestResultCache:
    def test_repeat_query_hits_and_matches(self, relation):
        executor = Executor.for_relation(relation, block_size=200,
                                         rtree_max_entries=16)
        query = TopKQuery(Predicate.of(A1=1),
                          LinearFunction(["N1", "N2"], [1.0, 2.0]), 5)
        first = executor.execute(query)
        assert first.extra["result_cache"] == "miss"
        # A logically identical query (new objects) is served from cache.
        twin = TopKQuery(Predicate.of(A1=1),
                         LinearFunction(["N1", "N2"], [1.0, 2.0]), 5)
        second = executor.execute(twin)
        assert second.extra["result_cache"] == "hit"
        assert second.tids == first.tids
        assert second.scores == first.scores
        stats = executor.metrics_snapshot()
        assert stats["engine.result_hits"] == 1.0
        assert stats["engine.result_misses"] == 1.0

    def test_cached_result_copies_do_not_alias(self, relation):
        executor = Executor.for_relation(relation, block_size=200,
                                         rtree_max_entries=16)
        query = SkylineQuery(Predicate.of(A1=1), ("N1", "N2"))
        first = executor.execute(query)
        first.extra["poison"] = True
        second = executor.execute(query)
        assert second.extra["result_cache"] == "hit"
        assert "poison" not in second.extra

    def test_invalidate_results_drops_entries(self, relation):
        executor = Executor.for_relation(relation, block_size=200,
                                         rtree_max_entries=16)
        query = TopKQuery(Predicate.of(A2=1),
                          LinearFunction(["N1"], [1.0]), 3)
        executor.execute(query)
        assert executor.metrics_snapshot()["engine.result_entries"] == 1.0
        executor.invalidate_results()
        assert executor.metrics_snapshot()["engine.result_entries"] == 0.0
        assert executor.execute(query).extra["result_cache"] == "miss"

    def test_key_distinguishes_predicate_function_and_k(self, relation):
        from repro.engine import query_cache_key

        base = TopKQuery(Predicate.of(A1=1),
                         LinearFunction(["N1", "N2"], [1.0, 2.0]), 5)
        same = TopKQuery(Predicate.of(A1=1),
                         LinearFunction(["N1", "N2"], [1.0, 2.0]), 5)
        assert query_cache_key(base) == query_cache_key(same)
        assert query_cache_key(base) != query_cache_key(
            TopKQuery(Predicate.of(A1=2),
                      LinearFunction(["N1", "N2"], [1.0, 2.0]), 5))
        assert query_cache_key(base) != query_cache_key(
            TopKQuery(Predicate.of(A1=1),
                      LinearFunction(["N1", "N2"], [1.0, 3.0]), 5))
        assert query_cache_key(base) != query_cache_key(
            TopKQuery(Predicate.of(A1=1),
                      LinearFunction(["N1", "N2"], [1.0, 2.0]), 6))
        sky = SkylineQuery(Predicate.of(A1=1), ("N1", "N2"))
        assert query_cache_key(sky) == query_cache_key(
            SkylineQuery(Predicate.of(A1=1), ("N1", "N2")))
        assert query_cache_key(sky) != query_cache_key(
            SkylineQuery(Predicate.of(A1=1), ("N1", "N2"), targets=(0.1, 0.2)))

    def test_a_function_is_keyed_once_and_by_value(self):
        from repro.engine import cache

        function = SquaredDistanceFunction(["N1", "N2"], [0.2, 0.4])
        twin = SquaredDistanceFunction(["N1", "N2"], [0.2, 0.4])
        first = cache._function_key(function)
        # Computed once: the second call hands back the memoised tuple.
        assert cache._function_key(function) is first
        assert cache._function_key(twin) == first
        assert cache._function_key(twin) is not first
        assert cache.function_fuse_key(twin) == cache.function_fuse_key(
            function)
        assert cache._function_key(
            SquaredDistanceFunction(["N1", "N2"], [0.2, 0.5])) != first

    def test_direct_append_invalidates_watched_cache(self):
        relation = generate_relation(SyntheticSpec(num_tuples=500,
                                                   num_selection_dims=2,
                                                   num_ranking_dims=2,
                                                   cardinality=4, seed=31))
        executor = Executor.for_relation(relation, block_size=100,
                                         rtree_max_entries=16,
                                         with_signature=False,
                                         with_skyline=False)
        query = TopKQuery(Predicate.of(A1=1),
                          LinearFunction(["N1", "N2"], [1.0, 1.0]), 3)
        executor.execute(query)
        # Mutate the relation directly (the incremental-maintenance path):
        # the next execution must re-run, not serve the stale cached answer.
        new_tid = relation.append({"A1": 1, "A2": 0, "N1": 0.0, "N2": 0.0})
        executor.registry.unregister("ranking-cube")  # cube predates the row
        result = executor.execute(query)
        assert result.extra["result_cache"] == "miss"
        assert result.tids[0] == new_tid

    def test_direct_append_refreshes_cached_statistics(self):
        relation = generate_relation(SyntheticSpec(num_tuples=400,
                                                   num_selection_dims=2,
                                                   num_ranking_dims=2,
                                                   cardinality=4, seed=33))
        executor = Executor.for_relation(relation, block_size=100,
                                         with_signature=False,
                                         with_skyline=False)
        query = TopKQuery(Predicate.of(A1=1),
                          LinearFunction(["N1", "N2"], [1.0, 1.0]), 3)
        executor.execute(query)  # plans → profiles the relation
        before = executor.statistics_for(relation)
        assert executor.statistics_for(relation) is before  # cached
        assert before.num_tuples == 400
        assert 55 not in before.selection_values["A1"]
        # Mutate directly (the incremental-maintenance path): both the
        # cached result AND the cached profile must refresh.
        relation.append({"A1": 55, "A2": 0, "N1": 0.0, "N2": 0.0})
        executor.registry.unregister("ranking-cube")  # cube predates the row
        result = executor.execute(query)
        assert result.extra["result_cache"] == "miss"
        after = executor.statistics_for(relation)
        assert after is not before
        assert after.num_tuples == 401
        assert 55 in after.selection_values["A1"]
        assert after.selection_cardinalities["A1"] == 5
        # The refreshed profile changes planning too: A1=55 is now a known
        # value, so its selectivity is no longer zero.
        assert after.selectivity(Predicate.of(A1=55)) > 0.0
        assert before.selectivity(Predicate.of(A1=55)) == 0.0

    def test_invalidate_results_drops_statistics_catalog(self, relation):
        executor = Executor.for_relation(relation, block_size=200,
                                         with_signature=False,
                                         with_skyline=False)
        executor.statistics_for(relation)
        assert len(executor.statistics) == 1
        executor.invalidate_results()
        assert len(executor.statistics) == 0

    def test_unkeyable_function_is_never_cached(self, relation, executor):
        from repro.engine import query_cache_key

        # PerTupleFunction exposes no exact parameter attributes, so its
        # queries must stay uncacheable rather than risk a key collision.
        query = TopKQuery(Predicate.of(A1=1),
                          PerTupleFunction(LinearFunction(["N1", "N2"],
                                                          [1.0, 1.0])), 3)
        assert query_cache_key(query) is None
        result = executor.execute(query)
        assert "result_cache" not in result.extra


class TestDeterministicPlanning:
    def test_equal_priority_breaks_ties_by_name(self, relation):
        from repro.storage.table_scan import TableScanTopK
        from repro.engine.backends import TableScanBackend

        scanner = TableScanTopK(relation)
        query = TopKQuery(Predicate.of(), LinearFunction(["N1"], [1.0]), 3)
        # Register the same-priority backends in both orders: the winner
        # must be the lexicographically first name either way.
        for names in (("b-scan", "a-scan"), ("a-scan", "b-scan")):
            executor = Executor()
            for name in names:
                executor.register(TableScanBackend(scanner, name=name, priority=50))
            assert executor.plan(query).backend == "a-scan"

    def test_losing_candidates_and_priorities_recorded(self, paper_executor):
        query = TopKQuery(Predicate.of(A1=1),
                          LinearFunction(["N1", "N2"], [1.0, 1.0]), 3)
        plan = paper_executor.plan(query)
        assert plan.details["losing_candidates"] == "signature-cube:20,table-scan:90"
        assert plan.candidates == ("ranking-cube", "signature-cube", "table-scan")


class TestTieBreakAcrossBackends:
    def test_boundary_ties_agree_across_backends(self):
        from repro.functions.linear import sum_function
        from repro.storage.table import Relation, Schema

        # Quantized ranking values force exact score ties at the k-th
        # boundary; every top-k backend must admit the same small-tid
        # winners under the canonical (score, tid) order, even when a
        # block/node bound exactly equals the k-th score.
        schema = Schema(("A",), ("X", "Y"))
        rows = [{"A": i % 2, "X": (i % 4) * 0.25, "Y": ((i + 2) % 4) * 0.25}
                for i in range(64)]
        relation = Relation.from_rows(schema, rows, name="ties")
        executor = Executor.for_relation(relation, block_size=8,
                                         rtree_max_entries=8)
        query = TopKQuery(Predicate.of(A=0), sum_function(["X", "Y"]), 5)
        reference = brute_force_topk(relation, query)  # sorted by (score, tid)
        for name in ("ranking-cube", "signature-cube", "table-scan"):
            result = executor.registry.get(name).run(query)
            assert result.tids == reference[0], name
            assert result.scores == pytest.approx(reference[1]), name


class TestSignatureSharing:
    def test_skyline_and_signature_backends_share_one_cube(self, executor):
        signature_backend = executor.registry.get("signature-cube")
        skyline_backend = executor.registry.get("skyline")
        assert skyline_backend.engine.cube is signature_backend.cube

    def test_skyline_without_signature_backend_still_prunes(self, relation):
        stack = Executor.for_relation(relation, block_size=300,
                                      rtree_max_entries=16,
                                      with_signature=False, with_skyline=True)
        assert "signature-cube" not in stack.registry.names()
        result = stack.execute(SkylineQuery(Predicate.of(A1=1), ("N1", "N2")))
        assert result.backend == "skyline"
        assert stack.registry.get("skyline").engine.use_signature
        baseline = BooleanFirstSkyline(relation)
        assert result.tids == baseline.query(
            SkylineQuery(Predicate.of(A1=1), ("N1", "N2"))).tids


class TestExplain:
    def test_explain_names_backend_and_details(self, executor):
        query = TopKQuery(Predicate.of(A1=1),
                          SquaredDistanceFunction(["N1", "N2"], [0.2, 0.4]), 3)
        text = executor.explain(query)
        assert "ranking-cube" in text
        assert "semi_monotone" in text
        assert "k=3" in text

    def test_plan_as_dict(self, paper_executor):
        query = TopKQuery(Predicate.of(A1=1),
                          LinearFunction(["N1", "N2"], [1.0, 1.0]), 3)
        plan = paper_executor.plan(query)
        payload = plan.as_dict()
        assert payload["backend"] == "ranking-cube"
        assert payload["query_kind"] == "topk"
        assert "covering_cuboids" in payload["details"]

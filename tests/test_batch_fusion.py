"""Fused batch execution and predicate-aware cache invalidation.

Covers the three fused layers (grid sweep, signature traversal, scatter
legs) against their per-query loops, the batch observability fields
(``fused_group_size``, solo-equivalent ``tuples_evaluated``), the shared-work accounting (summing a fused batch
never double-counts a tuple scored once), the predicate-aware
``ResultCache.invalidate(row=...)`` under write traffic, and the tunable
``CostModel(**constants)`` constructor.
"""

from __future__ import annotations

import collections
import dataclasses

import numpy as np
import pytest

from repro.cube import RankingCube
from repro.engine import CostModel, Executor, ResultCache, query_cache_key
from repro.functions import Add, ExpressionFunction, Mul, Var
from repro.functions.distance import SquaredDistanceFunction
from repro.functions.linear import LinearFunction, sum_function
from repro.query import Predicate, SkylineQuery, TopKQuery
from repro.paper.signature import SignatureRankingCube, SignatureTopKExecutor
from repro.workloads import (
    SyntheticSpec,
    generate_relation,
    make_sharded_engine,
)
from tests.conftest import paper_stack


@pytest.fixture(scope="module")
def relation():
    return generate_relation(SyntheticSpec(
        num_tuples=2500, num_selection_dims=3, num_ranking_dims=2,
        cardinality=6, seed=71))


def shared_function_batch(function):
    """Mixed predicates and k over one function: one fusable group."""
    queries = [TopKQuery(Predicate.of(), function, k) for k in (1, 4, 9, 30)]
    queries += [TopKQuery(Predicate.of(A1=value), function, 5)
                for value in range(3)]
    queries.append(TopKQuery(Predicate.of(A1=2, A2=1), function, 7))
    return queries


class TestEngineBatchFusion:
    def test_fused_batch_is_bit_identical_and_cheaper(self, relation):
        function = LinearFunction(["N1", "N2"], [1.0, 2.0])
        queries = shared_function_batch(function)
        loop_engine = Executor.for_relation(relation, block_size=120,
                                            with_signature=False,
                                            with_skyline=False,
                                            cost_model=CostModel(**CostModel.PAPER))
        fused_engine = Executor.for_relation(relation, block_size=120,
                                             with_signature=False,
                                             with_skyline=False,
                                             cost_model=CostModel(**CostModel.PAPER))
        looped = [loop_engine.execute(query) for query in queries]
        fused = fused_engine.execute_many(queries)
        for alone, batched in zip(looped, fused):
            assert alone.tids == batched.tids
            assert alone.scores == batched.scores
        # Shared-work accounting: the batch aggregate counts each scored
        # tuple once, so it is strictly below the loop's aggregate...
        assert (sum(r.tuples_evaluated for r in fused)
                < sum(r.tuples_evaluated for r in looped))
        # ...while the solo-equivalent consumption is preserved per query.
        for alone, batched in zip(looped, fused):
            assert batched.extra["tuples_evaluated"] == float(
                alone.tuples_evaluated)
            assert batched.extra["fused_group_size"] == float(len(queries))
        stats = fused_engine.metrics_snapshot()
        assert stats["engine.fused_groups"] == 1.0
        assert stats["engine.fused_queries"] == float(len(queries))

    def test_shared_function_groups_score_at_most_half_the_loops_tuples(self):
        """The fusion gate at its benchmark size, in counts: two functions,
        twelve queries each; answers bit-identical, no fused group scores
        more tuples than its loop, the batch at most half."""
        big = generate_relation(SyntheticSpec(
            num_tuples=6000, num_selection_dims=3, num_ranking_dims=2,
            cardinality=8, seed=23))
        loop_engine, fused_engine = (
            Executor.for_relation(big, block_size=200, with_signature=False,
                                  with_skyline=False,
                                  cost_model=CostModel(**CostModel.PAPER))
            for _ in range(2))
        queries = []
        for weights in ([1.0, 2.0], [3.0, 1.0]):
            function = LinearFunction(["N1", "N2"], weights)
            queries += [TopKQuery(Predicate.of(), function, k)
                        for k in (1, 3, 5, 10, 20, 40)]
            queries += [TopKQuery(Predicate.of(A1=value), function, 10)
                        for value in range(4)]
            queries += [TopKQuery(Predicate.of(A2=value), function, 5)
                        for value in range(2)]
        looped = [loop_engine.execute(query) for query in queries]
        fused = fused_engine.execute_many(queries)
        loop_tuples, fused_tuples = collections.Counter(), collections.Counter()
        for query, alone, batched in zip(queries, looped, fused):
            assert alone.tids == batched.tids
            assert alone.scores == batched.scores
            group = (batched.extra["backend"], query.function.weights)
            loop_tuples[group] += alone.tuples_evaluated
            fused_tuples[group] += batched.tuples_evaluated
        assert len(loop_tuples) >= 2
        for group, tuples in loop_tuples.items():
            assert fused_tuples[group] <= tuples
        assert sum(fused_tuples.values()) * 2 <= sum(loop_tuples.values())

    def test_value_equal_function_objects_fuse(self, relation):
        engine = Executor.for_relation(relation, block_size=120,
                                       with_signature=False,
                                       with_skyline=False,
                                       cost_model=CostModel(**CostModel.PAPER))
        queries = [
            TopKQuery(Predicate.of(), LinearFunction(["N1", "N2"], [1.0, 2.0]), 3),
            TopKQuery(Predicate.of(A1=1), LinearFunction(["N1", "N2"], [1.0, 2.0]), 3),
        ]
        results = engine.execute_many(queries)
        assert all(r.extra["fused_group_size"] == 2.0 for r in results)

    def test_uncacheable_functions_fuse_by_object_identity(self, relation):
        engine = Executor.for_relation(relation, block_size=120,
                                       with_signature=False,
                                       with_skyline=False,
                                       cost_model=CostModel(**CostModel.PAPER))
        expr = ExpressionFunction(Add(Mul(Var("N1"), Var("N1")), Var("N2")),
                                  dims=("N1", "N2"))
        queries = [TopKQuery(Predicate.of(), expr, k) for k in (2, 6)]
        fused = engine.execute_many(queries)
        assert all(r.extra["fused_group_size"] == 2.0 for r in fused)
        engine.result_cache.invalidate()
        for query, batched in zip(queries, fused):
            alone = engine.execute(query)
            assert alone.tids == batched.tids
            assert alone.scores == batched.scores
        # Uncacheable queries never enter the result cache.
        assert engine.metrics_snapshot()["engine.result_entries"] == 0.0

    def test_mixed_functions_form_separate_groups(self, relation):
        engine = Executor.for_relation(relation, block_size=120,
                                       with_signature=False,
                                       with_skyline=False,
                                       cost_model=CostModel(**CostModel.PAPER))
        f1 = LinearFunction(["N1", "N2"], [1.0, 2.0])
        f2 = LinearFunction(["N1", "N2"], [5.0, 1.0])
        queries = ([TopKQuery(Predicate.of(), f1, k) for k in (2, 5)]
                   + [TopKQuery(Predicate.of(), f2, k) for k in (2, 5)]
                   + [TopKQuery(Predicate.of(),
                                LinearFunction(["N1"], [1.0]), 3)])
        results = engine.execute_many(queries)
        sizes = [r.extra["fused_group_size"] for r in results]
        assert sizes == [2.0, 2.0, 2.0, 2.0, 1.0]
        assert engine.metrics_snapshot()["engine.fused_groups"] == 2.0

    def test_skyline_queries_pass_through_unfused(self, relation):
        engine = Executor.for_relation(relation, block_size=120)
        queries = [
            SkylineQuery(Predicate.of(), ("N1", "N2")),
            TopKQuery(Predicate.of(), sum_function(["N1", "N2"]), 4),
        ]
        results = engine.execute_many(queries)
        alone = engine.execute(queries[0])
        assert tuple(sorted(results[0].tids)) == tuple(sorted(alone.tids))
        assert results[0].extra["fused_group_size"] == 1.0


class TestCubeAndSignatureBatch:
    def test_grid_query_batch_parity(self, relation):
        cube = RankingCube(relation, block_size=120)
        function = LinearFunction(["N1", "N2"], [2.0, 1.0])
        queries = shared_function_batch(function)
        solo = [cube.query(query) for query in queries]
        fused = cube.query_batch(queries)
        for alone, batched in zip(solo, fused):
            assert alone.tids == batched.tids
            assert alone.scores == batched.scores
            assert batched.extra["tuples_evaluated"] == float(
                alone.tuples_evaluated)
            assert batched.states_generated == alone.states_generated
            assert batched.peak_heap_size == alone.peak_heap_size
        assert (sum(r.tuples_evaluated for r in fused)
                < sum(r.tuples_evaluated for r in solo))
        assert cube.query_batch([]) == []

    def test_signature_query_batch_parity(self, relation):
        signature = SignatureRankingCube(relation, rtree_max_entries=8)
        executor = SignatureTopKExecutor(signature)
        function = LinearFunction(["N1", "N2"], [1.0, 3.0])
        queries = shared_function_batch(function)
        # Include a provably-absent predicate: its root signature test
        # fails and the query must come back empty from the shared walk.
        queries.append(TopKQuery(Predicate.of(A1=99), function, 3))
        solo = [executor.query(query) for query in queries]
        fused = executor.query_batch(queries)
        for alone, batched in zip(solo, fused):
            assert alone.tids == batched.tids
            assert alone.scores == batched.scores
        assert fused[-1].tids == ()
        assert (sum(r.tuples_evaluated for r in fused)
                < sum(r.tuples_evaluated for r in solo))


def stream_queries():
    """20 seeded queries whose streamed frames are pinned below."""
    rng = np.random.default_rng(1620)
    functions = [LinearFunction(["N1", "N2"], [1.0, 2.0]),
                 SquaredDistanceFunction(["N1", "N2"], [0.4, 0.7]),
                 LinearFunction(["N2"], [1.0])]
    queries = []
    for position in range(20):
        dims = rng.choice(3, size=position % 3, replace=False)
        predicate = Predicate.of({f"A{int(d) + 1}": int(rng.integers(0, 6))
                                  for d in dims})
        queries.append(TopKQuery(predicate, functions[position % 3],
                                 int(rng.choice([5, 30, 200]))))
    return queries


#: Per query of :func:`stream_queries`, the ``(start_rank, length)`` of every
#: frame ``RankingCube(relation, block_size=40).query(q, on_progress=...)``
#: emitted at the commit before the solo loop was folded into the fused one.
#: A frame leaves at the frontier state that verified it, so equal frame
#: boundaries mean the same ranks were released at the same states.
PINNED_FRAMES = [[(0, 11), (11, 17), (28, 8), (36, 54), (90, 3), (93, 57), (150, 7),
  (157, 43)],
 [(0, 4), (4, 1), (5, 12), (17, 5), (22, 2), (24, 6)],
 [(0, 8), (8, 7), (15, 8), (23, 12), (35, 7), (42, 10), (52, 6)],
 [(0, 11), (11, 17), (28, 2)],
 [(0, 1), (1, 6), (7, 1), (8, 4), (12, 7), (19, 1), (20, 10)],
 [(0, 12), (12, 6), (18, 10), (28, 7), (35, 6), (41, 9), (50, 2)],
 [(0, 11), (11, 17), (28, 2)], [(0, 5)], [(0, 5)], [(0, 5)],
 [(0, 3), (3, 1), (4, 1), (5, 4), (9, 5), (14, 2), (16, 14)],
 [(0, 10), (10, 7), (17, 12), (29, 4), (33, 12), (45, 7), (52, 13)], [(0, 5)],
 [(0, 5)], [(0, 13), (13, 2), (15, 12), (27, 9), (36, 7), (43, 9), (52, 14)],
 [(0, 11), (11, 17), (28, 8), (36, 54), (90, 3), (93, 57), (150, 7),
  (157, 43)],
 [(0, 6), (6, 1), (7, 7), (14, 3), (17, 1), (18, 13), (31, 6), (37, 4),
  (41, 4), (45, 1), (46, 9), (55, 1), (56, 8), (64, 5), (69, 1), (70, 1),
  (71, 23), (94, 3), (97, 2), (99, 10), (109, 1), (110, 6), (116, 12),
  (128, 1), (129, 9), (138, 9), (147, 4), (151, 1), (152, 19), (171, 10),
  (181, 8), (189, 11)],
 [(0, 5)], [(0, 11), (11, 17), (28, 2)],
 [(0, 1), (1, 6), (7, 1), (8, 4), (12, 7), (19, 1), (20, 10)]]


class TestGroupOfOneSeams:
    """A solo run is a fused group of one, at every layer below the engine."""

    @pytest.mark.parametrize("name", ["ranking-cube", "fragments",
                                      "signature-cube"])
    def test_run_equals_batch_of_one(self, relation, name):
        function = LinearFunction(["N1", "N2"], [1.0, 2.0])
        queries = shared_function_batch(function)
        queries.append(TopKQuery(Predicate.of(A1=2, A2=99), function, 3))
        # Twin stacks: both doors see the same buffer-pool history.
        run_door, batch_door = (
            paper_stack(relation, block_size=120,
                        include_fragments=True).registry.get(name)
            for _ in range(2))
        assert run_door.supports_fusion
        for query in queries:
            alone = dataclasses.replace(run_door.run(query),
                                        elapsed_seconds=0.0)
            [batched] = batch_door.execute_batch([query])
            assert alone == dataclasses.replace(batched, elapsed_seconds=0.0)
            assert "tuples_evaluated" not in alone.extra

    def test_streamed_frames_are_the_pinned_frames(self, relation):
        cube = RankingCube(relation, block_size=40)
        recorded = []
        for query in stream_queries():
            frames = []
            result = cube.query(query, on_progress=lambda start, pairs:
                                frames.append((start, list(pairs))))
            assert result.tids == cube.query(query).tids
            streamed = [pair for _, pairs in frames for pair in pairs]
            assert [start for start, _ in frames] == [
                sum(len(pairs) for _, pairs in frames[:i])
                for i in range(len(frames))]
            assert streamed == list(zip(result.tids, result.scores))[
                :len(streamed)]
            recorded.append([(start, len(pairs)) for start, pairs in frames])
        assert recorded == PINNED_FRAMES


class TestScatterBatchFusion:
    def make(self, relation, num_shards=3):
        return make_sharded_engine(relation, num_shards, range_dim="A1",
                                   block_size=80,
                                   with_signature=False, with_skyline=False)

    def test_gathered_batch_matches_loop(self, relation):
        _, loop_engine = self.make(relation)
        _, fused_engine = self.make(relation)
        function = sum_function(["N1", "N2"])
        queries = shared_function_batch(function)
        looped = [loop_engine.execute(query) for query in queries]
        fused = fused_engine.execute_many(queries)
        for alone, batched in zip(looped, fused):
            assert alone.tids == batched.tids
            assert alone.scores == batched.scores
            assert batched.extra["fused_group_size"] == float(len(queries))
            assert "tuples_evaluated" in batched.extra
            # Prune decisions stay per query in the fused scatter.
            assert (batched.extra["shards_consulted"]
                    == alone.extra["shards_consulted"])
            assert (batched.extra["shards_pruned"]
                    == alone.extra["shards_pruned"])
        assert (sum(r.tuples_evaluated for r in fused)
                <= sum(r.tuples_evaluated for r in looped))

    def test_sequential_batch_keeps_skip_bound(self, relation):
        # Range-sharded on A1 and queried with the empty predicate: legs
        # run in score-floor order and late shards can be skipped per
        # query once its k-th score beats their floor.
        _, engine = self.make(relation, num_shards=4)
        function = sum_function(["N1", "N2"])
        queries = [TopKQuery(Predicate.of(), function, k) for k in (1, 2)]
        fused = engine.execute_many(queries)
        solo_engine = Executor.for_relation(relation, block_size=80,
                                            with_signature=False,
                                            with_skyline=False)
        for query, batched in zip(queries, fused):
            alone = solo_engine.execute(query)
            assert alone.tids == batched.tids
            assert alone.scores == batched.scores

    def test_batch_repeats_hit_the_result_cache(self, relation):
        _, engine = self.make(relation)
        query = TopKQuery(Predicate.of(A1=1), sum_function(["N1", "N2"]), 5)
        results = engine.execute_many([query, query, query])
        assert results[0].extra["result_cache"] == "miss"
        assert results[1].extra["result_cache"] == "hit"
        assert results[2].extra["result_cache"] == "hit"
        assert results[0].tids == results[1].tids == results[2].tids
        # Each repeat is a copy of the first arrival's answer, with its
        # own ``extra``; the cache was not asked for it.
        assert results[1].extra is not results[0].extra
        assert engine.metrics_snapshot()["shard.result_hits"] == 0.0


class TestPredicateAwareInvalidation:
    def entry_keys(self):
        function = sum_function(["N1", "N2"])
        return {name: query_cache_key(query) for name, query in {
            "match": TopKQuery(Predicate.of(A1=1), function, 5),
            "other_value": TopKQuery(Predicate.of(A1=2), function, 5),
            "other_dim": TopKQuery(Predicate.of(A2=9), function, 5),
            "empty": TopKQuery(Predicate.of(), function, 5),
            "skyline_match": SkylineQuery(Predicate.of(A1=1), ("N1", "N2")),
            "skyline_other": SkylineQuery(Predicate.of(A1=3), ("N1", "N2")),
        }.items()}

    def fill(self, cache):
        from repro.query import QueryResult

        for key in self.entry_keys().values():
            cache.store(key, QueryResult(tids=(), scores=()))  # recorded
            cache.store(key, QueryResult(tids=(), scores=()))

    def test_row_aware_drop_keeps_provably_unaffected_entries(self):
        cache = ResultCache()
        keys = self.entry_keys()
        self.fill(cache)
        cache.invalidate(row={"A1": 1, "A2": 0, "N1": 0.5, "N2": 0.5})
        # Entries whose predicate the row satisfies (or may satisfy) drop…
        assert cache.get(keys["match"]) is None
        assert cache.get(keys["empty"]) is None
        assert cache.get(keys["skyline_match"]) is None
        # …while provably unaffected entries survive.
        assert cache.get(keys["other_value"]) is not None
        assert cache.get(keys["other_dim"]) is not None
        assert cache.get(keys["skyline_other"]) is not None
        assert cache.invalidations == 1

    def test_blanket_invalidate_still_clears_everything(self):
        cache = ResultCache()
        self.fill(cache)
        cache.invalidate()
        assert len(cache) == 0

    def test_write_traffic_keeps_unaffected_entries_hot(self):
        # A private relation: the insert below mutates it.
        mutable = generate_relation(SyntheticSpec(
            num_tuples=900, num_selection_dims=3, num_ranking_dims=2,
            cardinality=6, seed=72))
        manager, engine = make_sharded_engine(
            mutable, 3, range_dim="A1", block_size=80,
            with_signature=False, with_skyline=False)
        function = sum_function(["N1", "N2"])
        hot = TopKQuery(Predicate.of(A1=4), function, 5)
        cold = TopKQuery(Predicate.of(A1=1), function, 5)
        broad = TopKQuery(Predicate.of(), function, 5)
        engine.execute_many([hot, cold, broad])  # first arrivals: recorded
        engine.execute_many([hot, cold, broad])
        hits_before = engine.metrics_snapshot()["shard.result_hits"]

        manager.insert({"A1": 1, "A2": 0, "A3": 0, "N1": -1.0, "N2": -1.0})

        # The untouched predicate still hits; the matching predicate and
        # the match-everything empty predicate re-execute.
        assert engine.execute(hot).extra["result_cache"] == "hit"
        assert engine.metrics_snapshot()["shard.result_hits"] == \
            hits_before + 1
        cold_result = engine.execute(cold)
        assert cold_result.extra["result_cache"] == "miss"
        broad_result = engine.execute(broad)
        assert broad_result.extra["result_cache"] == "miss"
        # And the re-executed answers see the new global best row.
        new_tid = mutable.num_tuples - 1
        assert cold_result.tids[0] == new_tid
        assert broad_result.tids[0] == new_tid

    def test_reshard_clears_everything(self, relation):
        from repro.shard import HashShardingPolicy

        manager, engine = make_sharded_engine(
            relation, 3, range_dim="A1", block_size=80,
            with_signature=False, with_skyline=False)
        queries = [TopKQuery(Predicate.of(A1=value),
                             sum_function(["N1", "N2"]), 4)
                   for value in range(3)]
        engine.execute_many(queries)  # the first arrivals are only recorded
        engine.execute_many(queries)
        assert engine.metrics_snapshot()["shard.result_entries"] == 3.0
        manager.reshard(HashShardingPolicy(2))
        assert engine.metrics_snapshot()["shard.result_entries"] == 0.0


class TestCostModelConstants:
    def test_override_constants(self):
        default = CostModel.block_touch_cost
        model = CostModel(block_touch_cost=12.5, row_filter_cost=0.05)
        assert model.block_touch_cost == 12.5
        assert model.row_filter_cost == 0.05
        # Class defaults are untouched.
        assert CostModel.block_touch_cost == default
        assert CostModel().block_touch_cost == default

    def test_unknown_constant_fails_loudly(self):
        with pytest.raises(ValueError, match="unknown cost constant"):
            CostModel(block_tuch_cost=3.0)

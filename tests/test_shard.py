"""Tests for the sharded execution subsystem: policies, stats, scatter/gather.

The heart is the parity suite: the sharded engine must return *identical*
answers (same ids, same scores, same order after tie-break) to the
unsharded engine for top-k and skyline queries, across policies, shard
counts, and predicates that prune no, some, and all shards.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage.table_scan import TableScanTopK
from repro.engine import CostModel, Executor
from repro.engine.backends import RankingCubeBackend
from repro.errors import PlanningError
from repro.functions import LinearFunction
from repro.functions.linear import sum_function
from repro.query import Predicate, SkylineQuery, TopKQuery, topk_order_key
from repro.shard import (
    HashShardingPolicy,
    RangeShardingPolicy,
    ScatterGatherExecutor,
    ShardManager,
)
from repro.shard.stats import ShardStatistics
from repro.storage.table import Relation, Schema
from repro.workloads import (
    QuerySpec,
    SyntheticSpec,
    generate_queries,
    generate_relation,
    make_sharded_engine,
    pruned_predicate_queries,
)
from tests.conftest import brute_force_topk, paper_stack

SHARD_COUNTS = (1, 2, 7)
POLICY_KINDS = ("hash", "range-width", "range-depth")


def make_policy(kind: str, relation: Relation, num_shards: int):
    if kind == "hash":
        return HashShardingPolicy(num_shards)
    mode = "width" if kind == "range-width" else "depth"
    return RangeShardingPolicy(relation, "A1", num_shards, mode=mode)


@pytest.fixture(scope="module")
def relation():
    return generate_relation(SyntheticSpec(num_tuples=1500, num_selection_dims=3,
                                           num_ranking_dims=2, cardinality=6,
                                           seed=77))


@pytest.fixture(scope="module")
def unsharded(relation):
    return Executor.for_relation(relation, block_size=100)


def build_engine(relation, kind: str, num_shards: int,
                 cost_model=None) -> ScatterGatherExecutor:
    policy = make_policy(kind, relation, num_shards)
    manager = ShardManager(relation, policy, block_size=60,
                           cost_model=cost_model)
    return ScatterGatherExecutor(manager)


def _paper_stack(relation):
    """A shard stack holding the paper's signature cube and BBS, neither of
    which absorbs an insert."""
    return paper_stack(relation, block_size=50)


class TestParity:
    """Sharded answers are bit-identical to the unsharded engine."""

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_topk_parity(self, relation, unsharded, kind, num_shards):
        engine = build_engine(relation, kind, num_shards)
        queries = generate_queries(
            relation, QuerySpec(k=10, num_selection_conditions=1,
                                num_ranking_dims=2, skewness=2.0, seed=3),
            count=3)
        # Predicates pruning zero shards (empty), some shards (A1 pinned),
        # and all shards (value absent from the data).
        queries.append(TopKQuery(Predicate.of(),
                                 sum_function(["N1", "N2"]), 12))
        queries.append(TopKQuery(Predicate.of(A1=2, A3=1),
                                 LinearFunction(["N1", "N2"], [2.0, 1.0]), 7))
        queries.append(TopKQuery(Predicate.of(A1=999),
                                 sum_function(["N1", "N2"]), 5))
        for query in queries:
            expected = unsharded.execute(query)
            gathered = engine.execute(query)
            assert gathered.tids == expected.tids
            assert gathered.scores == expected.scores
            assert gathered.extra["backend"] == "scatter-gather"

    @pytest.mark.parametrize("kind", POLICY_KINDS)
    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_skyline_parity(self, relation, unsharded, kind, num_shards):
        engine = build_engine(relation, kind, num_shards)
        queries = [
            SkylineQuery(Predicate.of(), ("N1", "N2")),
            SkylineQuery(Predicate.of(A1=3), ("N1", "N2")),
            SkylineQuery(Predicate.of(A1=1, A2=2), ("N1", "N2")),
            SkylineQuery(Predicate.of(A1=999), ("N1", "N2")),
            SkylineQuery(Predicate.of(A2=4), ("N1", "N2"), targets=(0.4, 0.6)),
        ]
        for query in queries:
            expected = unsharded.execute(query)
            gathered = engine.execute(query)
            assert gathered.tids == expected.tids

    def test_tie_break_is_stable_across_sharding(self):
        # Quantized ranking values force score ties spanning shards; the
        # canonical (score, tid) order must decide the k-th place the same
        # way sharded and unsharded.
        schema = Schema(("A",), ("X", "Y"))
        rows = [{"A": i % 2, "X": (i % 3) * 0.25, "Y": ((i + 1) % 3) * 0.25}
                for i in range(60)]
        relation = Relation.from_rows(schema, rows, name="ties")
        unsharded = Executor.for_relation(relation, block_size=8)
        query = TopKQuery(Predicate.of(A=0), sum_function(["X", "Y"]), 7)
        expected = unsharded.execute(query)
        for num_shards in (2, 3):
            engine = build_engine(relation, "hash", num_shards)
            gathered = engine.execute(query)
            assert gathered.tids == expected.tids
            assert gathered.scores == expected.scores
        keys = [topk_order_key(tid, score) for tid, score in expected.as_pairs()]
        assert keys == sorted(keys)


class TestPruning:
    """Shard pruning is observable and exact."""

    def test_point_predicate_consults_exactly_one_range_shard(self, relation):
        # Cardinality 6 over 6 width-shards: each A1 value owns one shard.
        engine = build_engine(relation, "range-width", 6)
        for value in range(6):
            query = TopKQuery(Predicate.of(A1=value), sum_function(["N1", "N2"]), 5)
            result = engine.execute(query)
            consulted = result.extra["shards_consulted"].split(",")
            assert len(consulted) == 1, (value, result.extra)
            shard = engine.manager.shards[int(consulted[0])]
            assert value in shard.stats.selection_values["A1"]

    def test_pruned_workload_scores_fewer_tuples_than_the_scan(self):
        """The shard-scaling gate at its benchmark size, in counts: one
        query per A1 value over 4 range shards consults one shard each
        (12 of 48 scatter slots) and scores fewer tuples than the
        unsharded scan every method must beat."""
        big = generate_relation(SyntheticSpec(
            num_tuples=12000, num_selection_dims=3, num_ranking_dims=2,
            cardinality=12, seed=42))
        queries = pruned_predicate_queries(big, "A1", k=10)
        scanned = [TableScanTopK(big).query(query) for query in queries]
        _, engine = make_sharded_engine(big, 4, range_dim="A1", block_size=200,
                                        with_signature=False,
                                        with_skyline=False,
                                        cost_model=CostModel(**CostModel.PAPER))
        sharded = [engine.execute(query) for query in queries]
        assert ([result.tids for result in sharded]
                == [result.tids for result in scanned])
        consulted = [result.extra["shards_consulted"].split(",")
                     for result in sharded]
        assert len(queries) == 12
        assert sum(map(len, consulted)) == 12
        assert (sum(result.tuples_evaluated for result in sharded)
                < sum(result.tuples_evaluated for result in scanned))

    def test_plan_reports_scatter_set_and_backends(self, relation):
        engine = build_engine(relation, "range-width", 3,
                              cost_model=CostModel(**CostModel.PAPER))
        query = TopKQuery(Predicate.of(A1=0), sum_function(["N1", "N2"]), 5)
        plan = engine.plan(query)
        assert plan.backend == "scatter-gather"
        assert plan.details["shards_total"] == 3
        assert plan.details["shards_consulted"] == "0"
        assert "outside shard values" in plan.details["shards_pruned"]
        assert plan.details["shard_backends"] == "0:ranking-cube"
        assert "scatter" in engine.explain(query)

    def test_all_shards_pruned_yields_empty_result(self, relation):
        engine = build_engine(relation, "range-width", 3)
        result = engine.execute(TopKQuery(Predicate.of(A1=999),
                                          sum_function(["N1", "N2"]), 5))
        assert result.tids == ()
        assert result.extra["shards_consulted"] == "-"
        skyline = engine.execute(SkylineQuery(Predicate.of(A1=999), ("N1", "N2")))
        assert skyline.tids == ()

    def test_empty_predicate_consults_every_nonempty_shard(self, relation):
        engine = build_engine(relation, "hash", 4)
        result = engine.execute(TopKQuery(Predicate.of(),
                                          sum_function(["N1", "N2"]), 5))
        assert result.extra["shards_consulted"] == "0,1,2,3"

    def test_every_result_reports_scatter_extras(self, relation):
        engine = build_engine(relation, "hash", 2)
        for query in (TopKQuery(Predicate.of(A1=1), sum_function(["N1", "N2"]), 4),
                      SkylineQuery(Predicate.of(A1=1), ("N1", "N2"))):
            result = engine.execute(query)
            for key in ("shards_consulted", "shards_pruned", "shard_backends",
                        "plan", "backend", "policy"):
                assert key in result.extra, key

    def test_join_queries_are_rejected(self, relation):
        engine = build_engine(relation, "hash", 2)
        with pytest.raises(PlanningError):
            engine.execute(object())


class TestStatsAndPolicies:
    def test_a_bad_shard_stack_keyword_fails_at_construction(self, relation):
        # Shard stacks are built lazily, so an unchecked keyword would
        # surface only inside the first served query.
        with pytest.raises(TypeError, match="'with_signatur'"):
            make_sharded_engine(relation, 2, with_signatur=False)
        with pytest.raises(TypeError, match="'parallel'"):
            make_sharded_engine(relation, 2, parallel=True)
        with pytest.raises(TypeError, match="'block_sise'"):
            ShardManager(relation, HashShardingPolicy(2), block_sise=60)
        manager = ShardManager(relation, HashShardingPolicy(2), block_size=60,
                               with_skyline=False)
        assert manager.executor_for(manager.shards[0])

    def test_statistics_summarize_shard(self, relation):
        stats = ShardStatistics.of(0, relation)
        assert stats.num_tuples == relation.num_tuples
        assert stats.selection_cardinalities["A1"] == 6
        low, high = stats.ranking_ranges["N1"]
        assert 0.0 <= low <= high <= 1.0
        ok, reason = stats.can_match(Predicate.of(A1=0))
        assert ok and reason is None
        ok, reason = stats.can_match(Predicate.of(A1=17))
        assert not ok and "A1=17" in reason

    def test_hash_policy_covers_all_rows(self, relation):
        policy = HashShardingPolicy(4)
        assignment = policy.assign(relation)
        assert assignment.shape == (relation.num_tuples,)
        assert set(np.unique(assignment)) <= set(range(4))
        # Roughly uniform: no shard is empty at this size.
        assert all((assignment == i).sum() > 0 for i in range(4))

    def test_range_policy_partitions_by_value(self, relation):
        policy = RangeShardingPolicy(relation, "A1", 3, mode="width")
        assignment = policy.assign(relation)
        column = relation.selection_column("A1")
        for index in range(3):
            low, high = policy.boundaries[index], policy.boundaries[index + 1]
            values = column[assignment == index]
            if values.size:
                assert values.min() >= low - 1e-9
                assert values.max() <= high + 1e-9

    def test_single_shard_holds_everything(self, relation):
        manager = ShardManager(relation, HashShardingPolicy(1),
                               block_size=60)
        assert manager.num_shards == 1
        assert manager.shards[0].relation.num_tuples == relation.num_tuples
        assert np.array_equal(manager.shards[0].tid_map,
                              np.arange(relation.num_tuples))

    def test_invalid_policies_rejected(self, relation):
        with pytest.raises(PlanningError):
            HashShardingPolicy(0)
        with pytest.raises(PlanningError):
            RangeShardingPolicy(relation, "A1", 2, mode="zigzag")
        with pytest.raises(PlanningError):
            RangeShardingPolicy(relation, "nope", 2)

    def test_out_of_range_assignment_rejected(self, relation):
        class LossyPolicy(HashShardingPolicy):
            def assign(self, rel):
                assignment = super().assign(rel)
                assignment[0] = self.num_shards  # would silently drop row 0
                return assignment

        with pytest.raises(PlanningError):
            ShardManager(relation, LossyPolicy(3))


class TestMutation:
    def _fresh(self, num_tuples=400):
        base = generate_relation(SyntheticSpec(num_tuples=num_tuples,
                                               num_selection_dims=2,
                                               num_ranking_dims=2,
                                               cardinality=4, seed=21))
        manager = ShardManager(base, RangeShardingPolicy(base, "A1", 4),
                               block_size=50)
        return base, manager, ScatterGatherExecutor(manager)

    def test_insert_routes_to_owning_shard_and_stays_correct(self):
        base, manager, engine = self._fresh()
        query = TopKQuery(Predicate.of(A1=2), sum_function(["N1", "N2"]), 5)
        engine.execute(query)
        row = {"A1": 2, "A2": 1, "N1": 0.0, "N2": 0.0}  # new global best
        global_tid = manager.insert(row)
        assert global_tid == base.num_tuples - 1
        owner = manager.policy.shard_for_row(base, row, global_tid)
        assert global_tid in manager.shards[owner].tid_map
        result = engine.execute(query)
        assert result.tids[0] == global_tid  # not a stale cached answer
        fresh = Executor.for_relation(base, block_size=50)
        expected = fresh.execute(query)
        assert result.tids == expected.tids
        assert result.scores == expected.scores

    def test_insert_invalidates_result_caches(self):
        _, manager, engine = self._fresh()
        query = TopKQuery(Predicate.of(A1=1), sum_function(["N1", "N2"]), 3)
        engine.execute(query)  # the first arrival is only recorded
        engine.execute(query)
        engine.execute(query)
        assert engine.metrics_snapshot()["shard.result_hits"] == 1.0
        manager.insert({"A1": 1, "A2": 0, "N1": 0.5, "N2": 0.5})
        stats = engine.metrics_snapshot()
        assert stats["shard.result_entries"] == 0.0
        assert stats["shard.result_invalidations"] >= 1.0

    def test_direct_base_append_fails_loudly(self):
        base, manager, engine = self._fresh(num_tuples=200)
        query = TopKQuery(Predicate.of(A1=1), sum_function(["N1", "N2"]), 3)
        engine.execute(query)
        # Bypassing the manager desynchronizes the shards; serving answers
        # that silently miss the new row would be wrong, so execute raises.
        base.append({"A1": 1, "A2": 0, "N1": 0.0, "N2": 0.0})
        with pytest.raises(PlanningError):
            engine.execute(query)
        # The desync persists, so every later query keeps failing loudly
        # rather than silently serving answers missing the new row.
        with pytest.raises(PlanningError):
            engine.execute(query)
        manager.insert({"A1": 1, "A2": 0, "N1": 0.0, "N2": 0.0})
        with pytest.raises(PlanningError):  # base still has 1 uncovered row
            engine.execute(query)
        # reshard() re-splits from the base relation and recovers.
        manager.reshard(manager.policy)
        result = engine.execute(query)
        fresh = Executor.for_relation(base, block_size=50)
        assert result.tids == fresh.execute(query).tids

    def test_incremental_stats_match_recomputation(self):
        _, manager, _ = self._fresh(num_tuples=300)
        for value in (0, 3, 3):
            manager.insert({"A1": value, "A2": 2, "N1": 1.5, "N2": -0.5})
        for shard in manager.shards:
            expected = ShardStatistics.of(shard.index, shard.relation)
            assert shard.stats.num_tuples == expected.num_tuples
            assert shard.stats.selection_values == expected.selection_values
            assert (shard.stats.selection_cardinalities
                    == expected.selection_cardinalities)
            assert shard.stats.ranking_ranges == expected.ranking_ranges

    def test_reshard_replaces_policy_and_keeps_answers(self):
        base, manager, engine = self._fresh()
        query = TopKQuery(Predicate.of(A2=1), sum_function(["N1", "N2"]), 6)
        before = engine.execute(query)
        manager.reshard(HashShardingPolicy(3))
        assert manager.num_shards == 3
        after = engine.execute(query)
        assert after.tids == before.tids
        assert after.scores == before.scores
        assert after.extra["policy"] == "hash(3)"


class TestCostOrderedScatter:
    """Scatter legs run most-promising-first; hopeless legs are skipped."""

    def _stratified(self, num_rows=240):
        # A-value strata with disjoint ranking ranges: shard s of a range
        # split on A holds scores in [s/3, s/3 + 0.25), so after the first
        # (most promising) leg the k-th score provably beats the others.
        schema = Schema(("A",), ("X", "Y"))
        rows = []
        for i in range(num_rows):
            stratum = i % 3
            low = stratum / 3.0
            rows.append({"A": stratum,
                         "X": low + (i % 40) * 0.003,
                         "Y": low + ((i + 13) % 40) * 0.003})
        relation = Relation.from_rows(schema, rows, name="strata")
        manager = ShardManager(relation, RangeShardingPolicy(relation, "A", 3),
                               block_size=30,
                               with_signature=False, with_skyline=False)
        return relation, manager, ScatterGatherExecutor(manager)

    def test_legs_ordered_by_score_floor(self):
        _, _, engine = self._stratified()
        query = TopKQuery(Predicate.of(), sum_function(["X", "Y"]), 5)
        plan = engine.plan(query)
        assert plan.details["scatter_order"] == "0,1,2"
        result = engine.execute(query)
        assert result.extra["scatter_order"] == "0,1,2"

    def test_shard_executor_reuses_shard_statistics(self, relation):
        # The shard layer already profiled each sub-relation; the stack's
        # cost planner must consume that profile, not re-scan the columns.
        engine = build_engine(relation, "range-width", 3)
        engine.execute(TopKQuery(Predicate.of(), sum_function(["N1", "N2"]), 5))
        seeded = 0
        for shard in engine.manager.shards:
            executor = engine.manager._executors.get(shard.index)
            if executor is None:
                continue
            assert executor.statistics.of(shard.relation) is shard.stats
            seeded += 1
        assert seeded > 0

    @staticmethod
    def _insert_into_built_stacks(**stack):
        """Four built range-shard stacks and a row for one of them; ``stack``
        is ``ShardManager``'s keywords."""
        base = generate_relation(SyntheticSpec(num_tuples=400,
                                               num_selection_dims=2,
                                               num_ranking_dims=2,
                                               cardinality=4, seed=21))
        manager = ShardManager(base, RangeShardingPolicy(base, "A1", 4),
                               block_size=50, **stack)
        engine = ScatterGatherExecutor(manager)
        query = TopKQuery(Predicate.of(), sum_function(["N1", "N2"]), 5)
        engine.execute(query)
        before = manager.built_executors()
        assert len(before) == 4
        row = {"A1": 0, "A2": 1, "N1": 0.2, "N2": 0.2}
        owner = manager.policy.shard_for_row(base, row, base.num_tuples)
        return manager, engine, query, before, owner, row

    def test_insert_is_absorbed_by_the_owners_grid_stack(self):
        manager, engine, query, before, owner, row = (
            self._insert_into_built_stacks(with_signature=False,
                                           with_skyline=False))
        cube = before[owner].registry.get("ranking-cube").cube
        pagers = (cube.pager, cube.block_table.pager)
        writes = sum(pager.stats.writes for pager in pagers)
        tid = manager.insert(row)
        # Every stack survives, the owner's included — same Executor, same
        # cube, one page write per structure.
        after = manager.built_executors()
        assert all(after[index] is before[index] for index in range(4))
        assert after[owner].registry.get("ranking-cube").cube is cube
        assert (sum(pager.stats.writes for pager in pagers) - writes
                == 1 + cube.num_cuboids())
        for shard in manager.shards:
            # Seeded profiles are served as-is (no re-scan) and exact.
            assert after[shard.index].statistics.of(
                shard.relation) is shard.stats
            assert shard.stats == ShardStatistics.of(shard.index,
                                                     shard.relation)
        result = engine.execute(query)
        assert result.extra["result_cache"] == "miss"
        expected = brute_force_topk(manager.relation, query)
        assert (result.tids, result.scores) == expected
        assert tid == 400

    def test_insert_drops_an_owner_stack_that_cannot_absorb_it(self):
        manager, engine, query, before, owner, row = (
            self._insert_into_built_stacks(executor_factory=_paper_stack))
        manager.insert(row)
        after = manager.built_executors()
        assert sorted(after) == [i for i in range(4) if i != owner]
        for shard in manager.shards:
            if shard.index != owner:
                # Untouched shards keep their stack and their exact profile.
                assert after[shard.index] is before[shard.index]
                assert after[shard.index].statistics.of(
                    shard.relation) is shard.stats
        result = engine.execute(query)
        assert (result.tids, result.scores) == brute_force_topk(
            manager.relation, query)
        rebuilt = manager.built_executors()[owner]
        assert rebuilt is not before[owner]
        cube = rebuilt.registry.get("ranking-cube").cube
        assert cube.num_rows == manager.shards[owner].relation.num_tuples

    def test_a_full_stack_is_dropped_before_its_grid_writes(self,
                                                            monkeypatch):
        manager, engine, query, _, owner, row = (
            self._insert_into_built_stacks(executor_factory=_paper_stack))
        writes = []
        monkeypatch.setattr(RankingCubeBackend, "insert",
                            lambda backend, tid, row: writes.append(tid))
        for step in range(3):
            # Each insert drops the owner's rebuilt full stack unwritten.
            manager.insert({**row, "N1": 0.05 * step})
            assert owner not in manager.built_executors()
            result = engine.execute(query)
            assert (result.tids, result.scores) == brute_force_topk(
                manager.relation, query)
        assert writes == []

    def test_gathered_plan_reports_cost_mode(self):
        # Every per-shard planner runs cost-based by default, and explain
        # must say so rather than defaulting to the static label.
        _, _, engine = self._stratified()
        query = TopKQuery(Predicate.of(), sum_function(["X", "Y"]), 5)
        assert engine.plan(query).mode == "cost"
        assert "mode=cost" in engine.explain(query)

    def test_hopeless_legs_skipped_and_answers_identical(self):
        relation, _, engine = self._stratified()
        unsharded = Executor.for_relation(relation, block_size=30,
                                          with_signature=False,
                                          with_skyline=False)
        query = TopKQuery(Predicate.of(), sum_function(["X", "Y"]), 5)
        expected = unsharded.execute(query)
        result = engine.execute(query)
        assert result.tids == expected.tids
        assert result.scores == expected.scores
        # Shard 0's 80 rows fill the top-5 below every other shard's score
        # floor, so shards 1 and 2 are skipped without being executed.
        assert result.extra["shards_consulted"] == "0"
        skipped = result.extra["shards_skipped"]
        assert "1:score floor" in skipped and "2:score floor" in skipped
        assert result.tuples_evaluated <= 80

    def test_skip_never_fires_below_k_gathered(self):
        # k exceeds the whole relation: fewer than k candidates can ever be
        # gathered, so every leg must run even with hopeless floors.
        relation, _, engine = self._stratified()
        unsharded = Executor.for_relation(relation, block_size=30,
                                          with_signature=False,
                                          with_skyline=False)
        query = TopKQuery(Predicate.of(), sum_function(["X", "Y"]), 250)
        expected = unsharded.execute(query)
        result = engine.execute(query)
        assert result.tids == expected.tids
        assert result.scores == expected.scores
        assert result.extra["shards_consulted"] == "0,1,2"
        assert result.extra["shards_skipped"] == "-"

    def test_tied_floor_is_not_skipped(self):
        # Two shards with identical quantized values: the second shard's
        # floor exactly equals the gathered k-th score, so it must still
        # run (a tied tuple with a smaller tid could be admitted).
        schema = Schema(("A",), ("X", "Y"))
        rows = [{"A": i % 2, "X": 0.5, "Y": 0.5} for i in range(40)]
        relation = Relation.from_rows(schema, rows, name="tied")
        manager = ShardManager(relation, RangeShardingPolicy(relation, "A", 2),
                               block_size=10,
                               with_signature=False, with_skyline=False)
        engine = ScatterGatherExecutor(manager)
        unsharded = Executor.for_relation(relation, block_size=10,
                                          with_signature=False,
                                          with_skyline=False)
        query = TopKQuery(Predicate.of(), sum_function(["X", "Y"]), 5)
        expected = unsharded.execute(query)
        result = engine.execute(query)
        assert result.extra["shards_skipped"] == "-"
        assert result.extra["shards_consulted"] == "0,1"
        assert result.tids == expected.tids  # smallest tids win the tie


class TestBatchAndCache:
    def test_execute_many_and_result_cache(self, relation):
        _, engine = make_sharded_engine(relation, 3, range_dim="A1",
                                        block_size=60)
        queries = pruned_predicate_queries(relation, "A1", k=5)
        engine.execute_many(queries)  # the first arrivals are only recorded
        results = engine.execute_many(queries)
        assert len(results) == len(queries)
        assert all(r.extra["result_cache"] == "miss" for r in results)
        again = engine.execute_many(queries)
        assert all(r.extra["result_cache"] == "hit" for r in again)
        for first, second in zip(results, again):
            assert first.tids == second.tids
            assert first.scores == second.scores
        assert engine.metrics_snapshot()["shard.result_hits"] == float(
            len(queries))

    @pytest.mark.parametrize("num_shards", SHARD_COUNTS)
    def test_legs_never_fill_a_shard_result_cache(self, relation, num_shards):
        shared = LinearFunction(["N1", "N2"], [2.0, 1.0])
        queries = pruned_predicate_queries(relation, "A1", k=5,
                                           function=shared)
        queries += [TopKQuery(Predicate.of(), sum_function(["N1", "N2"]), 8),
                    SkylineQuery(Predicate.of(A2=1), ("N1", "N2"))]
        engine = build_engine(relation, "hash", num_shards)
        for query in queries[:2]:
            engine.execute(query)
        engine.execute_many(queries + queries[:3])
        engine.result_cache.invalidate()  # the next batch runs legs
        engine.execute_many(queries)
        built = engine.manager.built_executors()
        assert len(built) == num_shards
        for stats in [executor.metrics_snapshot()
                      for executor in built.values()] + [
                          engine.metrics_snapshot()]:  # summed over shards
            assert (stats["engine.result_entries"], stats["engine.result_hits"],
                    stats["engine.result_misses"]) == (0.0, 0.0, 0.0)

    def test_the_front_door_holds_one_entry_per_distinct_query(self,
                                                              relation):
        from repro.engine import query_cache_key

        engine = build_engine(relation, "hash", 2)
        queries = pruned_predicate_queries(relation, "A1", k=5)
        queries.append(SkylineQuery(Predicate.of(A2=1), ("N1", "N2")))
        batch = queries + [TopKQuery(query.predicate,
                                     sum_function(["N1", "N2"]), query.k)
                           for query in queries[:2]]  # value-equal repeats
        # The first arrivals are only recorded (a batch repeat is no
        # sighting).
        engine.execute_many(queries)
        first = engine.execute_many(batch)
        distinct = {query_cache_key(query) for query in batch}
        assert len(distinct) == len(queries)
        assert engine.metrics_snapshot()["shard.result_entries"] == len(queries)
        for query, result in zip(batch, first):
            again = engine.execute(query)
            assert again.extra["result_cache"] == "hit"
            assert again.tids == result.tids
            if isinstance(query, TopKQuery):
                assert again.scores == result.scores
        stats = engine.metrics_snapshot()
        assert stats["shard.result_entries"] == len(queries)
        # Batch repeats copy their first arrival's answer: no lookup hit.
        assert stats["shard.result_hits"] == len(batch)

    def test_equivalent_function_objects_share_cache_entries(self, relation):
        _, engine = make_sharded_engine(relation, 2, range_dim="A1",
                                        block_size=60)
        first = TopKQuery(Predicate.of(A1=1),
                          LinearFunction(["N1", "N2"], [1.0, 2.0]), 5)
        twin = TopKQuery(Predicate.of(A1=1),
                         LinearFunction(["N1", "N2"], [1.0, 2.0]), 5)
        engine.execute(first)  # the first arrival is only recorded
        engine.execute(first)
        result = engine.execute(twin)
        assert result.extra["result_cache"] == "hit"

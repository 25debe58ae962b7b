"""The scatter's per-batch bookkeeping: the array gather, lazy plans, one
score floor per group.

* ``_gather_topk`` sorts the mapped per-shard answers once; it must equal
  the k-way ``heapq.merge`` of the canonical ``(score, tid)`` streams it
  replaced (kept here as the reference), signed zeros and cross-shard
  ties included.
* A result's ``extra["plan"]`` is the plan object; nothing renders it
  until it is read, so scatter legs render nothing, while ``result.plan``
  and the wire carry exactly the text they always did.
* Leg order and the k-th-score skip read one score floor per
  (group, shard); on a stack range-sharded on a ranking dimension the
  skip fires, and the planned order, the executed order and every skip
  reason are pinned.
"""

from __future__ import annotations

import heapq
import struct
from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Executor
from repro.engine.cost import CostModel
from repro.engine.plan import QueryPlan
from repro.functions import SquaredDistanceFunction
from repro.functions.linear import sum_function
from repro.net.protocol import encode_result
from repro.obs.trace import NULL_SPAN
from repro.query import Predicate, QueryResult, SkylineQuery, TopKQuery, topk_order_key
from repro.shard import (
    HashShardingPolicy,
    ProcessScatterExecutor,
    RangeShardingPolicy,
    ScatterGatherExecutor,
    ShardManager,
)
from repro.workloads import SyntheticSpec, generate_relation


@pytest.fixture(scope="module")
def relation():
    return generate_relation(SyntheticSpec(num_tuples=1500, num_selection_dims=3,
                                           num_ranking_dims=2, cardinality=6,
                                           seed=77))


#: A sum (shard floors ascend with the shard index) and a distance to a
#: point inside shard 2's ``N1`` range (the floors put shard 2 first).
FUNCTIONS = (sum_function(["N1", "N2"]),
             SquaredDistanceFunction(["N1", "N2"], [0.6, 0.3]))


def corpus():
    """18 top-k queries over two functions: three k, three predicates."""
    return [TopKQuery(Predicate.of(conditions), function, k)
            for function in FUNCTIONS
            for k in (1, 5, 40)
            for conditions in ({}, {"A1": 2}, {"A2": 1, "A3": 4})]


def ranked_engine(relation, parallel=False):
    """Four shards ranged on the ranking dimension ``N1``: disjoint score
    ranges per shard, so the k-th-score skip fires."""
    manager = ShardManager(relation, RangeShardingPolicy(relation, "N1", 4),
                           block_size=60, with_signature=False,
                           with_skyline=False)
    return ScatterGatherExecutor(manager, parallel=parallel)


def bits(scores):
    return [struct.pack("<d", score) for score in scores]


# ----------------------------------------------------------------------
# the gather
# ----------------------------------------------------------------------
def merged_reference(k, shards, results):
    """The k-way merge ``_gather_topk`` replaced."""
    streams = [[topk_order_key(int(shard.tid_map[local]), score)
                for local, score in zip(result.tids, result.scores)]
               for shard, result in zip(shards, results)]
    top = list(islice(heapq.merge(*streams), k))
    return tuple(tid for _, tid in top), tuple(score for score, _ in top)


SCORES = st.one_of(st.sampled_from((-1.5, -0.0, 0.0, 0.25, 1.0)),
                   st.floats(-10.0, 10.0, allow_nan=False))


@st.composite
def shard_answers(draw):
    """Disjoint shards over interleaved global tids, each answering a
    subset of its rows in canonical order; some answer nothing."""
    num_shards = draw(st.sampled_from((1, 2, 7)))
    total = draw(st.integers(0, 40))
    rows = draw(st.lists(st.tuples(st.integers(0, num_shards - 1), SCORES,
                                   st.booleans()),
                         min_size=total, max_size=total))
    shards, results = [], []
    for index in range(num_shards):
        owned = [(tid, score, answered)
                 for tid, (owner, score, answered) in enumerate(rows)
                 if owner == index]
        shards.append(SimpleNamespace(
            tid_map=np.array([tid for tid, _, _ in owned], dtype=np.int64)))
        answer = sorted((score, local)
                        for local, (_, score, answered) in enumerate(owned)
                        if answered)
        results.append(QueryResult(tids=tuple(local for _, local in answer),
                                   scores=tuple(score for score, _ in answer)))
    k = draw(st.integers(1, total + 5))
    return k, shards, results


@pytest.fixture(scope="module")
def gatherer(relation):
    return ScatterGatherExecutor(ShardManager(relation, HashShardingPolicy(1)))


@settings(max_examples=300, deadline=None)
@given(shard_answers())
def test_the_gather_is_the_k_way_merge(gatherer, case):
    k, shards, results = case
    gathered = gatherer._gather_topk(SimpleNamespace(k=k), shards, results)
    tids, scores = merged_reference(k, shards, results)
    assert gathered.tids == tids
    assert bits(gathered.scores) == bits(scores)
    assert set(map(type, gathered.tids)) <= {int}
    assert set(map(type, gathered.scores)) <= {float}


def test_a_cross_shard_tie_of_signed_zeros_breaks_by_global_tid(gatherer):
    shards = [SimpleNamespace(tid_map=np.array([1, 4], dtype=np.int64)),
              SimpleNamespace(tid_map=np.array([0, 3], dtype=np.int64))]
    results = [QueryResult(tids=(0, 1), scores=(-0.0, 0.0)),
               QueryResult(tids=(0, 1), scores=(0.0, -0.0))]
    gathered = gatherer._gather_topk(SimpleNamespace(k=3), shards, results)
    assert gathered.tids == (0, 1, 3)
    assert bits(gathered.scores) == bits((0.0, -0.0, -0.0))


def test_a_one_shard_gather_is_the_mapped_answer(gatherer):
    shard = SimpleNamespace(tid_map=np.array([2, 5, 9, 11], dtype=np.int64))
    answer = QueryResult(tids=(3, 0, 2), scores=(0.5, 0.75, 0.75),
                         disk_accesses=4, tuples_evaluated=7)
    gathered = gatherer._gather_topk(SimpleNamespace(k=10), [shard], [answer])
    assert gathered.tids == (11, 2, 9)
    assert gathered.scores == (0.5, 0.75, 0.75)
    assert (gathered.disk_accesses, gathered.tuples_evaluated) == (4, 7)


def test_a_gather_over_no_shard_is_empty(gatherer):
    gathered = gatherer._gather_topk(SimpleNamespace(k=5), [], [])
    assert (gathered.tids, gathered.scores) == ((), ())


# ----------------------------------------------------------------------
# lazy plans
# ----------------------------------------------------------------------
@pytest.fixture()
def describe_calls(monkeypatch):
    """Count every :meth:`QueryPlan.describe` (``str()`` goes through it)."""
    calls = []
    describe = QueryPlan.describe

    def counted(plan):
        calls.append(plan.backend)
        return describe(plan)

    monkeypatch.setattr(QueryPlan, "describe", counted)
    return calls


#: ``encode_result(r)["extra"]["plan"]`` on the unsharded full stack,
#: as the wire carried it when every result rendered its plan eagerly.
WIRE_PLANS = {
    'topk-all': 'top-10 with a monotone function over predicate dims [none] routed to ranking-cube [backend=ranking-cube kind=topk mode=cost cost_estimates=ranking-cube:124.0|signature-cube:152.0|table-scan:1530.0 cost_inputs=access=grid block_size=100 covering_cuboids=1 expected_matches=1500 k=10 num_tuples=1500 selectivity=1 shape=monotone covering_cuboids=none (empty predicate) estimated_cost=124.0 function_shape=monotone k=10 losing_candidates=signature-cube:20,table-scan:90 predicate_dims=- candidates=ranking-cube|signature-cube|table-scan]',
    'topk-A1': 'top-5 with a semi_monotone function over predicate dims [A1] routed to ranking-cube [backend=ranking-cube kind=topk mode=cost cost_estimates=ranking-cube:40.7|signature-cube:181.3|table-scan:280.0 cost_inputs=access=grid block_size=100 covering_cuboids=1 expected_matches=250 k=5 num_tuples=1500 selectivity=0.166667 shape=semi_monotone covering_cuboids=A1 estimated_cost=40.667 function_shape=semi_monotone k=5 losing_candidates=signature-cube:20,table-scan:90 predicate_dims=A1 candidates=ranking-cube|signature-cube|table-scan]',
    'skyline': 'skyline over [N1, N2] routed to skyline [backend=skyline kind=skyline mode=cost cost_estimates=skyline:861.8|skyline-scan:2024.3 cost_inputs=access=rtree-skyline estimated_skyline_points=7.97728 expected_matches=250 fanout=16 num_tuples=1500 preference_dims=2 selectivity=0.166667 dynamic=False estimated_cost=861.819 losing_candidates=skyline-scan:90 predicate_dims=A1 preference_dims=N1,N2 signature_pruning=True candidates=skyline|skyline-scan]',
}


def wire_corpus():
    return {"topk-all": TopKQuery(Predicate.of(), FUNCTIONS[0], 10),
            "topk-A1": TopKQuery(Predicate.of(A1=2), FUNCTIONS[1], 5),
            "skyline": SkylineQuery(Predicate.of(A1=1), ("N1", "N2"))}


class TestLazyPlans:
    def test_scatter_legs_render_no_plan(self, relation, describe_calls):
        engine = ranked_engine(relation)
        results = engine.execute_many(corpus())
        assert describe_calls == []
        for result in results:
            assert result.plan.startswith("scatter to ")
        assert describe_calls == []

    def test_a_result_renders_what_explain_renders(self, relation):
        executor = Executor.for_relation(relation, block_size=100,
                                         rtree_max_entries=16)
        for query in wire_corpus().values():
            result = executor.execute(query, use_result_cache=False)
            assert isinstance(result.extra["plan"], QueryPlan)
            assert result.plan == executor.explain(query)
            assert str(result.extra["plan"]) == result.plan

    def test_the_wire_carries_the_same_plan_text(self, relation):
        executor = Executor.for_relation(relation, block_size=100,
                                         rtree_max_entries=16,
                                         cost_model=CostModel(**CostModel.PAPER))
        for name, query in wire_corpus().items():
            envelope = encode_result(executor.execute(query))
            assert envelope["extra"]["plan"] == WIRE_PLANS[name], name

    def test_process_legs_ship_the_plan_unrendered(self, relation):
        model = CostModel()
        model.process_leg_overhead = 0.0  # force worker processes
        queries = corpus()
        threaded = ranked_engine(relation).execute_many(queries)
        manager = ShardManager(relation, RangeShardingPolicy(relation, "N1", 4),
                               block_size=60, with_signature=False,
                               with_skyline=False)
        with ProcessScatterExecutor(manager, cost_model=model) as engine:
            results = engine.execute_many(queries)
            assert engine.metrics_snapshot()["shard.workers"] == 4.0
            # A worker's leg results come back pickled with the plan object,
            # not its rendering (a patched ``describe`` would not reach a
            # spawned worker, so the shipped value is the evidence).
            shipped = engine.legs.run(manager.shards[0], queries[:3], NULL_SPAN)
            assert engine.legs.mode(queries[:3]) == "processes"
            for result in shipped:
                assert isinstance(result.extra["plan"], QueryPlan)
                assert result.plan == str(result.extra["plan"])
        for mine, theirs in zip(results, threaded):
            assert mine.tids == theirs.tids
            assert bits(mine.scores) == bits(theirs.scores)
            assert mine.extra["scatter_mode"] == "processes"
            assert mine.extra["shards_skipped"] == theirs.extra["shards_skipped"]


# ----------------------------------------------------------------------
# one score floor per group
# ----------------------------------------------------------------------
#: ``(scatter_order, shards_skipped)`` of each :func:`corpus` query run
#: alone, then as a member of its fused group (``execute_many``).
SOLO_LEGS = [
    ('0,1,2,3', '1:score floor 0.25948 > k-th score 0.0525442|2:score floor 0.504812 > k-th score 0.0525442|3:score floor 0.752862 > k-th score 0.0525442'),
    ('0,1,2,3', '1:score floor 0.25948 > k-th score 0.0559228|2:score floor 0.504812 > k-th score 0.0559228|3:score floor 0.752862 > k-th score 0.0559228'),
    ('0,1,2,3', '2:score floor 0.504812 > k-th score 0.389308|3:score floor 0.752862 > k-th score 0.389308'),
    ('0,1,2,3', '1:score floor 0.25948 > k-th score 0.0687425|2:score floor 0.504812 > k-th score 0.0687425|3:score floor 0.752862 > k-th score 0.0687425'),
    ('0,1,2,3', '1:score floor 0.25948 > k-th score 0.184718|2:score floor 0.504812 > k-th score 0.184718|3:score floor 0.752862 > k-th score 0.184718'),
    ('0,1,2,3', '3:score floor 0.752862 > k-th score 0.588993'),
    ('0,1,2,3', '1:score floor 0.25948 > k-th score 0.237049|2:score floor 0.504812 > k-th score 0.237049|3:score floor 0.752862 > k-th score 0.237049'),
    ('0,1,2,3', '3:score floor 0.752862 > k-th score 0.54523'),
    ('0,1,2,3', '-'),
    ('2,1,3,0', '1:score floor 0.00992245 > k-th score 0.000164184|3:score floor 0.0225964 > k-th score 0.000164184|0:score floor 0.122227 > k-th score 0.000164184'),
    ('2,1,3,0', '1:score floor 0.00992245 > k-th score 0.000242811|3:score floor 0.0225964 > k-th score 0.000242811|0:score floor 0.122227 > k-th score 0.000242811'),
    ('2,1,3,0', '3:score floor 0.0225964 > k-th score 0.0138663|0:score floor 0.122227 > k-th score 0.0138663'),
    ('2,1,3,0', '1:score floor 0.00992245 > k-th score 0.0005091|3:score floor 0.0225964 > k-th score 0.0005091|0:score floor 0.122227 > k-th score 0.0005091'),
    ('2,1,3,0', '1:score floor 0.00992245 > k-th score 0.00718631|3:score floor 0.0225964 > k-th score 0.00718631|0:score floor 0.122227 > k-th score 0.00718631'),
    ('2,1,3,0', '0:score floor 0.122227 > k-th score 0.0452937'),
    ('2,1,3,0', '1:score floor 0.00992245 > k-th score 0.00938861|3:score floor 0.0225964 > k-th score 0.00938861|0:score floor 0.122227 > k-th score 0.00938861'),
    ('2,1,3,0', '0:score floor 0.122227 > k-th score 0.0509992'),
    ('2,1,3,0', '-'),
]
FUSED_LEGS = [
    ('0,1,2,3', '1:score floor 0.25948 > k-th score 0.0525442|2:score floor 0.504812 > k-th score 0.0525442|3:score floor 0.752862 > k-th score 0.0525442'),
    ('0,1,2,3', '1:score floor 0.25948 > k-th score 0.0559228|2:score floor 0.504812 > k-th score 0.0559228|3:score floor 0.752862 > k-th score 0.0559228'),
    ('0,1,2,3', '2:score floor 0.504812 > k-th score 0.389308|3:score floor 0.752862 > k-th score 0.389308'),
    ('0,1,2,3', '1:score floor 0.25948 > k-th score 0.0687425|2:score floor 0.504812 > k-th score 0.0687425|3:score floor 0.752862 > k-th score 0.0687425'),
    ('0,1,2,3', '1:score floor 0.25948 > k-th score 0.184718|2:score floor 0.504812 > k-th score 0.184718|3:score floor 0.752862 > k-th score 0.184718'),
    ('0,1,2,3', '3:score floor 0.752862 > k-th score 0.588993'),
    ('0,1,2,3', '1:score floor 0.25948 > k-th score 0.237049|2:score floor 0.504812 > k-th score 0.237049|3:score floor 0.752862 > k-th score 0.237049'),
    ('0,1,2,3', '3:score floor 0.752862 > k-th score 0.54523'),
    ('0,1,2,3', '-'),
    ('2,1,3,0', '1:score floor 0.00992245 > k-th score 0.000164184|3:score floor 0.0225964 > k-th score 0.000164184|0:score floor 0.122227 > k-th score 0.000164184'),
    ('2,1,3,0', '1:score floor 0.00992245 > k-th score 0.000242811|3:score floor 0.0225964 > k-th score 0.000242811|0:score floor 0.122227 > k-th score 0.000242811'),
    ('2,1,3,0', '3:score floor 0.0225964 > k-th score 0.0138663|0:score floor 0.122227 > k-th score 0.0138663'),
    ('2,1,3,0', '1:score floor 0.00992245 > k-th score 0.0005091|3:score floor 0.0225964 > k-th score 0.0005091|0:score floor 0.122227 > k-th score 0.0005091'),
    ('2,1,3,0', '1:score floor 0.00992245 > k-th score 0.00718631|3:score floor 0.0225964 > k-th score 0.00718631|0:score floor 0.122227 > k-th score 0.00718631'),
    ('2,1,3,0', '0:score floor 0.122227 > k-th score 0.0452937'),
    ('2,1,3,0', '1:score floor 0.00992245 > k-th score 0.00938861|3:score floor 0.0225964 > k-th score 0.00938861|0:score floor 0.122227 > k-th score 0.00938861'),
    ('2,1,3,0', '0:score floor 0.122227 > k-th score 0.0509992'),
    ('2,1,3,0', '-'),
]


class TestLegOrder:
    def test_the_planned_order_is_the_executed_order(self, relation):
        engine = ranked_engine(relation)
        for query, (order, skipped) in zip(corpus(), SOLO_LEGS):
            planned = engine.plan(query).details["scatter_order"]
            result = engine.execute(query)
            assert planned == result.extra["scatter_order"] == order
            assert result.extra["shards_skipped"] == skipped

    def test_fused_members_keep_their_skips(self, relation):
        engine = ranked_engine(relation)
        results = engine.execute_many(corpus())
        assert [(r.extra["scatter_order"], r.extra["shards_skipped"])
                for r in results] == FUSED_LEGS
        assert all(r.extra["fused_group_size"] == 9.0 for r in results)

    def test_the_skip_fires(self):
        assert sum(skipped != "-" for _, skipped in SOLO_LEGS) >= 6
        assert sum(skipped != "-" for _, skipped in FUSED_LEGS) >= 6

    def test_parallel_legs_skip_nothing_and_answer_the_same(self, relation):
        sequential = ranked_engine(relation).execute_many(corpus())
        with ranked_engine(relation, parallel=True) as engine:
            parallel = engine.execute_many(corpus())
        for seq, par in zip(sequential, parallel):
            assert (seq.tids, bits(seq.scores)) == (par.tids, bits(par.scores))
            assert par.extra["shards_skipped"] == "-"

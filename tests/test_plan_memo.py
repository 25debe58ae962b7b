"""The planner's kept decisions cannot go stale.

``Planner.plan`` keeps each costed decision under the query's shape and
hands out fresh plans over it.  Whatever a decision was derived from —
the registry, the cost model, the relation's profile — a warm planner
must answer exactly what a planner that never kept anything answers.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.storage.table_scan import TableScanTopK
from repro.engine import Executor, MODE_COST, MODE_STATIC, Planner
from repro.engine.backends import TableScanBackend
from repro.functions import LinearFunction
from repro.functions.linear import sum_function
from repro.query import Predicate, SkylineQuery, TopKQuery
from repro.workloads import (
    SyntheticSpec,
    generate_relation,
    make_sharded_engine,
)
from repro.paper.stack import RTreeCostModel
from tests.conftest import paper_stack
from tests.test_planner_cost import _workload

SPEC = SyntheticSpec(num_tuples=3000, num_selection_dims=3,
                     num_ranking_dims=2, cardinality=8, seed=111)
#: Options of the stacks compared; each also holds the paper's signature
#: cube and BBS, so the planner chooses among every backend.
STACKS = {
    "full": {},
    "fragments": {"include_fragments": True, "fragment_size": 1},
    "static": {"planner_mode": MODE_STATIC},
}


def corpus(relation):
    """The cost suite's workload, plus shapes it lacks: absent values (the
    selectivity-0 key), repeats that differ only in predicate *values* or
    function weights, a predicate-free and a dynamic skyline."""
    function = sum_function(["N1", "N2"])
    queries = _workload(relation)
    queries += [
        TopKQuery(Predicate.of(A1=999), function, 5),
        TopKQuery(Predicate.of(A1=1, A2=999), function, 5),
        TopKQuery(Predicate.of(A1=1, A2=2), function, 5),
        TopKQuery(Predicate.of(A1=3, A2=4),
                  LinearFunction(["N1", "N2"], [2.0, 0.5]), 5),
        TopKQuery(Predicate.of(A1=3, A2=4),
                  LinearFunction(["N1", "N2"], [2.0, -0.5]), 5),
        TopKQuery(Predicate.of(A1=3, A2=4), LinearFunction(["N2"], [1.0]), 5),
        SkylineQuery(Predicate.of(A1=999), ("N1", "N2")),
        SkylineQuery(Predicate.of(A2=3), ("N1", "N2"), targets=(0.2, 0.9)),
        SkylineQuery(Predicate.of(), ("N1",)),
    ]
    return queries


def fresh_planner(executor):
    """A planner over the same registry, model and profiles with nothing
    kept: what ``executor.planner`` must keep agreeing with."""
    planner = executor.planner
    return Planner(executor.registry, cost_model=planner.cost_model,
                   statistics=planner.statistics, mode=planner.mode)


def assert_plans_like_a_fresh_planner(executor, queries):
    for query in queries:
        expected = fresh_planner(executor).plan(query)
        for _ in range(2):  # derived, then kept
            plan = executor.plan(query)
            assert plan.as_dict() == expected.as_dict()
            assert plan.describe() == expected.describe()
        assert executor.explain(query) == expected.describe()


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_a_warm_planner_plans_like_a_fresh_one(stack):
    relation = generate_relation(SPEC)
    executor = paper_stack(relation, block_size=200,
                                     rtree_max_entries=16, **STACKS[stack])
    queries = corpus(relation)
    for query in queries:  # warm: every shape planned before any is compared
        executor.plan(query)
    assert_plans_like_a_fresh_planner(executor, queries)


def test_a_shape_is_decided_once_and_only_costable_lists_are_kept(monkeypatch):
    relation = generate_relation(SPEC)
    executor = paper_stack(relation, block_size=200,
                                     rtree_max_entries=16)
    decided = []
    backends_for = executor.registry.backends_for
    monkeypatch.setattr(executor.registry, "backends_for",
                        lambda kind: decided.append(kind) or backends_for(kind))
    queries = corpus(relation)
    for query in queries:
        executor.plan(query)
    first_pass = len(decided)
    assert 0 < first_pass < len(queries)  # shapes repeat inside the corpus
    for query in queries:
        executor.plan(query)
    assert len(decided) == first_pass  # second pass: nothing derived again

    class Opaque(TableScanBackend):
        def cost_profile(self, query):
            return None

    executor.register(Opaque(TableScanTopK(relation), name="opaque"))
    topk = [q for q in queries if isinstance(q, TopKQuery)]
    del decided[:]
    for _ in range(2):
        for query in topk:
            assert executor.plan(query).mode == MODE_STATIC
    assert len(decided) == 2 * len(topk)  # un-costable: decided every time


def grid_stack(relation, **kwargs):
    return Executor.for_relation(relation, block_size=200,
                                 with_signature=False, with_skyline=False,
                                 **kwargs)


def test_an_insert_replaces_the_profile_and_with_it_every_decision():
    relation = generate_relation(SPEC)
    executor = grid_stack(relation)
    queries = [q for q in corpus(relation) if isinstance(q, TopKQuery)]
    absent = TopKQuery(Predicate.of(A1=1, A2=999),
                       sum_function(["N1", "N2"]), 5)
    assert all("num_tuples=3000 " in executor.plan(query).details["cost_inputs"]
               for query in queries)
    assert "selectivity=0 " in executor.plan(absent).details["cost_inputs"]
    row = {"A1": 1, "A2": 999, "A3": 0, "N1": 0.5, "N2": 0.5}
    tid = relation.append(row)
    assert executor.insert(relation, tid, row)
    assert_plans_like_a_fresh_planner(executor, queries)
    assert all("num_tuples=3001 " in executor.plan(query).details["cost_inputs"]
               for query in queries)
    # A2=999 was provably absent; now one row carries it.
    assert "selectivity=0 " not in executor.plan(absent).details["cost_inputs"]
    # A bare append nobody reported: the catalog's row-count check replaces
    # the profile on the next lookup.
    relation.append(dict(row, A2=2))
    assert_plans_like_a_fresh_planner(executor, queries)
    assert "num_tuples=3002 " in executor.plan(absent).details["cost_inputs"]


def test_a_shard_profile_folded_in_place_drops_the_decisions():
    """``ShardManager.insert`` folds the row into the owner's statistics
    *in place* and re-seeds the same object: identity alone would keep
    every decision of the owner's planner."""
    relation = generate_relation(SyntheticSpec(
        num_tuples=1200, num_selection_dims=3, num_ranking_dims=2,
        cardinality=8, seed=112))
    manager, _ = make_sharded_engine(
        relation, 2, block_size=100, with_signature=False, with_skyline=False)
    queries = [q for q in corpus(relation) if isinstance(q, TopKQuery)]
    executors = [manager.executor_for(shard) for shard in manager.shards]
    for executor in executors:
        for query in queries:
            executor.plan(query)
    rng = np.random.default_rng(3)
    for _ in range(6):
        row = {dim: int(rng.integers(0, 8))
               for dim in relation.selection_dims}
        row.update({dim: float(rng.random())
                    for dim in relation.ranking_dims})
        manager.insert(row)
        for shard, executor in zip(manager.shards, executors):
            assert manager.executor_for(shard) is executor
            assert executor.statistics.of(shard.relation) is shard.stats
            assert_plans_like_a_fresh_planner(executor, queries)
            inputs = executor.plan(queries[0]).details["cost_inputs"]
            assert f"num_tuples={shard.relation.num_tuples} " in inputs


def test_a_routed_insert_makes_only_the_owners_next_plan_a_decision():
    """``planner.decisions`` counts plans derived afresh.  A routed insert
    changes its owner's ``num_tuples``, part of the kept-decision basis,
    so the owner's next plan of a kept shape is a decision again, while
    every other shard's planner still hands that shape out kept."""
    relation = generate_relation(SyntheticSpec(
        num_tuples=1200, num_selection_dims=3, num_ranking_dims=2,
        cardinality=8, seed=112))
    manager, _ = make_sharded_engine(
        relation, 4, block_size=100, with_signature=False, with_skyline=False)
    query = TopKQuery(Predicate.of(A1=1), sum_function(["N1", "N2"]), 5)
    executors = [manager.executor_for(shard) for shard in manager.shards]

    def plan_everywhere():
        for executor in executors:
            executor.plan(query)
        return [executor.metrics_snapshot()["planner.decisions"]
                for executor in executors]

    assert plan_everywhere() == [1.0] * 4
    assert plan_everywhere() == [1.0] * 4  # kept
    sizes = [shard.relation.num_tuples for shard in manager.shards]
    manager.insert({"A1": 1, "A2": 2, "A3": 3, "N1": 0.5, "N2": 0.5})
    grown = [shard.relation.num_tuples - size
             for shard, size in zip(manager.shards, sizes)]
    assert sorted(grown) == [0, 0, 0, 1]
    assert plan_everywhere() == [1.0 + added for added in grown]
    assert plan_everywhere() == [1.0 + added for added in grown]


def test_a_registry_change_drops_the_decisions():
    relation = generate_relation(SPEC)
    executor = paper_stack(relation, block_size=200,
                                     rtree_max_entries=16,
                                     cost_model=RTreeCostModel(
                                         **RTreeCostModel.PAPER))
    queries = corpus(relation)
    topk = TopKQuery(Predicate.of(A1=1, A2=2), sum_function(["N1", "N2"]), 5)
    assert "table-scan:90" in executor.plan(topk).details["losing_candidates"]
    for query in queries:
        executor.plan(query)
    executor.register(TableScanBackend(TableScanTopK(relation), priority=1),
                      replace=True)
    assert "table-scan:1" in executor.plan(topk).details["losing_candidates"]
    assert executor.plan(topk).candidates[0] == "table-scan"
    assert_plans_like_a_fresh_planner(executor, queries)
    executor.registry.unregister("signature-cube")
    assert "signature-cube" not in executor.plan(topk).candidates
    assert_plans_like_a_fresh_planner(executor, queries)


def test_a_returned_plan_is_the_callers_to_change():
    relation = generate_relation(SPEC)
    executor = grid_stack(relation)
    query = TopKQuery(Predicate.of(A1=1), sum_function(["N1", "N2"]), 5)
    expected = fresh_planner(executor).plan(query).as_dict()
    for _ in range(2):
        plan = executor.plan(query)
        assert plan.as_dict() == expected
        plan.details["cost_estimates"] = "mine"
        del plan.details["cost_inputs"]
        plan.details["note"] = object()
    assert executor.plan(query).as_dict() == expected


def test_a_new_cost_model_or_mode_is_not_answered_from_the_old_one():
    relation = generate_relation(SPEC)
    executor = paper_stack(relation, block_size=200,
                                     rtree_max_entries=16,
                                     cost_model=RTreeCostModel(
                                         **RTreeCostModel.PAPER))
    queries = corpus(relation)
    for query in queries:
        executor.plan(query)
    broad = TopKQuery(Predicate.of(), sum_function(["N1", "N2"]), 5)
    assert executor.plan(broad).backend == "signature-cube"
    executor.planner.cost_model = RTreeCostModel(node_touch_cost=10_000.0)
    assert executor.plan(broad).backend != "signature-cube"
    assert_plans_like_a_fresh_planner(executor, queries)
    executor.planner.mode = MODE_STATIC
    assert executor.plan(broad).mode == MODE_STATIC
    assert_plans_like_a_fresh_planner(executor, queries)
    executor.planner.mode = MODE_COST
    assert executor.plan(broad).mode == MODE_COST
    assert_plans_like_a_fresh_planner(executor, queries)

"""Randomized oracle-parity harness: every execution path vs brute force.

Seeded-random relations (varying tuple counts, dimensionality, selection
cardinalities, value distributions) and queries (top-k and skyline, with
empty / selective / provably-absent predicates, linear and distance
functions, boundary k values) are generated deterministically; for every
case the harness asserts that

* the cost-planned engine front door,
* every registered backend that supports the query, and
* the scatter/gather path over shard counts {1, 2, 7}, solo and fused,

return results bit-identical to a brute-force oracle computed straight off
the relation.  This is the safety net under the cost-based planner: no
routing decision — static, cost-driven, or shard-level — may ever change
an answer, only how fast it is computed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import Executor
from repro.engine.registry import kind_of
from repro.functions.distance import SquaredDistanceFunction
from repro.functions.linear import skewed_linear_function
from repro.query import Predicate, SkylineQuery, TopKQuery
from repro.shard import (
    HashShardingPolicy,
    RangeShardingPolicy,
    ScatterGatherExecutor,
    ShardManager,
)
from repro.workloads import SyntheticSpec, generate_relation
from tests.conftest import brute_force_topk, paper_stack

#: Shard counts the acceptance bar names; 2 uses range sharding, the rest hash.
SHARD_COUNTS = (1, 2, 7)

#: Varied relation shapes: size, dimensionality, cardinality, distribution.
SPECS = (
    SyntheticSpec(num_tuples=120, num_selection_dims=1, num_ranking_dims=2,
                  cardinality=2, distribution="E", seed=901),
    SyntheticSpec(num_tuples=180, num_selection_dims=2, num_ranking_dims=2,
                  cardinality=5, distribution="C", seed=902),
    SyntheticSpec(num_tuples=240, num_selection_dims=3, num_ranking_dims=2,
                  cardinality=3, distribution="A", seed=903),
    SyntheticSpec(num_tuples=300, num_selection_dims=2, num_ranking_dims=3,
                  cardinality=8, distribution="E", seed=904),
    SyntheticSpec(num_tuples=150, num_selection_dims=3, num_ranking_dims=3,
                  cardinality=12, distribution="C", seed=905),
    SyntheticSpec(num_tuples=420, num_selection_dims=2, num_ranking_dims=2,
                  cardinality=4, distribution="A", seed=906),
    SyntheticSpec(num_tuples=260, num_selection_dims=1, num_ranking_dims=3,
                  cardinality=6, distribution="E", seed=907),
    SyntheticSpec(num_tuples=340, num_selection_dims=3, num_ranking_dims=2,
                  cardinality=9, distribution="E", seed=908),
)

TOPK_PER_RELATION = 18
SKYLINE_PER_RELATION = 8


def _random_conditions(rng, relation, max_conds):
    """0..max_conds equality conditions, occasionally on an absent value."""
    count = int(rng.integers(0, max_conds + 1))
    dims = list(rng.choice(relation.selection_dims, size=count, replace=False))
    conditions = {}
    for dim in dims:
        column = relation.selection_column(dim)
        if rng.random() < 0.15:
            conditions[dim] = int(column.max()) + 3  # provably absent
        else:
            conditions[dim] = int(column[rng.integers(0, len(column))])
    return conditions


def _topk_queries(rng, relation):
    queries = []
    for _ in range(TOPK_PER_RELATION):
        conditions = _random_conditions(
            rng, relation, min(3, len(relation.selection_dims)))
        num_dims = int(rng.integers(1, len(relation.ranking_dims) + 1))
        dims = list(rng.choice(relation.ranking_dims, size=num_dims,
                               replace=False))
        if rng.random() < 0.5:
            function = skewed_linear_function(dims, float(rng.uniform(1, 4)),
                                              rng=rng)
        else:
            function = SquaredDistanceFunction(
                dims, [float(v) for v in rng.random(num_dims)])
        k = int(rng.choice([1, 3, 7, relation.num_tuples + 5]))
        queries.append(TopKQuery(Predicate.of(conditions), function, k))
    return queries


def _skyline_queries(rng, relation):
    queries = []
    for _ in range(SKYLINE_PER_RELATION):
        conditions = _random_conditions(
            rng, relation, min(2, len(relation.selection_dims)))
        num_dims = int(rng.integers(2, len(relation.ranking_dims) + 1))
        dims = tuple(rng.choice(relation.ranking_dims, size=num_dims,
                                replace=False))
        targets = None
        if rng.random() < 0.4:
            targets = tuple(float(v) for v in rng.random(num_dims))
        queries.append(SkylineQuery(Predicate.of(conditions), dims,
                                    targets=targets))
    return queries


def _slim_shard_factory(relation):
    """Cheap per-shard stack: the served grid cube, scan top-k and scan skyline.

    The parity claim is about the scatter/gather *path*, not which backend
    a shard picks, so shards skip the R-tree / signature construction.
    """
    return Executor.for_relation(relation, block_size=32)


def brute_force_skyline(relation, query):
    """O(n^2) dominance oracle straight off the relation's columns."""
    tids = [tid for tid in range(relation.num_tuples)
            if query.predicate.matches(relation, tid)]
    points = {}
    for tid in tids:
        values = relation.ranking_values(tid, query.preference_dims)
        if query.targets is not None:
            values = [abs(float(v) - float(t))
                      for v, t in zip(values, query.targets)]
        points[tid] = tuple(float(v) for v in values)

    def dominates(a, b):
        return (all(x <= y for x, y in zip(a, b))
                and any(x < y for x, y in zip(a, b)))

    return tuple(sorted(
        tid for tid in tids
        if not any(dominates(points[other], points[tid])
                   for other in tids if other != tid)))


@pytest.fixture(scope="module")
def universe():
    """Relations, engines, sharded engines, and query workloads — built once."""
    rigs = []
    for i, spec in enumerate(SPECS):
        relation = generate_relation(spec, name=f"O{i}")
        # The served backends and the paper's signature cube and BBS.
        engine = paper_stack(relation, block_size=48, rtree_max_entries=8)
        sharded = {}
        for count in SHARD_COUNTS:
            if count == 2:
                policy = RangeShardingPolicy(relation,
                                             relation.selection_dims[0], count)
            else:
                policy = HashShardingPolicy(count)
            manager = ShardManager(relation, policy,
                                   executor_factory=_slim_shard_factory)
            sharded[count] = ScatterGatherExecutor(manager)
        rng = np.random.default_rng(7000 + i)
        queries = _topk_queries(rng, relation) + _skyline_queries(rng, relation)
        rigs.append((relation, engine, sharded, queries))
    return rigs


def test_case_count_meets_bar(universe):
    """The harness generates at least 200 randomized cases."""
    total = sum(len(queries) for _, _, _, queries in universe)
    assert total >= 200


@pytest.mark.parametrize("spec_index", range(len(SPECS)))
def test_topk_oracle_parity(universe, spec_index):
    relation, engine, sharded, queries = universe[spec_index]
    for query in queries:
        if not isinstance(query, TopKQuery):
            continue
        oracle_tids, oracle_scores = brute_force_topk(relation, query)
        routed = engine.execute(query)
        assert routed.tids == oracle_tids, engine.explain(query)
        assert routed.scores == oracle_scores, engine.explain(query)
        for backend in engine.registry:
            if backend.kind != "topk" or not backend.supports(query):
                continue
            direct = backend.run(query)
            assert direct.tids == oracle_tids, backend.name
            assert direct.scores == oracle_scores, backend.name
        for count, scatter in sharded.items():
            gathered = scatter.execute(query)
            assert gathered.tids == oracle_tids, (count, scatter.explain(query))
            assert gathered.scores == oracle_scores, count


@pytest.mark.parametrize("spec_index", range(len(SPECS)))
def test_skyline_oracle_parity(universe, spec_index):
    relation, engine, sharded, queries = universe[spec_index]
    for query in queries:
        if not isinstance(query, SkylineQuery):
            continue
        oracle_tids = brute_force_skyline(relation, query)
        routed = engine.execute(query)
        assert tuple(sorted(routed.tids)) == oracle_tids, engine.explain(query)
        for backend in engine.registry:
            if backend.kind != "skyline" or not backend.supports(query):
                continue
            direct = backend.run(query)
            assert tuple(sorted(direct.tids)) == oracle_tids, backend.name
        for count, scatter in sharded.items():
            gathered = scatter.execute(query)
            assert tuple(sorted(gathered.tids)) == oracle_tids, count


def _uncacheable_function(relation):
    """An expression-tree function: fusable by object identity, uncacheable.

    ``query_cache_key`` has no canonical key for expression trees, so these
    queries bypass the result cache entirely — exactly the mix the fused
    batch path must keep bit-identical alongside cacheable queries.
    """
    from repro.engine.cache import query_cache_key
    from repro.functions import Add, ExpressionFunction, Mul, Var

    dims = relation.ranking_dims[:2]
    expr = Add(Mul(Var(dims[0]), Var(dims[0])), Var(dims[1]))
    function = ExpressionFunction(expr, dims=dims)
    probe = TopKQuery(Predicate.of(), function, 1)
    assert query_cache_key(probe) is None
    return function


@pytest.mark.parametrize("spec_index", range(len(SPECS)))
def test_fused_batch_matches_loop_and_oracle(universe, spec_index):
    """The fused ``execute_many`` path is bit-identical to loop + oracle.

    The batch mixes functions, predicates, and k values (so the engine
    forms several fused groups plus singles), includes repeats of one
    query, and appends uncacheable expression-function queries sharing one
    function object — covering cacheable/uncacheable mixing.  The same
    batch runs through the engine front door and every shard count.
    """
    relation, engine, sharded, queries = universe[spec_index]
    batch = [query for query in queries if isinstance(query, TopKQuery)]
    uncacheable = _uncacheable_function(relation)
    first_dim = relation.selection_dims[0]
    value = int(relation.selection_column(first_dim)[0])
    batch = batch + [
        batch[0],  # a batch repeat of a cacheable query
        TopKQuery(Predicate.of(), uncacheable, 5),
        TopKQuery(Predicate.of({first_dim: value}), uncacheable, 3),
    ]
    oracle = [brute_force_topk(relation, query) for query in batch]

    engine.result_cache.invalidate()
    fused = engine.execute_many(batch)
    for query, result, (tids, scores) in zip(batch, fused, oracle):
        assert result.tids == tids, engine.explain(query)
        assert result.scores == scores, engine.explain(query)
        assert result.extra.get("fused_group_size", 0.0) >= 1.0
    # The two expression-function queries share one function object, so
    # whenever the planner routes them to the same backend they form a
    # fused group; random same-function collisions may add more.  (Group
    # sizes > 1 are pinned deterministically in tests/test_batch_fusion.py.)

    for count, scatter in sharded.items():
        scatter.result_cache.invalidate()
        gathered = scatter.execute_many(batch)
        for query, result, (tids, scores) in zip(batch, gathered, oracle):
            assert result.tids == tids, (count, scatter.explain(query))
            assert result.scores == scores, count

    # One scatter algorithm: in a mixed batch (a same-function pair, a
    # lone function, a skyline) every member must agree with the solo
    # front door and with a batch of one — answer and scatter set.
    skyline = next(q for q in queries if isinstance(q, SkylineQuery))
    mixed = [batch[0], TopKQuery(batch[1].predicate, batch[0].function, 4),
             batch[2], skyline]
    mixed_oracle = [brute_force_topk(relation, query) for query in mixed[:3]]
    mixed_oracle.append((brute_force_skyline(relation, skyline), None))

    def answer(result):
        return (result.tids, getattr(result, "scores", None),
                result.extra["shards_consulted"],
                result.extra["shards_pruned"])

    for count, scatter in sharded.items():
        scatter.result_cache.invalidate()
        together = scatter.execute_many(mixed)
        for query, member, expected in zip(mixed, together, mixed_oracle):
            scatter.result_cache.invalidate()
            solo = scatter.execute(query)
            scatter.result_cache.invalidate()
            (single,) = scatter.execute_many([query])
            assert answer(solo)[:2] == expected, count
            assert answer(member) == answer(solo), count
            assert answer(single) == answer(solo), count


@pytest.mark.parametrize("spec_index", range(len(SPECS)))
def test_traced_execution_keeps_oracle_parity(universe, spec_index):
    """Enabled tracing records spans without ever changing an answer.

    Re-runs the top-k workload with a live :class:`~repro.obs.Tracer` on
    the engine front door, on every shard count in {1, 2, 7}, and through
    the fused ``execute_many`` path — result caches invalidated first so
    the traced paths actually execute — and asserts bit-identical results
    against the brute-force oracle, plus that traces were recorded.
    """
    from repro.obs import NULL_TRACER, Tracer

    relation, engine, sharded, queries = universe[spec_index]
    batch = [query for query in queries if isinstance(query, TopKQuery)]
    oracle = [brute_force_topk(relation, query) for query in batch]
    try:
        engine.tracer = Tracer(ring_size=8)
        engine.result_cache.invalidate()
        for query, (tids, scores) in zip(batch, oracle):
            traced = engine.execute(query)
            assert traced.tids == tids, engine.explain(query)
            assert traced.scores == scores, engine.explain(query)
        engine.result_cache.invalidate()
        fused = engine.execute_many(batch)
        for query, result, (tids, scores) in zip(batch, fused, oracle):
            assert result.tids == tids, engine.explain(query)
            assert result.scores == scores, engine.explain(query)
        assert engine.tracer.traces_recorded >= len(batch) + 1

        for count, scatter in sharded.items():
            scatter.tracer = Tracer(ring_size=8)
            scatter.result_cache.invalidate()
            for query, (tids, scores) in zip(batch, oracle):
                gathered = scatter.execute(query)
                assert gathered.tids == tids, (count, scatter.explain(query))
                assert gathered.scores == scores, count
            scatter.result_cache.invalidate()
            gathered_batch = scatter.execute_many(batch)
            for result, (tids, scores) in zip(gathered_batch, oracle):
                assert result.tids == tids, count
                assert result.scores == scores, count
            assert scatter.tracer.traces_recorded >= len(batch) + 1
    finally:
        engine.tracer = NULL_TRACER
        for scatter in sharded.values():
            scatter.tracer = NULL_TRACER


@pytest.mark.parametrize("spec_index", range(len(SPECS)))
def test_every_case_was_planned(universe, spec_index):
    """Every generated query routes through a real (explainable) plan."""
    relation, engine, _, queries = universe[spec_index]
    for query in queries:
        plan = engine.plan(query)
        assert plan.backend in engine.registry.names()
        assert plan.query_kind == kind_of(query)


# ----------------------------------------------------------------------
# chaos parity: answers stay bit-identical THROUGH injected faults
# ----------------------------------------------------------------------
#: Relations the chaos pass replays (a subset keeps the
#: suite's chaos share proportionate; the injector sweeps every leg of
#: every shard count, so more specs would add runtime, not coverage).
CHAOS_SPEC_INDICES = (0, 3, 6)


def _chaos_policy(relation, count):
    if count == 2:
        return RangeShardingPolicy(relation, relation.selection_dims[0],
                                   count)
    return HashShardingPolicy(count)


@pytest.mark.parametrize("spec_index", CHAOS_SPEC_INDICES)
def test_chaos_parity_thread_scatter(spec_index):
    """Injected crashes + retries never change an answer (in-process legs).

    A seeded :class:`~repro.fault.inject.FaultInjector` plants pre- and
    post-leg crashes plus delays while the retry policy re-runs the
    failed legs.  ``max_faults`` is kept strictly below
    ``max_attempts - 1`` so recovery *provably* converges: no leg can
    accumulate enough consecutive faults to exhaust its attempts.  Every
    answer — strict mode, no degradation allowed — must be bit-identical
    to the brute-force oracle, at every shard count in {1, 2, 7}.
    """
    from repro.fault import FaultInjector, RetryPolicy
    from repro.shard import ScatterGatherExecutor as ThreadScatter

    relation = generate_relation(SPECS[spec_index], name=f"C{spec_index}")
    rng = np.random.default_rng(7000 + spec_index)
    queries = _topk_queries(rng, relation)
    oracle = [brute_force_topk(relation, query) for query in queries]
    for count in SHARD_COUNTS:
        manager = ShardManager(relation, _chaos_policy(relation, count),
                               executor_factory=_slim_shard_factory)
        injector = FaultInjector(
            seed=1300 + 10 * spec_index + count,
            rates={"worker.crash.pre": 0.35, "worker.crash.post": 0.2,
                   "leg.delay": 0.1},
            max_faults=12, delay_seconds=0.0)
        engine = ThreadScatter(
            manager, fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=14, base_delay=0.0002,
                                     cap_delay=0.001, budget=None,
                                     jitter_seed=count))
        for query, (tids, scores) in zip(queries, oracle):
            gathered = engine.execute(query)
            assert gathered.tids == tids, (count, injector.fired)
            assert gathered.scores == scores, count
            assert "degraded" not in gathered.extra, count
        # Replay the batch path under fresh chaos: fused-group legs
        # retry and recover just like solo legs.
        engine.fault_injector = FaultInjector(
            seed=4300 + 10 * spec_index + count,
            rates={"worker.crash.pre": 0.35, "worker.crash.post": 0.2},
            max_faults=12)
        engine.result_cache.invalidate()
        fused = engine.execute_many(queries)
        for result, (tids, scores) in zip(fused, oracle):
            assert result.tids == tids, count
            assert result.scores == scores, count
        # A vacuous chaos run proves nothing: the injectors must
        # actually have planted faults for the parity to mean much.
        assert injector.total_fired > 0, (count, injector.fired)
        assert engine.fault_injector.total_fired > 0, count

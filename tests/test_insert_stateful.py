"""Stateful differential suite: writes interleaved with reads, every door.

A ``hypothesis`` state machine drives stacks over copies of one seed
relation — an unsharded ``Executor``, thread ``ScatterGatherExecutor``s
under a hash policy (grid-only shard stacks: inserts absorbed in place)
and a range policy (shard stacks holding ``repro.paper``'s signature cube
and BBS: the owner is dropped and rebuilt), and ``QueryService``s over
unsharded stacks: a grid stack, ``Executor.for_relation``'s default stack,
and the paper's signature cube and BBS on top of it under the first
planner's constants and ``planner_mode="static"`` (both still route to
them until an insert marks them stale) — through inserts of every awkward
kind, solo / fused / streamed / repeated reads, skylines and reshards.  Every answer is checked bit for
bit against brute force over the rows as they are *now*.
"""

from __future__ import annotations

import asyncio

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.engine import Executor
from repro.functions.distance import SquaredDistanceFunction
from repro.functions.linear import LinearFunction
from repro.paper.stack import RTreeCostModel
from repro.query import Predicate, SkylineQuery, TopKQuery
from repro.serve import QueryService, ServiceConfig
from repro.shard import (
    HashShardingPolicy,
    RangeShardingPolicy,
    ScatterGatherExecutor,
    ShardManager,
)
from repro.workloads import SyntheticSpec, generate_relation
from tests.conftest import brute_force_topk, paper_stack
from tests.test_parity_oracle import brute_force_skyline

SPEC = SyntheticSpec(num_tuples=90, num_selection_dims=2,
                     num_ranking_dims=2, cardinality=3, distribution="C",
                     seed=1313)
GRID_ONLY = dict(block_size=12, with_signature=False, with_skyline=False)


def paper(**options):
    """A stack builder: the default stack plus the paper's signature cube
    and BBS, neither of which absorbs an insert."""
    return lambda relation: paper_stack(relation, block_size=12,
                                        rtree_max_entries=8, **options)


#: The served stacks' builders: grid only, the default stack, then the
#: paper's backends on top of it two ways.
SERVED = (lambda relation: Executor.for_relation(relation, **GRID_ONLY),
          lambda relation: Executor.for_relation(relation, block_size=12),
          paper(cost_model=RTreeCostModel(**RTreeCostModel.PAPER)),
          paper(planner_mode="static"))

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)
codes = st.integers(min_value=0, max_value=2)
# 3 and 4 never occur in the seed data: a first insert of one opens a new
# cuboid cell, a predicate on one before that matches nothing.
query_codes = st.integers(min_value=0, max_value=4)

functions = st.one_of(
    st.builds(lambda a, b: LinearFunction(["N1", "N2"], [a, b]),
              st.sampled_from([0.5, 1.0, 3.0]),
              st.sampled_from([0.25, 1.0, 2.0])),
    st.builds(lambda a, b: SquaredDistanceFunction(["N1", "N2"], [a, b]),
              st.sampled_from([0.0, 0.4, 1.0]),
              st.sampled_from([0.1, 0.9])),
)
predicates = st.one_of(
    st.just({}),
    st.fixed_dictionaries({"A1": query_codes}),
    st.fixed_dictionaries({"A2": query_codes}),
    st.fixed_dictionaries({"A1": query_codes, "A2": query_codes}),
).map(Predicate.of)
ks = st.sampled_from([1, 4, 15])
queries = st.builds(TopKQuery, predicates, functions, ks)


class WritesAndReads(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.relation = generate_relation(SPEC)
        self.executor = Executor.for_relation(self.relation, **GRID_ONLY)
        hashed = generate_relation(SPEC)
        self.hash_manager = ShardManager(hashed, HashShardingPolicy(3),
                                         **GRID_ONLY)
        self.hash_engine = ScatterGatherExecutor(self.hash_manager)
        ranged = generate_relation(SPEC)
        self.range_manager = ShardManager(
            ranged, RangeShardingPolicy(ranged, "A1", 2),
            executor_factory=paper())
        self.range_engine = ScatterGatherExecutor(self.range_manager)
        self.loop = asyncio.new_event_loop()
        self.services = []
        for build in SERVED:
            served = generate_relation(SPEC)
            self.services.append(QueryService(
                build(served),
                ServiceConfig(max_linger=0.0), relation=served))
            self.loop.run_until_complete(self.services[-1].start())
        self.last = None
        self.shard_counts = iter([2, 4, 1, 3])

    def teardown(self):
        if hasattr(self, "loop"):
            for service in self.services:
                self.loop.run_until_complete(service.close())
            self.loop.close()

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def _insert(self, row):
        tid = self.relation.append(row)
        assert self.executor.insert(self.relation, tid, row)
        assert self.hash_manager.insert(row) == tid
        assert self.range_manager.insert(row) == tid
        for service in self.services:
            assert self._serve(service.insert(row)) == tid

    @rule(a1=codes, a2=codes, n1=unit, n2=unit)
    def insert_row(self, a1, a2, n1, n2):
        # Inside [0, 1], but each stack's grid only spans its own rows'
        # min..max, so these land both inside and just outside a domain —
        # and, on a coarse grid, now and then in a still-empty block.
        self._insert({"A1": a1, "A2": a2, "N1": n1, "N2": n2})

    @rule(a1=codes, a2=codes, n1=st.sampled_from([-0.75, 1.5, 40.0]),
          n2=unit)
    def insert_far_outside_the_domain(self, a1, a2, n1, n2):
        self._insert({"A1": a1, "A2": a2, "N1": n1, "N2": n2})

    @rule(a1=st.sampled_from([3, 4]), a2=query_codes, n1=unit, n2=unit)
    def insert_unseen_selection_value(self, a1, a2, n1, n2):
        self._insert({"A1": a1, "A2": a2, "N1": n1, "N2": n2})

    @precondition(lambda self: self.relation.num_tuples < 200)
    @rule(seed=st.integers(min_value=0, max_value=2 ** 16))
    def insert_until_doubled(self, seed):
        """Enough rows that every cube crosses its doubling rule."""
        rng = np.random.default_rng(seed)
        cube = self.executor.registry.get("ranking-cube").cube
        for _ in range(2 * cube.built_rows - self.relation.num_tuples):
            self._insert({"A1": int(rng.integers(0, 3)),
                          "A2": int(rng.integers(0, 3)),
                          "N1": float(rng.uniform(0.2, 0.8)),
                          "N2": float(rng.uniform(0.2, 0.8))})
        assert self.executor.registry.get("ranking-cube").cube is not cube

    @rule()
    def reshard(self):
        count = next(self.shard_counts, None)
        if count is None:
            return
        self.hash_manager.reshard(HashShardingPolicy(count))
        self.range_manager.reshard(RangeShardingPolicy(
            self.range_manager.relation, "A2", count))

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _check(self, query, result):
        assert (result.tids, result.scores) == brute_force_topk(
            self.relation, query)

    def _serve(self, coroutine):
        return self.loop.run_until_complete(coroutine)

    @rule(query=queries)
    def query_solo(self, query):
        self.last = query
        self._check(query, self.executor.execute(query))
        self._check(query, self.hash_engine.execute(query))
        self._check(query, self.range_engine.execute(query))
        for service in self.services:
            self._check(query, self._serve(service.submit(query)))

    @precondition(lambda self: self.last is not None)
    @rule()
    def query_again_from_warm_caches(self):
        self.query_solo(self.last)

    @rule(function=functions, other=queries,
          shapes=st.lists(st.tuples(predicates, ks), min_size=2, max_size=5))
    def query_fused(self, function, other, shapes):
        batch = [TopKQuery(predicate, function, k)
                 for predicate, k in shapes] + [other]
        for answers in (self.executor.execute_many(batch),
                        self.hash_engine.execute_many(batch),
                        self.range_engine.execute_many(batch),
                        *(self._serve(service.submit_many(batch))
                          for service in self.services)):
            assert len(answers) == len(batch)
            for query, result in zip(batch, answers):
                self._check(query, result)

    @rule(query=queries)
    def query_streamed(self, query):
        emitted = []
        result = self.executor.execute(
            query, on_progress=lambda start, pairs: emitted.append(
                (start, list(pairs))))
        self._check(query, result)
        self._check_prefixes(result, emitted)

        async def stream():
            frames = []
            async for frame in self.services[0].submit_stream(query):
                frames.append(frame)
            return frames

        frames = self._serve(stream())
        assert [frame[0] for frame in frames[:-1]] == (
            ["prefix"] * (len(frames) - 1))
        kind, final = frames[-1]
        assert kind == "final"
        self._check(query, final)
        self._check_prefixes(final, [frame[1:] for frame in frames[:-1]])

    @rule(predicate=predicates)
    def query_skyline(self, predicate):
        """Served by every stack with a skyline backend: BBS until an
        insert marks it stale, the scan skyline after."""
        query = SkylineQuery(predicate, ("N1", "N2"))
        expected = brute_force_skyline(self.relation, query)
        for service in self.services[1:]:
            result = self._serve(service.submit(query))
            assert tuple(sorted(result.tids)) == expected

    @staticmethod
    def _check_prefixes(result, emitted):
        """Gap-free, and bit-identical to the final answer's leading ranks."""
        ranked = list(zip(result.tids, result.scores))
        position = 0
        for start, pairs in emitted:
            assert start == position
            assert [tuple(pair) for pair in pairs] == (
                ranked[start:start + len(pairs)])
            position += len(pairs)

    # ------------------------------------------------------------------
    # every stack holds every row
    # ------------------------------------------------------------------
    @invariant()
    def stacks_cover_the_rows(self):
        if not hasattr(self, "relation"):
            return
        rows = self.relation.num_tuples
        assert self.hash_manager.relation.num_tuples == rows
        assert self.range_manager.relation.num_tuples == rows
        for service in self.services:
            assert service.relation.num_tuples == rows
        for executor in (self.executor,
                         *(service.engine for service in self.services),
                         *self.hash_manager.built_executors().values()):
            cube = executor.registry.get("ranking-cube").cube
            assert cube.num_rows == cube.relation.num_tuples


WritesAndReads.TestCase.settings = settings(
    max_examples=12, stateful_step_count=25, deadline=None,
    derandomize=True, database=None)
TestWritesAndReads = WritesAndReads.TestCase

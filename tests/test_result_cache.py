"""The result cache holds each answer packed and hands back what it was given.

``ResultCache`` keeps a top-k answer as two bytes objects (tids as
little-endian int64s, scores as little-endian doubles) and a skyline as
one; a hit is unpacked into fresh tuples.  These tests pin that a hit
equals the miss bit for bit — NaN payloads, ``-0.0``, ``±inf``, empty
answers, skylines and tids beyond 32 bits included — that the entry
cannot be reached through a result handed out, that row-aware
invalidation drops exactly the entries the inserted row may affect, and
that ``<layer>.result_bytes`` counts 8 B per packed number.  ``TestFreshness``
pins that each front door drops what a relation's new rows can affect when
it syncs, and nothing else.

The cache keeps an answer only once its key comes back (the first store
under a key only records its hash), so the tests that read an entry
store it twice; ``TestAdmission`` pins that rule at both front doors.
"""

from __future__ import annotations

import asyncio
import math
import struct
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Executor, ResultCache, query_cache_key
from repro.errors import PlanningError
from repro.functions import LinearFunction
from repro.obs import MetricsRegistry
from repro.query import Predicate, QueryResult, SkylineQuery, TopKQuery
from repro.serve import QueryService
from repro.shard import ScatterGatherExecutor
from repro.skyline.engine import SkylineResult
from repro.workloads import SyntheticSpec, generate_relation, make_sharded_engine

#: A quiet NaN carrying a payload, a NaN with its sign bit set, and a
#: signalling NaN: three different bit patterns that all read as NaN.
NAN_PAYLOADS = tuple(struct.unpack("<d", struct.pack("<Q", bits))[0]
                     for bits in (0x7FF8000000000123, 0xFFF8000000000000,
                                  0x7FF0000000000001))
SPECIAL = (-0.0, 0.0, math.inf, -math.inf) + NAN_PAYLOADS

doubles = st.one_of(
    st.sampled_from(SPECIAL),
    st.binary(min_size=8, max_size=8).map(
        lambda raw: struct.unpack("<d", raw)[0]))
tids = st.integers(min_value=0, max_value=2**63 - 1)


def score_bits(scores) -> bytes:
    return struct.pack("<%dd" % len(scores), *scores)


def tid_bits(values) -> bytes:
    return struct.pack("<%dq" % len(values), *values)


def topk_key(k: int):
    return query_cache_key(TopKQuery(
        Predicate.of(A1=1), LinearFunction(["N1", "N2"], [1.0, 2.0]), k))


def skyline_key():
    return query_cache_key(SkylineQuery(Predicate.of(A1=1), ("N1", "N2")))


@pytest.fixture(scope="module")
def relation():
    return generate_relation(SyntheticSpec(
        num_tuples=1200, num_selection_dims=3, num_ranking_dims=2,
        cardinality=5, seed=83))


class TestHitIsTheMiss:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(tids, doubles), max_size=40))
    def test_a_topk_hit_is_the_miss_bit_for_bit(self, pairs):
        cache = ResultCache()
        miss = QueryResult(tids=tuple(t for t, _ in pairs),
                           scores=tuple(s for _, s in pairs),
                           disk_accesses=3, tuples_evaluated=7,
                           extra={"backend": "ranking-cube"})
        key = topk_key(max(len(pairs), 1))
        cache.store(key, miss)  # the key's first miss is only recorded
        cache.store(key, miss)
        hit = cache.lookup(key)
        assert type(hit) is QueryResult
        assert type(hit.tids) is tuple and type(hit.scores) is tuple
        assert tid_bits(hit.tids) == tid_bits(miss.tids)
        assert score_bits(hit.scores) == score_bits(miss.scores)
        assert (hit.disk_accesses, hit.tuples_evaluated) == (3, 7)
        assert hit.extra == {"backend": "ranking-cube", "result_cache": "hit"}
        assert miss.extra["result_cache"] == "miss"

    @pytest.mark.parametrize("skyline", [(), (0,), (5, 2**31, 2**63 - 1)])
    def test_a_skyline_hit_is_the_miss(self, skyline):
        cache = ResultCache()
        miss = SkylineResult(tids=skyline, nodes_expanded=4)
        cache.store(skyline_key(), miss)  # first miss: recorded only
        cache.store(skyline_key(), miss)
        hit = cache.lookup(skyline_key())
        assert type(hit) is SkylineResult
        assert hit.tids == skyline and type(hit.tids) is tuple
        assert "scores" not in hit.__dict__
        assert hit.nodes_expanded == 4

    def test_special_scores_survive(self):
        cache = ResultCache()
        scores = SPECIAL + (5e-324, -1.7976931348623157e308)
        miss = QueryResult(tids=tuple(range(2**31, 2**31 + len(scores))),
                           scores=scores)
        cache.store(topk_key(len(scores)), miss)  # first miss: recorded only
        cache.store(topk_key(len(scores)), miss)
        hit = cache.lookup(topk_key(len(scores)))
        assert score_bits(hit.scores) == score_bits(scores)
        assert math.copysign(1.0, hit.scores[0]) == -1.0
        assert hit.tids[0] == 2**31

    def test_an_executor_hit_is_its_miss(self, relation):
        engine = Executor.for_relation(relation, block_size=100)
        queries = [
            TopKQuery(Predicate.of(A1=2),
                      LinearFunction(["N1", "N2"], [1.0, 3.0]), 40),
            TopKQuery(Predicate.of(A1=99),
                      LinearFunction(["N1", "N2"], [1.0, 1.0]), 5),
            SkylineQuery(Predicate.of(A2=1), ("N1", "N2")),
        ]
        for query in queries:
            engine.execute(query)  # the first arrival is only recorded
            miss = engine.execute(query)
            hit = engine.execute(query)
            assert (miss.extra["result_cache"], hit.extra["result_cache"]) \
                == ("miss", "hit")
            assert tid_bits(hit.tids) == tid_bits(miss.tids)
            if isinstance(query, TopKQuery):
                assert score_bits(hit.scores) == score_bits(miss.scores)
        assert len(engine.execute(queries[1]).tids) == 0


class TestEntriesArePacked:
    def test_every_entry_holds_bytes(self, relation):
        engine = Executor.for_relation(relation, block_size=100)
        queries = [TopKQuery(Predicate.of(A1=value),
                             LinearFunction(["N1", "N2"], [1.0, 2.0]), 25)
                   for value in range(5)]
        queries += [SkylineQuery(Predicate.of(A3=value), ("N1", "N2"))
                    for value in range(3)]
        engine.execute_many(queries)  # the first arrivals are only recorded
        engine.execute_many(queries)
        assert len(engine.result_cache) == len(queries)
        for query in queries:
            entry = engine.result_cache.get(query_cache_key(query))
            assert type(entry.tids) is bytes
            if isinstance(query, TopKQuery):
                assert type(entry.scores) is bytes
                assert len(entry.scores) == len(entry.tids) == 25 * 8

    def test_mutating_a_hit_or_the_miss_leaves_the_entry(self):
        cache = ResultCache()
        key = topk_key(3)
        miss = QueryResult(tids=(4, 2, 9), scores=(-0.0, 1.5, math.inf),
                           extra={"backend": "table-scan"})
        cache.store(key, miss)  # the key's first miss is only recorded
        cache.store(key, miss)
        entry = cache.get(key)
        packed = (entry.tids, entry.scores, dict(entry.extra))
        hit = cache.lookup(key)
        hit.extra["backend"] = "poisoned"
        hit.extra["queue_wait"] = 1.0
        hit.tids, hit.scores = (), ()
        hit.disk_accesses = 99
        miss.extra["backend"] = "poisoned"
        again = cache.lookup(key)
        assert (entry.tids, entry.scores, entry.extra) == packed
        assert again.tids == (4, 2, 9)
        assert score_bits(again.scores) == score_bits((-0.0, 1.5, math.inf))
        assert again.extra == {"backend": "table-scan", "result_cache": "hit"}
        assert again.disk_accesses == 0


def conditions_strategy():
    return st.dictionaries(st.sampled_from(["A1", "A2", "A3"]),
                           st.integers(0, 3), max_size=3)


class TestRowAwareInvalidation:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), conditions_strategy(),
                              st.integers(1, 6)), max_size=12),
           st.dictionaries(st.sampled_from(["A1", "A2", "A3", "N1"]),
                           st.integers(0, 3)))
    def test_drops_exactly_the_entries_the_row_may_affect(self, shapes, row):
        cache = ResultCache()
        keys = []
        for is_topk, conditions, k in shapes:
            predicate = Predicate.of(conditions)
            query = (TopKQuery(predicate, LinearFunction(["N1"], [1.0]), k)
                     if is_topk else SkylineQuery(predicate, ("N1", "N2")))
            key = query_cache_key(query)
            result = (QueryResult(tids=tuple(range(k)), scores=(0.5,) * k)
                      if is_topk else SkylineResult(tids=(k,)))
            cache.store(key, result)  # first miss: recorded only
            cache.store(key, result)
            keys.append((key, conditions))
        entries = {key: cache.get(key) for key, _ in keys}
        cache.invalidate(row=row)
        for key, conditions in keys:
            # An entry survives exactly when its predicate names a value
            # the row provably does not carry.
            survives = any(dim in row and row[dim] != value
                           for dim, value in conditions.items())
            kept = cache.get(key)
            assert (kept is not None) == survives, (key, row)
            if survives:
                assert kept is entries[key]
        assert cache.invalidations == 1


def published(cache: ResultCache) -> float:
    metrics = MetricsRegistry()
    cache.publish(metrics, "engine")
    return metrics.snapshot()["engine.result_bytes"]


class TestResultBytes:
    def test_the_gauge_counts_eight_bytes_per_packed_number(self):
        cache = ResultCache()
        assert published(cache) == 0.0
        for _ in range(2):  # the key's first miss is only recorded
            cache.store(topk_key(500), QueryResult(
                tids=tuple(range(500)),
                scores=tuple(float(i) for i in range(500))))
        assert published(cache) == 8000.0
        for _ in range(2):
            cache.store(skyline_key(), SkylineResult(tids=tuple(range(37))))
        assert published(cache) == 8000.0 + 8 * 37
        # Storing under a held key replaces the entry, it does not add one.
        cache.store(skyline_key(), SkylineResult(tids=(1, 2)))
        assert published(cache) == 8000.0 + 16
        cache.invalidate()
        assert published(cache) == 0.0

    def test_both_layers_expose_it(self, relation):
        query = TopKQuery(Predicate.of(A1=1),
                          LinearFunction(["N1", "N2"], [1.0, 1.0]), 10)
        engine = Executor.for_relation(relation, block_size=100,
                                       with_signature=False,
                                       with_skyline=False)
        engine.execute(query)  # the first arrival is only recorded
        engine.execute(query)
        assert engine.metrics_snapshot()["engine.result_bytes"] == 160.0
        manager, sharded = make_sharded_engine(
            relation, 2, block_size=100, with_signature=False,
            with_skyline=False)
        sharded.execute(query)  # the first arrival is only recorded
        sharded.execute(query)
        snapshot = sharded.metrics_snapshot()
        assert snapshot["shard.result_bytes"] == 160.0
        # Legs run past the shard stacks' own caches.
        assert snapshot["engine.result_bytes"] == 0.0
        manager.reshard(manager.policy)
        assert sharded.metrics_snapshot()["shard.result_bytes"] == 0.0


# ----------------------------------------------------------------------
# admission: an answer is kept only once its key comes back
# ----------------------------------------------------------------------
@pytest.fixture(params=["engine", "shard"])
def front_door(request, relation):
    """``(front door, its metrics layer)``: an unsharded stack, or two
    shards behind a scatter front door."""
    if request.param == "engine":
        return Executor.for_relation(relation, block_size=100,
                                     with_signature=False,
                                     with_skyline=False), "engine"
    _, sharded = make_sharded_engine(relation, 2, block_size=100,
                                     with_signature=False,
                                     with_skyline=False)
    return sharded, "shard"


def distinct_queries(count: int):
    return [TopKQuery(Predicate.of(A1=i % 5),
                      LinearFunction(["N1", "N2"], [1.0, 1.0 + i]), 5)
            for i in range(count)]


def gauges(front, layer: str):
    snapshot = front.metrics_snapshot()
    return {name: snapshot[f"{layer}.result_{name}"]
            for name in ("entries", "bytes", "hits", "misses")}


class TestAdmission:
    def test_one_off_queries_hold_nothing(self, front_door):
        front, layer = front_door
        queries = distinct_queries(20)
        for query in queries[:10]:
            assert front.execute(query).extra["result_cache"] == "miss"
        front.execute_many(queries[10:])
        assert gauges(front, layer) == {
            "entries": 0.0, "bytes": 0.0, "hits": 0.0, "misses": 20.0}

    def test_the_second_miss_is_kept_and_the_third_arrival_hits(
            self, front_door):
        front, layer = front_door
        query = distinct_queries(1)[0]
        first = front.execute(query)
        assert gauges(front, layer)["entries"] == 0.0
        second = front.execute(query)
        assert second.extra["result_cache"] == "miss"
        assert gauges(front, layer)["entries"] == 1.0
        third = front.execute(query)
        assert third.extra["result_cache"] == "hit"
        for earlier in (first, second):
            assert tid_bits(third.tids) == tid_bits(earlier.tids)
            assert score_bits(third.scores) == score_bits(earlier.scores)

    def test_a_repeat_inside_one_batch_hits_without_re_executing(
            self, front_door):
        front, layer = front_door
        repeated, once = distinct_queries(2)
        stored = []
        store = front.result_cache.store
        front.result_cache.store = lambda key, result: (
            stored.append(key), store(key, result))
        results = front.execute_many([repeated, once, repeated])
        assert len(stored) == 2  # each distinct query ran once
        assert [r.extra["result_cache"] for r in results] == [
            "miss", "miss", "hit"]
        assert tid_bits(results[2].tids) == tid_bits(results[0].tids)
        assert score_bits(results[2].scores) == score_bits(results[0].scores)
        # A batch repeat is no sighting: neither first arrival is kept.
        assert gauges(front, layer)["entries"] == 0.0

    def test_an_invalidated_key_is_kept_again_at_its_next_miss(
            self, front_door):
        front, layer = front_door
        query = distinct_queries(1)[0]
        front.execute(query), front.execute(query)
        assert gauges(front, layer)["entries"] == 1.0
        front.result_cache.invalidate(row={"A1": 0})
        assert gauges(front, layer)["entries"] == 0.0
        assert front.execute(query).extra["result_cache"] == "miss"
        assert gauges(front, layer)["entries"] == 1.0
        assert front.execute(query).extra["result_cache"] == "hit"

    def test_the_record_of_seen_keys_is_bounded(self, front_door,
                                                monkeypatch):
        from repro.engine import cache as cache_module

        monkeypatch.setattr(cache_module, "MAX_RESULTS", 4)
        front, layer = front_door
        queries = distinct_queries(10)
        for query in queries:
            front.execute(query)
            assert len(front.result_cache._seen) <= 4
        # The oldest keys fell out of the record: a repeat is a first
        # sighting again; the newest are still on it and are kept.
        front.execute(queries[0])
        assert gauges(front, layer)["entries"] == 0.0
        front.execute(queries[-1])
        assert gauges(front, layer)["entries"] == 1.0
        assert len(front.result_cache._seen) == 4

    def test_concurrent_stores_and_lookups_keep_both_bounds(self,
                                                            monkeypatch):
        from repro.engine import cache as cache_module

        monkeypatch.setattr(cache_module, "MAX_RESULTS", 16)
        cache = ResultCache()
        keys = [topk_key(k) for k in range(1, 41)]
        wrong = []

        def work(seed: int) -> None:
            for step in range(3000):
                k = (seed * 7 + step * 13) % 40 + 1
                if step % 3:
                    cache.store(keys[k - 1], QueryResult(
                        tids=tuple(range(k)), scores=(0.5,) * k))
                else:
                    hit = cache.lookup(keys[k - 1])
                    if hit is not None and hit.tids != tuple(range(k)):
                        wrong.append(k)

        threads = [threading.Thread(target=work, args=(seed,))
                   for seed in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        assert len(cache) <= 16 and len(cache._seen) <= 16
        assert cache.hits + cache.misses == 4 * 1000


# ----------------------------------------------------------------------
# freshness: each front door reads the new rows off the relation
# ----------------------------------------------------------------------
def private_relation(seed: int):
    """A relation of its own: the tests below append to it."""
    return generate_relation(SyntheticSpec(
        num_tuples=600, num_selection_dims=3, num_ranking_dims=2,
        cardinality=5, seed=seed))


def per_value_queries():
    function = LinearFunction(["N1", "N2"], [1.0, 1.0])
    return [TopKQuery(Predicate.of(A1=value), function, 3)
            for value in range(5)]


def warmed(front, queries):
    """``front`` with every query's answer kept (each arrives twice)."""
    for _ in range(2):
        front.execute_many(queries)
    return front


BEST_ROW = {"A1": 2, "A2": 0, "A3": 0, "N1": -1.0, "N2": -1.0}


class TestFreshness:
    def test_a_direct_append_drops_only_the_entries_it_can_affect(self):
        relation = private_relation(91)
        queries = per_value_queries()
        engine = warmed(Executor.for_relation(
            relation, block_size=100, with_signature=False,
            with_skyline=False), queries)
        tid = relation.append(BEST_ROW)  # nobody told the engine
        engine.registry.unregister("ranking-cube")  # the cube predates it
        results = engine.execute_many(queries)
        assert [r.extra["result_cache"] for r in results] == [
            "hit", "hit", "miss", "hit", "hit"]
        assert results[2].tids[0] == tid
        assert engine.metrics_snapshot()["engine.result_invalidations"] == 1.0

    def test_a_routed_insert_leaves_the_other_shard_stacks_alone(self):
        relation = private_relation(92)
        manager, sharded = make_sharded_engine(
            relation, 4, block_size=100, with_signature=False,
            with_skyline=False)
        warmed(sharded, per_value_queries())
        assert len(manager.built_executors()) == 4
        tid = manager.insert(BEST_ROW)
        (owner,) = [shard.index for shard in manager.shards
                    if shard.tid_map[-1] == tid]
        for index, executor in manager.built_executors().items():
            assert executor.metrics_snapshot()[
                "engine.result_invalidations"] == float(index == owner)

    def test_two_front_doors_over_one_manager_see_each_others_inserts(self):
        relation = private_relation(93)
        manager, first = make_sharded_engine(
            relation, 3, block_size=100, with_signature=False,
            with_skyline=False)
        second = ScatterGatherExecutor(manager)
        queries = per_value_queries()
        fronts = [warmed(first, queries), warmed(second, queries)]

        async def insert_through(front, row):
            async with QueryService(front) as service:
                return await service.insert(row)

        for writer, reader in (fronts, fronts[::-1]):
            row = dict(BEST_ROW, N1=BEST_ROW["N1"] - relation.num_tuples)
            tid = asyncio.run(insert_through(writer, row))
            # The writer dropped on the write's time; the reader drops
            # when it syncs, and only the entry the row can enter.
            assert writer.metrics_snapshot()["shard.result_entries"] == 4.0
            assert len(reader.result_cache) == 5
            reader.sync()
            assert len(reader.result_cache) == 4
            for front in fronts:
                results = front.execute_many(queries)
                assert [r.extra["result_cache"] for r in results] == [
                    "hit", "hit", "miss", "hit", "hit"]
                assert results[2].tids[0] == tid
                warmed(front, queries)

    def test_metric_views_sync_before_they_read(self):
        relation = private_relation(94)
        engine = warmed(Executor.for_relation(
            relation, block_size=100, with_signature=False,
            with_skyline=False), per_value_queries())
        relation.append(BEST_ROW)
        snapshot = engine.metrics_snapshot()
        assert snapshot["engine.result_entries"] == 4.0
        assert snapshot["engine.result_invalidations"] == 1.0

        # A desynced scatter still reports (what ``/v1/stats`` serves);
        # its next query fails loudly.
        manager, sharded = make_sharded_engine(
            private_relation(95), 2, block_size=100,
            with_signature=False, with_skyline=False)
        warmed(sharded, per_value_queries())
        manager.relation.append(BEST_ROW)  # past the manager
        snapshot = QueryService(sharded).metrics_snapshot()
        assert snapshot["shard.result_entries"] == 5.0
        with pytest.raises(PlanningError, match="outside the ShardManager"):
            sharded.execute(per_value_queries()[0])

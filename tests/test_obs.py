"""Tests for the observability subsystem: metrics, tracing, EXPLAIN ANALYZE.

Covers the metrics registry (instruments, snapshots, Prometheus text,
multi-registry merging), the tracer (span trees, ring buffer, slow-query
log, and the zero-allocation no-op fast path), ``explain_analyze`` on
both executor front doors and the serving layer, and the per-backend cost
feedback counters.
"""

from __future__ import annotations

import asyncio
import sys

import pytest

from repro.engine import CostModel, Executor
from repro.functions import LinearFunction
from repro.functions.linear import sum_function
from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    MetricsRegistry,
    NullSpan,
    NullTracer,
    Tracer,
    estimated_vs_actual,
    misestimation_report,
    percentile,
    render_trace,
)
from repro.query import Predicate, TopKQuery
from repro.shard import RangeShardingPolicy, ScatterGatherExecutor, ShardManager
from repro.storage.table import Relation, Schema
from repro.workloads import (
    SyntheticSpec,
    distinct_serving_queries,
    generate_relation,
    make_sharded_engine,
)


def small_relation(seed: int = 400):
    return generate_relation(SyntheticSpec(
        num_tuples=400, num_selection_dims=2, num_ranking_dims=2,
        cardinality=4, seed=seed))


def stratified_engine(num_rows: int = 240):
    """A-value strata with disjoint ranking ranges over 3 range shards.

    Shard s holds scores in [s/3, s/3 + 0.25), so a bounded scatter runs
    the first (most promising) leg and provably skips the rest — the
    deterministic setup for pruned/skipped leg rendering.
    """
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
    return relation, ScatterGatherExecutor(manager)


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 99) == 0.0

    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 50) == 50.0
        assert percentile(values, 99) == 99.0
        assert percentile(values, 100) == 100.0
        assert percentile([7.0], 50) == 7.0

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        counter = registry.counter("engine.queries")
        counter.inc()
        counter.inc(2.0)
        gauge = registry.gauge("serve.pending")
        gauge.set(5)
        hist = registry.histogram("serve.latency_seconds", window=4)
        for v in (1.0, 2.0, 3.0):
            hist.observe(v)
        assert counter.value == 3.0
        assert gauge.value == 5.0
        assert hist.count == 3
        assert hist.mean == 2.0
        assert hist.percentile(50) == 2.0

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")
        assert registry.histogram("a.h") is registry.histogram("a.h")

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a.b")
        with pytest.raises(ValueError):
            registry.gauge("a.b")
        with pytest.raises(ValueError):
            registry.histogram("a.b")

    def test_histogram_window_rolls_but_lifetime_totals_persist(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", window=3)
        for v in (1.0, 2.0, 3.0, 4.0, 5.0):
            hist.observe(v)
        assert hist.values() == [3.0, 4.0, 5.0]
        assert hist.count == 5
        assert hist.sum == 15.0

    def test_snapshot_expands_histograms(self):
        registry = MetricsRegistry()
        registry.counter("engine.queries").inc(7.0)
        hist = registry.histogram("engine.latency_seconds")
        for v in (0.1, 0.2, 0.3):
            hist.observe(v)
        snap = registry.snapshot()
        assert snap["engine.queries"] == 7.0
        assert snap["engine.latency_seconds.count"] == 3.0
        assert snap["engine.latency_seconds.p50"] == 0.2
        assert snap["engine.latency_seconds.mean"] == pytest.approx(0.2)

    def test_to_json_round_trips(self):
        import json

        registry = MetricsRegistry()
        registry.counter("a").inc()
        assert json.loads(registry.to_json())["a"] == 1.0

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("engine.tuples_evaluated").inc(42.0)
        registry.gauge("serve.pending").set(3)
        hist = registry.histogram("serve.queue_wait_seconds")
        hist.observe(0.5)
        text = registry.render_prometheus()
        assert "# TYPE repro_engine_tuples_evaluated counter" in text
        assert "repro_engine_tuples_evaluated 42" in text
        assert "# TYPE repro_serve_pending gauge" in text
        assert "# TYPE repro_serve_queue_wait_seconds summary" in text
        assert 'repro_serve_queue_wait_seconds{quantile="0.99"} 0.5' in text
        assert "repro_serve_queue_wait_seconds_count 1" in text

    def test_merged_snapshot_sums_counters_and_pools_reservoirs(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("engine.queries").inc(2.0)
        b.counter("engine.queries").inc(3.0)
        ha = a.histogram("engine.latency_seconds")
        hb = b.histogram("engine.latency_seconds")
        for v in (1.0, 1.0, 1.0, 1.0):
            ha.observe(v)
        hb.observe(100.0)
        merged = MetricsRegistry.merged([a, b, a]).snapshot()
        # ``a`` listed twice counts once.
        assert merged["engine.queries"] == 5.0
        assert merged["engine.latency_seconds.count"] == 5.0
        # Pooled percentile over the union {1,1,1,1,100}: p50 is 1, not
        # the mean of per-registry p50s (50.5).
        assert merged["engine.latency_seconds.p50"] == 1.0
        assert merged["engine.latency_seconds.p99"] == 100.0


class TestTracer:
    def test_span_tree_with_fake_clock(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        root = tracer.trace("serve.request")
        child = root.child("engine.plan").set("backend", "table-scan")
        child.finish()
        root.finish()
        trace = root.trace
        assert trace.root is root
        assert [s.name for s in trace.spans] == ["serve.request",
                                                 "engine.plan"]
        assert trace.children_of(root) == [child]
        assert trace.find("engine.plan") == [child]
        assert child.attrs["backend"] == "table-scan"
        assert child.duration == 1.0
        assert trace.duration == 3.0

    def test_explicit_start_and_end(self):
        tracer = Tracer(clock=lambda: 10.0)
        root = tracer.trace("r", start=4.0)
        wait = root.child("serve.queue_wait", start=4.0).finish(end=9.0)
        assert wait.duration == 5.0
        root.finish()
        assert root.duration == 6.0

    def test_finish_is_idempotent(self):
        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        root = tracer.trace("r")
        root.finish()
        end = root.end
        root.finish()
        assert root.end == end
        assert tracer.traces_recorded == 1

    def test_ring_buffer_bound(self):
        tracer = Tracer(ring_size=3)
        for i in range(5):
            tracer.trace(f"t{i}").finish()
        names = [trace.root.name for trace in tracer.recent()]
        assert names == ["t2", "t3", "t4"]
        assert tracer.traces_recorded == 5

    def test_slow_query_log_threshold(self):
        clock = {"now": 0.0}

        def fake_clock():
            return clock["now"]

        tracer = Tracer(slow_threshold=1.0, clock=fake_clock)
        fast = tracer.trace("fast")
        clock["now"] = 0.5
        fast.finish()
        slow = tracer.trace("slow")
        clock["now"] = 2.0
        slow.finish()
        logged = tracer.slow_queries()
        assert [trace.root.name for trace in logged] == ["slow"]
        assert tracer.slow_traces == 1

    def test_context_manager_finishes(self):
        tracer = Tracer()
        with tracer.trace("r") as root:
            with root.child("c"):
                pass
        assert tracer.traces_recorded == 1
        assert root.end is not None

    def test_validation(self):
        with pytest.raises(ValueError):
            Tracer(ring_size=0)
        with pytest.raises(ValueError):
            Tracer(slow_log_size=0)
        with pytest.raises(ValueError):
            Tracer(slow_threshold=-1.0)


class TestNullObjects:
    def test_null_tracer_hands_back_the_singleton(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert not NULL_TRACER.enabled
        span = NULL_TRACER.trace("engine.execute")
        assert span is NULL_SPAN
        assert span.child("x") is NULL_SPAN
        assert span.set("k", 1) is NULL_SPAN
        assert span.annotate(k=1) is NULL_SPAN
        assert span.finish() is NULL_SPAN
        assert NULL_TRACER.recent() == []
        assert NULL_TRACER.slow_queries() == []

    def test_null_span_is_falsy_real_span_truthy(self):
        assert not NULL_SPAN
        assert bool(NullSpan()) is False
        assert bool(Tracer().trace("r"))

    def test_disabled_tracing_allocates_nothing(self):
        """The hot-path contract: the no-op tracer adds zero allocations."""
        def instrumented_request():
            span = NULL_TRACER.trace("engine.execute")
            plan = span.child("engine.plan")
            plan.set("backend", "table-scan").set("estimated_cost", 1.5)
            plan.finish()
            run = span.child("engine.run")
            run.set("tuples_evaluated", 10)
            run.finish()
            span.finish()

        for _ in range(50):  # warm up caches (bytecode, small ints)
            instrumented_request()
        deltas = []
        for _ in range(5):
            before = sys.getallocatedblocks()
            for _ in range(50):
                instrumented_request()
            deltas.append(sys.getallocatedblocks() - before)
        # A real per-call allocation would cost >= 50 blocks every trial;
        # the min filters one-off interpreter noise (e.g. gc bookkeeping).
        assert min(deltas) == 0, deltas


    def test_a_live_tracer_changes_no_answer_and_records_its_traces(self):
        """The tracing gate at its benchmark size, in counts: one engine,
        its tracer swapped from the null object to a live one, answers the
        repeat-free serving workload identically, solo and fused."""
        relation = generate_relation(SyntheticSpec(
            num_tuples=6000, num_selection_dims=3, num_ranking_dims=2,
            cardinality=8, seed=23))
        engine = Executor.for_relation(relation, block_size=200,
                                       with_signature=False,
                                       with_skyline=False)
        queries = distinct_serving_queries(relation)

        def answers():
            engine.result_cache.invalidate()
            solo = [engine.execute(query) for query in queries]
            engine.result_cache.invalidate()
            return [(result.tids, result.scores)
                    for result in solo + engine.execute_many(queries)]

        assert engine.tracer is NULL_TRACER
        untraced = answers()
        engine.tracer = Tracer(ring_size=64, slow_threshold=10.0)
        assert answers() == untraced
        # One trace per solo query, one for the fused batch.
        assert engine.tracer.traces_recorded == len(queries) + 1
        assert engine.metrics_snapshot()["engine.queries"] == 4 * len(queries)


class TestExplainAnalyzeEngine:
    @pytest.fixture(scope="class")
    def engine(self):
        return Executor.for_relation(small_relation(), block_size=50)

    def query(self):
        return TopKQuery(Predicate.of(A1=1),
                         LinearFunction(["N1", "N2"], [1.0, 1.0]), 5)

    def test_renders_plan_run_and_cost_table(self, engine):
        text = engine.explain_analyze(self.query())
        assert "engine.explain_analyze" in text
        assert "engine.plan" in text
        assert "cost_estimates=" in text
        assert "estimated_cost=" in text
        assert "engine.run" in text
        assert "tuples_evaluated=" in text
        assert "returned 5 rows via" in text
        assert "estimated cost vs actual tuples evaluated:" in text
        assert "actual/estimated=" in text

    def test_leaves_no_cache_residue_and_matches_plain_execution(self, engine):
        query = self.query()
        plain = engine.execute(query)
        entries_before = engine.metrics_snapshot()["engine.result_entries"]
        engine.explain_analyze(query)
        assert engine.metrics_snapshot()["engine.result_entries"] == \
            entries_before
        again = engine.execute(query)
        assert again.tids == plain.tids
        assert again.scores == plain.scores

    def test_does_not_touch_the_engines_own_ring(self, engine):
        tracer = Tracer(ring_size=4)
        engine.tracer = tracer
        try:
            engine.explain_analyze(self.query())
            assert tracer.recent() == []
        finally:
            engine.tracer = NULL_TRACER

    def test_cost_feedback_counters(self, engine):
        engine.result_cache.invalidate()
        for value in range(4):
            engine.execute(TopKQuery(
                Predicate.of(A1=value % 4),
                LinearFunction(["N1", "N2"], [1.0, 1.0]), 3))
        snap = engine.metrics_snapshot()
        costed = [name for name in snap
                  if name.startswith("planner.costed_queries.")]
        assert costed, snap
        backend = costed[0].split(".")[-1]
        assert snap[f"planner.estimated_cost_total.{backend}"] > 0.0
        assert f"planner.actual_cost_total.{backend}" in snap
        assert f"planner.actual_tuples_total.{backend}" in snap
        assert f"planner.misestimates.{backend}" in snap
        report = misestimation_report(snap)
        assert backend in report
        assert "costed queries" in report

    def test_actual_cost_is_measured_time_in_the_estimates_unit(self):
        # A unit of one whole second makes every run worth almost nothing:
        # the actual cost reads time, not tuples, and each solo run is a
        # misestimate of its (far larger) estimate.  Fused members add
        # their time but are never judged.  (PAPER routes these to the
        # grid, which fuses.)
        engine = Executor.for_relation(
            small_relation(), block_size=50,
            cost_model=CostModel(**CostModel.PAPER, unit_seconds=1.0))
        function = LinearFunction(["N1", "N2"], [1.0, 1.0])
        for value in range(4):
            engine.execute(TopKQuery(Predicate.of(A1=value), function, 3))
        engine.execute_many([TopKQuery(Predicate.of(A2=value), function, 3)
                             for value in range(4)])
        snap = engine.metrics_snapshot()
        assert snap["engine.fused_queries"] > 0
        prefix = "planner.costed_queries."
        costed = sum(v for n, v in snap.items() if n.startswith(prefix))
        missed = sum(v for n, v in snap.items()
                     if n.startswith("planner.misestimates."))
        actual = sum(v for n, v in snap.items()
                     if n.startswith("planner.actual_cost_total."))
        tuples = sum(v for n, v in snap.items()
                     if n.startswith("planner.actual_tuples_total."))
        assert costed == 8
        assert missed == costed - snap["engine.fused_queries"]
        assert 0.0 < actual < 1.0 < tuples

    def test_the_ratio_is_the_work_spans_time_over_the_unit(self):
        # 5 us of backend time at 10 ns per unit is 500 units against an
        # estimate of 100, whatever the 7 tuples scored.
        root = Tracer().trace("r", start=0.0)
        (root.child("engine.plan", start=0.0).set("backend", "table-scan")
         .set("estimated_cost", 100.0).finish(end=0.0))
        (root.child("engine.run", start=0.0).set("backend", "table-scan")
         .set("tuples_evaluated", 7).finish(end=5e-6))
        root.finish(end=1.0)
        text = render_trace(root.trace, unit_seconds=1e-8)
        assert ("table-scan  estimated=100.0  actual=7  actual_cost=500.0  "
                "actual/estimated=5.00") in text
        # A front door renders in its own cost model's unit: a unit of
        # 1000 s makes any run's actual cost round to 0.
        engine = Executor.for_relation(
            small_relation(), block_size=50,
            cost_model=CostModel(unit_seconds=1e3))
        text = engine.explain_analyze(self.query())
        assert "actual_cost=0.0  actual/estimated=0.00" in text

    def test_misestimation_report_empty_snapshot(self):
        assert "no cost-feedback" in misestimation_report({})

    def test_metrics_snapshot_namespaces(self, engine):
        snap = engine.metrics_snapshot()
        assert "engine.queries" in snap
        assert "engine.tuples_evaluated" in snap
        assert "engine.latency_seconds.p95" in snap
        assert "engine.bound_entries" in snap
        assert "engine.fused_queries" in snap


class TestExplainAnalyzeSharded:
    def test_renders_legs_and_nested_engine_spans(self):
        relation = small_relation(seed=401)
        _, engine = make_sharded_engine(relation, 3, range_dim="A1",
                                        block_size=50, with_signature=False,
                                        with_skyline=False)
        query = TopKQuery(Predicate.of(A1=1),
                          LinearFunction(["N1", "N2"], [1.0, 1.0]), 5)
        text = engine.explain_analyze(query)
        assert "shard.explain_analyze" in text
        assert "shard.execute" in text
        assert "shards_pruned=" in text
        assert "shard.leg" in text
        assert "engine.plan" in text
        assert "shard.gather" in text
        assert "merged_rows=" in text
        assert "estimated cost vs actual tuples evaluated:" in text

    def test_a_warm_front_door_still_renders_what_every_leg_ran(self):
        """``explain_analyze`` after ``execute`` of the same query renders
        each leg's real plan and run, never a stale shard-level cache
        hit: the shard stacks hold no answers of the scatter's legs."""
        relation = generate_relation(SyntheticSpec(
            num_tuples=4000, num_selection_dims=2, num_ranking_dims=2,
            cardinality=4, seed=403))
        _, engine = make_sharded_engine(relation, 3, block_size=100,
                                        with_signature=False,
                                        with_skyline=False)
        query = TopKQuery(Predicate.of(A1=1),
                          LinearFunction(["N1", "N2"], [1.0, 1.0]), 5)
        cold = engine.explain_analyze(query)
        engine.execute(query)
        warm = engine.explain_analyze(query)
        legs = cold.count("shard.leg")
        assert legs == 3
        for text in (cold, warm):
            assert "result_cache=hit" not in text
            assert text.count("shard.leg") == legs
            assert text.count("engine.plan") == legs
            assert text.count("engine.run") == legs

    def test_renders_skipped_legs_with_reason(self):
        _, engine = stratified_engine()
        query = TopKQuery(Predicate.of(), sum_function(["X", "Y"]), 5)
        text = engine.explain_analyze(query)
        assert "skipped=" in text
        assert "score floor" in text
        snap = engine.metrics_snapshot()
        assert snap["shard.legs_skipped"] >= 2.0
        assert snap["shard.legs_run"] >= 1.0

    def test_scatter_metrics_snapshot_merges_shard_engines(self):
        _, engine = stratified_engine()
        engine.execute(TopKQuery(Predicate.of(A=1),
                                 sum_function(["X", "Y"]), 3))
        snap = engine.metrics_snapshot()
        assert snap["shard.queries"] == 1.0
        # engine.* counters come from the per-shard executors' registries.
        assert snap["engine.queries"] >= 1.0
        # The per-shard bound caches sum under their engine.* names.
        assert "engine.bound_entries" in snap
        assert "shard.result_entries" in snap


class TestServedExplainAnalyze:
    def test_one_tree_from_queue_wait_to_gather(self):
        from repro.serve import QueryService, ServiceConfig

        relation = small_relation(seed=402)
        manager, engine = make_sharded_engine(
            relation, 3, range_dim="A1", block_size=50,
            with_signature=False, with_skyline=False,
            cost_model=CostModel(**CostModel.PAPER))
        function = LinearFunction(["N1", "N2"], [1.0, 1.0])
        target = TopKQuery(Predicate.of(A1=1, A2=2), function, 5)
        peers = [TopKQuery(Predicate.of(A1=value), function, 3)
                 for value in (0, 1, 2)]
        config = ServiceConfig(max_batch_size=16, max_linger=0.05)

        async def run() -> str:
            async with QueryService(engine, config,
                                    manager=manager) as service:
                others = [asyncio.ensure_future(service.submit(peer))
                          for peer in peers]
                text = await service.explain_analyze(target)
                await asyncio.gather(*others)
                return text

        text = asyncio.run(run())
        assert "serve.request" in text
        assert "serve.queue_wait" in text
        assert "batch_size=4" in text
        assert "shard.execute_many" in text
        assert "shard.fused_scatter" in text
        assert "shard.leg" in text
        assert "riders=" in text
        assert "engine.fused_sweep" in text
        assert "attributed_shares=" in text
        assert "shard.gather" in text
        assert "engine.plan" in text
        assert "estimated cost vs actual tuples evaluated:" in text

    def test_estimated_vs_actual_attributes_fused_work(self):
        tracer = Tracer()
        root = tracer.trace("r")
        (root.child("engine.plan").set("backend", "ranking-cube")
         .set("estimated_cost", 10.0).finish())
        (root.child("engine.plan").set("backend", "ranking-cube")
         .set("estimated_cost", 20.0).finish())
        (root.child("engine.fused_sweep").set("backend", "ranking-cube")
         .set("tuples_evaluated", 12).finish())
        root.finish()
        table = estimated_vs_actual(root.trace)
        assert table == {"ranking-cube": (30.0, 12.0)}
        text = render_trace(root.trace)
        assert "ranking-cube" in text
        assert "estimated=30.0" in text
        assert "actual=12" in text

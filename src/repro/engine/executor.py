"""The engine front door: plan, route, execute, and batch queries.

:class:`Executor` is the single entry point the rest of the system (CLI,
examples, services) talks to.  It owns an :class:`EngineRegistry`, a
:class:`Planner` over it, and one :class:`LowerBoundCache` shared by every
registered backend that can use it: a sweep bounds a grid's blocks at
once through ``lower_bound_batch``, so the cache serves only functions
without one (expression trees, constrained functions, user subclasses).

Both front doors end in one private group runner: ``execute`` is a cache
lookup, else a group of one; ``execute_many`` partitions a batch into
groups.  A backend is invoked, its span named, and a result annotated,
cost-fed and cached in :meth:`Executor._run_group` only.  A result's
``extra["plan"]`` is the :class:`QueryPlan` itself, rendered only where it
is read (``str(plan)`` is :meth:`QueryPlan.describe`): a scatter leg's
result is never rendered.

One freshness rule keeps the result cache honest: :meth:`Executor.sync`
reads the rows appended to a watched (append-only) relation since its last
count and drops the cached answers they can affect.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER
from repro.query import TopKQuery
from repro.storage.table import Relation

from repro.engine.backends import (
    RankingCubeBackend,
    SkylineScanBackend,
    TableScanBackend,
)
from repro.engine.cache import (
    LowerBoundCache,
    ResultCache,
    answer_repeats,
    function_fuse_key,
    partition_batch,
    query_cache_key,
)
from repro.engine.cost import CostModel, StatisticsCatalog
from repro.engine.plan import MODE_COST, QueryPlan

from repro.engine.planner import Planner
from repro.engine.registry import Backend, EngineRegistry


class Executor:
    """Front door over the registry/planner with shared bound/result caches.

    ``planner_mode`` selects cost-based (default) or static backend
    selection for the default planner; it is ignored when an explicit
    ``planner`` is injected.  The executor owns a
    :class:`~repro.engine.cost.StatisticsCatalog` of per-relation profiles
    that the cost-based planner reads; a profile is kept while its row
    count is the relation's, so an append re-profiles on the next plan.
    """

    #: A call runs on its caller's thread and never waits with the GIL
    #: released (see :class:`~repro.serve.service.QueryService`).
    holds_gil = True

    def __init__(self, registry: Optional[EngineRegistry] = None,
                 planner: Optional[Planner] = None,
                 cost_model: Optional[CostModel] = None,
                 planner_mode: str = MODE_COST,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer=None) -> None:
        self.registry = registry or EngineRegistry()
        self.statistics = StatisticsCatalog()
        self.planner = planner or Planner(self.registry,
                                          cost_model=cost_model,
                                          statistics=self.statistics.of,
                                          mode=planner_mode)
        self.bound_cache = LowerBoundCache()
        self.result_cache = ResultCache()
        #: id -> (watched relation, its row count at the last sync).
        self._watched: Dict[int, Tuple[Relation, int]] = {}
        #: Where engine.* counters/histograms publish; shareable with the
        #: serving layer so one registry covers the whole stack.
        self.metrics = metrics or MetricsRegistry()
        #: Off by default: the null tracer's spans are no-op singletons.
        self.tracer = tracer or NULL_TRACER
        self.planner.decisions = self.metrics.counter("planner.decisions")
        self._m_queries = self.metrics.counter("engine.queries")
        self._m_batches = self.metrics.counter("engine.batches")
        self._m_tuples = self.metrics.counter("engine.tuples_evaluated")
        self._m_fused_groups = self.metrics.counter("engine.fused_groups")
        self._m_fused_queries = self.metrics.counter("engine.fused_queries")
        self._m_latency = self.metrics.histogram("engine.latency_seconds")
        # Per-backend cost-feedback counters, created on first costed
        # execution (dict lookup on the hot path, no string formatting).
        self._cost_feedback: Dict[str, Tuple] = {}

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, backend: Backend, replace: bool = False) -> Backend:
        """Register a backend, hand it the shared lower-bound cache and
        watch the relation it answers over."""
        self.registry.register(backend, replace=replace)
        backend.attach_bound_cache(self.bound_cache)
        if backend.relation is not None:
            self.watch_relation(backend.relation)
        return backend

    @property
    def cost_model(self) -> CostModel:
        """The planner's cost model; ``unit_seconds`` is its estimates' unit."""
        return self.planner.cost_model

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def plan(self, query) -> QueryPlan:
        """Expose the planner's routing decision without executing."""
        return self.planner.plan(query)

    def explain(self, query) -> str:
        """One-line explanation of how ``query`` would be routed."""
        return self.planner.explain(query)

    def execute(self, query, *, parent_span=None, use_result_cache=True,
                on_progress=None):
        """Plan ``query``, run it on the chosen backend, annotate the result.

        ``on_progress`` opts into streaming: backends exposing a
        ``run_stream`` (the grid ranking cube) emit verified top-k
        prefixes as ``on_progress(start_rank, [(tid, score), ...])``
        while the sweep runs; other backends — and result-cache hits —
        simply return the final answer without intermediate calls.  The
        returned result is identical either way.

        Results of cacheable queries (top-k and skyline) are memoized in
        :attr:`result_cache` under their canonical query key; from its third
        arrival the same logical query (same predicate, function by value
        and ``k``) returns the cached answer without planning or execution
        (``extra["result_cache"]`` says which happened), with the
        statistics of the run that produced it.

        ``parent_span`` threads an enabled trace through (the span tree
        gains ``engine.execute`` → ``engine.plan`` / ``engine.run``
        children); without one the executor's own :attr:`tracer` roots
        the trace — the null object when tracing is off.
        ``use_result_cache=False`` bypasses lookup *and* store, the
        ``explain_analyze`` contract: the rendered plan and execution
        really happened, and the run leaves no cache residue behind.
        """
        span = (parent_span.child("engine.execute")
                if parent_span is not None
                else self.tracer.trace("engine.execute"))
        started = time.perf_counter()
        self._m_queries.inc()
        try:
            self.sync()
            key = query_cache_key(query) if use_result_cache else None
            if key is not None:
                hit = self.result_cache.lookup(key)
                if hit is not None:
                    span.set("result_cache", "hit")
                    return hit
            plan = self._plan_traced(query, span)
            return self._run_group(span, [(query, plan, key)],
                                   on_progress=on_progress)[0]
        finally:
            self._m_latency.observe(time.perf_counter() - started)
            span.finish()

    def _plan_traced(self, query, span) -> QueryPlan:
        """Plan under an ``engine.plan`` child span carrying the evidence."""
        plan_span = span.child("engine.plan")
        try:
            plan = self.planner.plan(query)
        finally:
            plan_span.finish()
        if plan_span:
            plan_span.set("backend", plan.backend).set("mode", plan.mode)
            if plan.estimates:
                # Stored structured; the explain renderer formats pair
                # tuples lazily, keeping float formatting off the hot path.
                plan_span.set("cost_estimates", plan.estimates)
            estimated = plan.details.get("estimated_cost")
            if estimated is not None:
                plan_span.set("estimated_cost", float(estimated))
        return plan

    def _record_cost_feedback(self, plan: QueryPlan, tuples: float,
                              seconds: float, *, judged: bool) -> None:
        """Feed estimated-vs-actual into the per-backend planner counters:
        the actual cost is ``seconds`` over the cost model's
        ``unit_seconds`` (the estimate's unit), and ``judged`` runs more
        than 4x off either way count as ``planner.misestimates`` (fused
        members are not judged: their estimates priced solo runs)."""
        estimated = plan.details.get("estimated_cost")
        if estimated is None:
            return
        counters = self._cost_feedback.get(plan.backend)
        if counters is None:
            name = plan.backend
            counters = (
                self.metrics.counter(f"planner.costed_queries.{name}"),
                self.metrics.counter(f"planner.estimated_cost_total.{name}"),
                self.metrics.counter(f"planner.actual_cost_total.{name}"),
                self.metrics.counter(f"planner.actual_tuples_total.{name}"),
                self.metrics.counter(f"planner.misestimates.{name}"),
            )
            self._cost_feedback[plan.backend] = counters
        costed, est_total, cost_total, tuples_total, misses = counters
        actual = seconds / self.cost_model.unit_seconds
        costed.inc()
        est_total.inc(float(estimated))
        cost_total.inc(actual)
        tuples_total.inc(tuples)
        if judged:
            high = max(float(estimated), actual, 1.0)
            low = max(min(float(estimated), actual), 1.0)
            if high / low > 4.0:
                misses.inc()

    def execute_many(self, queries: Iterable, *, parent_span=None,
                     use_result_cache=True) -> List:
        """Execute a batch of queries, fusing shared work across the batch.

        Results come back in submission order.  Cached queries are served
        from the result cache without planning (a fully cached batch plans
        nothing); batch repeats of one canonical :func:`query_cache_key`
        copy the answer of its one execution, tagged ``result_cache="hit"``,
        so each distinct logical query is planned exactly once per batch.
        The remaining misses are grouped by ``(chosen backend, canonical ranking-function key)`` and
        each group runs exactly as :meth:`execute` runs its group of one;
        a group of two or more is handed to the backend's
        :meth:`~repro.engine.registry.Backend.execute_batch` — fusion-aware
        backends (grid and signature cubes) answer the whole group with one
        frontier sweep / tree traversal, scoring shared tuples once;
        everything else falls back to the per-query loop.  Answers are
        bit-identical to looping :meth:`execute` either way.

        Every batch-executed result records ``fused_group_size`` and its
        solo-equivalent ``tuples_evaluated`` in ``extra``; the ``tuples_evaluated`` *field*
        of fused results is the query's attributed share of the shared
        work, so summing a batch never double-counts a tuple the sweep
        scored once.

        ``parent_span`` threads an enabled trace through exactly as in
        :meth:`execute`; the batch's tree gains ``engine.plan`` children
        per planned unit and one ``engine.fused_sweep`` (with
        ``attributed_shares``) or ``engine.run`` child per group.
        ``use_result_cache=False`` is :meth:`execute`'s contract for the
        batch (nothing keyed, so repeats are not deduplicated); scatter
        legs pass it, their front door already caches and deduplicates.
        """
        queries = list(queries)
        if not queries:
            return []
        span = (parent_span.child("engine.execute_many")
                if parent_span is not None
                else self.tracer.trace("engine.execute_many"))
        started = time.perf_counter()
        self._m_batches.inc()
        self._m_queries.inc(float(len(queries)))
        try:
            if span:
                span.set("batch_size", len(queries))
            self.sync()
            results, units, repeats = partition_batch(
                queries, self.result_cache if use_result_cache else None)

            plans = [self._plan_traced(query, span)
                     for _, query, _ in units]
            groups: Dict[tuple, List[int]] = {}
            for position, (_, query, _) in enumerate(units):
                if isinstance(query, TopKQuery):
                    group_key = (plans[position].backend,
                                 function_fuse_key(query.function))
                else:
                    group_key = ("ungrouped", position)
                groups.setdefault(group_key, []).append(position)

            for members in groups.values():
                group_results = self._run_group(
                    span, [(units[position][1], plans[position],
                            units[position][2]) for position in members],
                    batch=True)
                for position, result in zip(members, group_results):
                    results[units[position][0]] = result

            answer_repeats(results, repeats)
            return results
        finally:
            self._m_latency.observe(time.perf_counter() - started)
            span.finish()

    def _run_group(self, span, members: Sequence[tuple], *,
                   batch: bool = False, on_progress=None) -> List:
        """Run one ``(query, plan, cache key)`` group on its backend.

        The one place a backend is invoked and a result annotated, fed to
        the cost counters and cached.  A group of one goes through
        :meth:`~repro.engine.registry.Backend.run` (``run_stream`` when the
        caller streams and the backend can) under ``engine.run``; a larger
        group through ``execute_batch``, under ``engine.fused_sweep`` when
        the backend shares work across it and ``engine.run_batch`` when it
        loops.  ``batch`` marks the :meth:`execute_many` front door, whose
        results also carry ``fused_group_size`` and the ``tuples_evaluated``
        the query would have cost alone.
        """
        backend = self.registry.get(members[0][1].backend)
        queries = [query for query, _, _ in members]
        fused = len(members) > 1 and backend.supports_fusion
        started = time.perf_counter()
        if len(members) == 1:
            group_span = span.child("engine.run").set("backend", backend.name)
            run_stream = (getattr(backend, "run_stream", None)
                          if on_progress is not None else None)
            results = [run_stream(queries[0], on_progress)
                       if run_stream is not None else backend.run(queries[0])]
        else:
            group_span = (span.child("engine.fused_sweep" if fused
                                     else "engine.run_batch")
                          .set("backend", backend.name))
            if fused:
                group_span.set("group_size", len(members))
            results = backend.execute_batch(queries)
        elapsed = time.perf_counter() - started
        # The per-member shares of a shared sweep: summing them never
        # double-counts a tuple the sweep scored once.
        shares = [float(getattr(result, "tuples_evaluated", 0))
                  for result in results]
        group_span.set("tuples_evaluated", sum(shares))
        if fused:
            group_span.set("attributed_shares", tuple(shares))
            self._m_fused_groups.inc()
            self._m_fused_queries.inc(len(members))
        group_span.finish()
        for (_, plan, key), result, share in zip(members, results, shares):
            result.extra["backend"] = plan.backend
            result.extra["plan"] = plan
            if batch:
                # A default execute_batch is a per-query loop: no work was
                # shared, so it does not report a fused group.
                result.extra["fused_group_size"] = float(
                    len(members) if fused else 1)
                # Fused sweeps record the solo-equivalent count themselves;
                # for per-query execution the field already is that count
                # (skyline results carry no tuple counter).
                result.extra.setdefault("tuples_evaluated", share)
            self._m_tuples.inc(share)
            self._record_cost_feedback(
                plan, float(result.extra.get("tuples_evaluated", share)),
                elapsed / len(members), judged=not fused)
            if key is not None:
                self.result_cache.store(key, result)
        return results

    def observed(self) -> List[MetricsRegistry]:
        """This engine's registry, its cache gauges set to what the caches
        hold now (``engine.bound_*`` and ``engine.result_*``), synced first."""
        self.sync()
        bound = self.bound_cache
        for name, value in (("entries", len(bound)), ("hits", bound.hits),
                            ("misses", bound.misses)):
            self.metrics.gauge(f"engine.bound_{name}").set(value)
        self.result_cache.publish(self.metrics, "engine")
        return [self.metrics]

    def metrics_snapshot(self) -> Dict[str, float]:
        """The flat ``{name: float}`` view of :meth:`observed`."""
        return MetricsRegistry.merged(self.observed()).snapshot()

    def explain_analyze(self, query) -> str:
        """Run ``query`` traced (result cache bypassed) and render the trace.

        The rendered text is the span tree — plan with per-candidate cost
        estimates, the backend run with its tuple count — followed by the
        per-backend estimated-cost vs. actual-tuples table.  Uses a
        private tracer, so it works (and stays side-effect-free on the
        ring buffer) whether or not :attr:`tracer` is enabled.
        """
        from repro.obs.explain import analyze_with

        return analyze_with(self, query, "engine.explain_analyze")

    def insert(self, relation: Relation, tid: int,
               row: Mapping[str, object]) -> bool:
        """Bring the backends up to date with row ``tid`` just appended.

        Every backend over ``relation`` that ``maintains_inserts`` absorbs
        the row; one that does not (or a join's, over several relations)
        is marked ``stale`` and the planner no longer routes to it.  The
        caches learn of the row from :meth:`sync`; the executor, its
        planner and its bound cache stay.  Returns whether no backend is
        stale (nothing to rebuild).
        """
        for backend in self.registry:
            if backend.maintains_inserts:
                if backend.relation is relation:
                    backend.insert(tid, row)
            elif backend.relation in (relation, None):
                backend.stale = True
        return not any(backend.stale for backend in self.registry)

    def sync(self) -> None:
        """Drop the cached answers the rows appended to a watched relation
        since the last sync can affect (see :meth:`ResultCache.invalidate`).

        Reads and metrics views sync first; the serving layer syncs right
        after a write, so the drop lands on the write's time.
        """
        for ident, (relation, seen) in self._watched.items():
            rows = relation.num_tuples
            if rows != seen:
                for tid in range(seen, rows):
                    self.result_cache.invalidate(
                        row=relation.selection_values(tid))
                # Counted only once dropped: a metrics view syncing on
                # another thread may drop twice, never serve a stale entry.
                self._watched[ident] = (relation, rows)

    def note_mutation(self, relation: Relation,
                      row: Optional[Mapping[str, object]] = None) -> None:
        """After a direct append to a watched relation: :meth:`sync` (the
        relation's new rows say what changed, so the arguments add
        nothing)."""
        self.sync()

    def watch_relation(self, relation: Relation) -> None:
        """Have :meth:`sync` read the rows appended to ``relation``.

        :meth:`register` watches every backend's relation; a ranked join's
        stack watches each relation it spans.  Watching keeps the *caches*
        honest, nothing more: a row reaches the backends through
        :meth:`insert`, which the write paths (``ShardManager.insert``,
        ``QueryService.insert``) call, and a backend that cannot absorb it
        is marked stale; after a bare ``Relation.append`` nothing is.
        """
        self._watched.setdefault(id(relation), (relation, relation.num_tuples))

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_relation(cls, relation: Relation, *, block_size: int = 300,
                     include_fragments: bool = False,
                     fragment_size: int = 2,
                     with_signature: bool = False,
                     with_skyline: bool = True,
                     planner_mode: str = MODE_COST,
                     cost_model: Optional[CostModel] = None) -> "Executor":
        """Build the default single-relation engine stack.

        Registers the grid ranking cube (Chapter 3), the table-scan
        fallback and, unless ``with_skyline=False``, the boolean-first
        skyline — every one of them absorbs inserts in place.
        ``include_fragments`` additionally registers the ranking-fragments
        variant of the cube under the name ``"fragments"``.

        The signature ranking cube (Chapter 4) and BBS over its R-tree
        (Chapter 7) are not served: the planner never routed either.
        ``with_signature`` stays for callers that pass ``False``;
        :func:`repro.paper.stack.register_paper_backends` registers both
        on a built stack.
        """
        if with_signature:
            raise ValueError(
                "the signature cube is not part of the served stack; "
                "register it with repro.paper.stack.register_paper_backends"
                "(executor, relation)")
        from repro.storage.table_scan import TableScanTopK
        from repro.cube import RankingCube, build_ranking_fragments

        executor = cls(planner_mode=planner_mode, cost_model=cost_model)
        cube = RankingCube(relation, block_size=block_size)
        executor.register(RankingCubeBackend(cube))
        if include_fragments:
            fragments = build_ranking_fragments(
                relation, fragment_size=fragment_size, block_size=block_size)
            executor.register(
                RankingCubeBackend(fragments, name="fragments", priority=15))
        executor.register(TableScanBackend(TableScanTopK(relation)))
        if with_skyline:
            from repro.skyline import BooleanFirstSkyline

            executor.register(SkylineScanBackend(BooleanFirstSkyline(relation)))
        return executor

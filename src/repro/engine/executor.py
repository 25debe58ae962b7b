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
    SignatureCubeBackend,
    SkylineBackend,
    SkylineScanBackend,
    TableScanBackend,
)
from repro.engine.cache import (
    LowerBoundCache,
    ResultCache,
    function_fuse_key,
    partition_batch,
    query_cache_key,
)
from repro.engine.cost import CostModel, RelationStatistics, StatisticsCatalog
from repro.engine.plan import MODE_COST, QueryPlan

from repro.engine.planner import Planner
from repro.engine.registry import Backend, EngineRegistry


class Executor:
    """Front door over the registry/planner with shared bound/result caches.

    ``planner_mode`` selects cost-based (default) or static backend
    selection for the default planner; it is ignored when an explicit
    ``planner`` is injected.  The executor owns a
    :class:`~repro.engine.cost.StatisticsCatalog` of per-relation profiles
    that the cost-based planner reads; the catalog invalidates together
    with the result cache, so a mutation can never leave stale statistics
    behind a fresh answer.
    """

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
        self._watched_relations: List[Relation] = []
        self._watched_versions: Dict[int, int] = {}
        #: Where engine.* counters/histograms publish; shareable with the
        #: serving layer so one registry covers the whole stack.
        self.metrics = metrics or MetricsRegistry()
        #: Off by default: the null tracer's spans are no-op singletons.
        self.tracer = tracer or NULL_TRACER
        self._m_queries = self.metrics.counter("engine.queries")
        self._m_batches = self.metrics.counter("engine.batches")
        self._m_tuples = self.metrics.counter("engine.tuples_evaluated")
        self._m_plans_reused = self.metrics.counter("engine.plans_reused")
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
        """Register a backend and hand it the shared lower-bound cache."""
        self.registry.register(backend, replace=replace)
        backend.attach_bound_cache(self.bound_cache)
        return backend

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
        :attr:`result_cache` under their canonical query key; a repeat of
        the same logical query — same predicate, same function by value,
        same ``k`` — returns the cached answer without planning or
        execution (``extra["result_cache"]`` says which happened).  Cached
        results keep the statistics of the run that produced them.

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
            if self._watched_mutated():
                self.result_cache.invalidate()
                self.statistics.invalidate()
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
        actual = seconds / self.planner.cost_model.unit_seconds
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
        execute once and hit the cache afterwards, so each distinct logical
        query is planned exactly once per batch.  The remaining misses are
        grouped by ``(chosen backend, canonical ranking-function key)`` and
        each group runs exactly as :meth:`execute` runs its group of one;
        a group of two or more is handed to the backend's
        :meth:`~repro.engine.registry.Backend.execute_batch` — fusion-aware
        backends (grid and signature cubes) answer the whole group with one
        frontier sweep / tree traversal, scoring shared tuples once;
        everything else falls back to the per-query loop.  Answers are
        bit-identical to looping :meth:`execute` either way.

        Every batch-executed result records ``fused_group_size``, the
        batch's ``plans_reused``, and its solo-equivalent
        ``tuples_evaluated`` in ``extra``; the ``tuples_evaluated`` *field*
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
            if self._watched_mutated():
                self.result_cache.invalidate()
                self.statistics.invalidate()
            results, units, unit_index, followers = partition_batch(
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

            batch_plans_reused = 0
            for i, query, key in followers:
                hit = self.result_cache.lookup(key)
                if hit is None:
                    # A cache that refuses to retain results (or evicted
                    # the entry already): mirror the looped path — reuse
                    # the hoisted plan and re-execute.
                    self._m_plans_reused.inc()
                    batch_plans_reused += 1
                    [hit] = self._run_group(
                        span, [(query, plans[unit_index[key]], key)],
                        batch=True)
                results[i] = hit

            for result in results:
                result.extra["plans_reused"] = float(batch_plans_reused)
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

    def statistics_for(self, relation: Relation) -> RelationStatistics:
        """The cached :class:`RelationStatistics` profile of ``relation``.

        Profiles are recomputed when the relation's version changed, so a
        direct ``Relation.append`` is reflected on the next lookup.
        """
        return self.statistics.of(relation)

    def observed(self) -> List[MetricsRegistry]:
        """This engine's registry, its cache gauges set to what the caches
        hold now (``engine.bound_*`` and ``engine.result_*``)."""
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

    def invalidate_results(self, row: Optional[Mapping[str, object]] = None,
                           ) -> None:
        """Drop cached results and statistics; call after the data changed.

        The shard manager invokes this on every ``insert``/``reshard`` so
        neither a stale answer nor a stale relation profile can be served
        after a mutation.  When the mutation is a single inserted ``row``,
        passing it narrows the result-cache drop to the entries the row can
        affect (see :meth:`ResultCache.invalidate`); statistics are always
        re-profiled — even a non-matching row changes the relation's count.
        """
        self.result_cache.invalidate(row=row)
        self.statistics.invalidate()

    def insert(self, relation: Relation, tid: int,
               row: Mapping[str, object]) -> bool:
        """Bring the stack up to date with row ``tid`` just appended.

        Asks first: unless every registered backend
        :attr:`~repro.engine.registry.Backend.maintains_inserts`, nothing
        is touched and ``False`` comes back — the caller then has to
        rebuild the stack (or accept that its static indexes do not see
        the row).  Otherwise every backend over ``relation`` absorbs the
        row and :meth:`note_mutation` drops only the cached answers it can
        affect; the executor, its planner and its bound cache stay.
        """
        if not all(backend.maintains_inserts for backend in self.registry):
            return False
        for backend in self.registry:
            if backend.relation is relation:
                backend.insert(tid, row)
        self.note_mutation(relation, row=row)
        return True

    def note_mutation(self, relation: Relation,
                      row: Optional[Mapping[str, object]] = None) -> None:
        """Record an out-of-band mutation of ``relation`` right away.

        :meth:`insert` ends with this, and callers that append to a watched
        relation directly call it instead of letting
        :meth:`_watched_mutated` discover the version change on the next
        query: syncing the watched version *first* lets the invalidation
        stay predicate-aware (``row=...``) — the deferred discovery path
        can only widen it to a blanket clear.  It only syncs the caches;
        it is :meth:`insert` that shows the row to the backends.
        """
        if id(relation) in self._watched_versions:
            self._watched_versions[id(relation)] = relation.version
        self.invalidate_results(row=row)

    def watch_relation(self, relation: Relation) -> None:
        """Auto-invalidate cached results whenever ``relation`` mutates.

        ``for_relation`` wires this up for the relation it builds over, so
        after a direct ``Relation.append`` (the incremental maintenance
        path) the next execution re-runs instead of replaying a
        pre-mutation answer.  Scope of the guarantee: watching keeps the
        *caches* honest, nothing more.  A row reaches the
        backends through :meth:`insert`, which the write paths
        (``ShardManager.insert``, ``QueryService.insert``) call: the grid
        cube absorbs it in place and the scan backends read the live
        relation, so a stack of those answers over the current rows.
        Backends with ``maintains_inserts = False`` (the signature cube and
        the skyline engine over its R-tree, ranked joins) answer from the
        rows they were built over; :meth:`insert` refuses a stack holding
        one, the shard manager then rebuilds that shard's stack, and after a
        bare ``Relation.append`` nothing does.  Custom stacks should call
        this for every relation their backends serve.
        """
        if id(relation) not in self._watched_versions:
            self._watched_relations.append(relation)
            self._watched_versions[id(relation)] = relation.version

    def _watched_mutated(self) -> bool:
        """Whether any watched relation changed since the last check."""
        changed = False
        for relation in self._watched_relations:
            if self._watched_versions[id(relation)] != relation.version:
                self._watched_versions[id(relation)] = relation.version
                changed = True
        return changed

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def for_relation(cls, relation: Relation, *, block_size: int = 300,
                     rtree_max_entries: int = 32,
                     include_fragments: bool = False,
                     fragment_size: int = 2,
                     with_signature: bool = True,
                     with_skyline: bool = True,
                     planner_mode: str = MODE_COST,
                     cost_model: Optional[CostModel] = None) -> "Executor":
        """Build the default single-relation engine stack.

        Registers the grid ranking cube (preferred for top-k) and the
        table-scan fallback; by default also the signature ranking cube and
        both skyline engines.  Callers that only run grid top-k queries can
        pass ``with_signature=False, with_skyline=False`` to skip the
        R-tree / signature construction cost entirely.
        ``include_fragments`` additionally registers the ranking-fragments
        variant of the cube under the name ``"fragments"``.

        The signature top-k backend (Chapter 4) and the signature-pruned
        skyline backend (Chapter 7) run over the *same*
        :class:`~repro.signature.SignatureRankingCube` — one R-tree, one
        signature store.  Enabling either flag builds that structure exactly
        once; enabling both shares it, paying no duplicate construction
        cost, and with ``with_signature=False`` the top-k executor over it
        is simply never instantiated.
        """
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
        signature = None
        if with_signature or with_skyline:
            from repro.signature import SignatureRankingCube

            signature = SignatureRankingCube(relation,
                                             rtree_max_entries=rtree_max_entries)
        if with_signature:
            from repro.signature import SignatureTopKExecutor

            executor.register(
                SignatureCubeBackend(SignatureTopKExecutor(signature)))
        executor.register(TableScanBackend(TableScanTopK(relation)))
        if with_skyline:
            from repro.skyline import BooleanFirstSkyline, SkylineEngine

            executor.register(SkylineBackend(SkylineEngine(signature)))
            executor.register(SkylineScanBackend(BooleanFirstSkyline(relation)))
        executor.watch_relation(relation)
        return executor

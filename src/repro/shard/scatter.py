"""Scatter/gather execution over a sharded relation.

:class:`ScatterGatherExecutor` exposes the same ``execute`` /
``execute_many`` / ``plan`` / ``explain`` surface as the single-relation
:class:`~repro.engine.Executor`, but behind it a query is

1. *pruned* — shards whose :class:`~repro.shard.stats.ShardStatistics`
   prove the predicate unsatisfiable are skipped before any backend runs;
2. *scattered* — surviving shards execute the query through their own
   engine stacks, one leg after another on the calling thread;
3. *gathered* — per-shard top-k answers are sorted once, as arrays, into
   the canonical :func:`repro.query.topk_order_key` order, and per-shard
   skylines are re-checked for cross-shard dominance (a point on one
   shard's local skyline may be dominated by another shard's point).

There is ONE scatter algorithm, :meth:`ScatterGatherExecutor._execute_group`:
``execute_many`` groups top-k misses by ranking function and scatters
each group with one leg per shard, and a solo query — ``execute``, a
lone function in a batch, a skyline — is a group of one on the same
path.  *How* a leg runs is behind one seam, the
:class:`~repro.shard.legs.LegRunner` in ``self.legs``.

Top-k scatters are additionally *ordered and bounded* by the
engine's :class:`~repro.engine.cost.CostModel`: legs run most-promising
first (lowest attainable score over the shard's ranking ranges, fewer
expected matches on ties), and once k answers are gathered a remaining
shard whose ranking-range score floor strictly exceeds the current k-th
score is skipped outright — no tuple it holds could enter the top-k or
even tie it, so the gathered answer stays bit-identical while the scatter
touches fewer shards.

The gathered result's ``extra`` records the shards consulted, the shards
pruned with their reasons, the legs skipped by the gather bound, the leg
order, and the backend each consulted shard chose — the whole scatter is
explainable end-to-end, just like a single-engine plan.

The front door's result cache follows the engine's freshness rule: the
base relation's new rows drop the answers they can affect, a reshard drops
everything (:meth:`ScatterGatherExecutor.sync`).

Every leg is tried by ``self.guard`` (:mod:`repro.fault.guard`), and
``allow_partial`` degrades a scatter with dead shards into the exact
answer over the survivors, flagged in ``extra`` and never cached; no
retry or degradation can change an answer over the shards that answered.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.engine.cache import (
    ResultCache,
    answer_repeats,
    function_fuse_key,
    partition_batch,
    query_cache_key,
)
from repro.engine.cost import CostModel
from repro.engine.plan import (
    KIND_SKYLINE,
    KIND_TOPK,
    MODE_COST,
    MODE_STATIC,
    QueryPlan,
)
from repro.engine.registry import kind_of
from repro.errors import (
    DeadlineExceededError,
    PartialBatchError,
    PlanningError,
    ShardWorkerError,
)
from repro.fault.guard import LegCall, LegGuard
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN, NULL_TRACER
from repro.query import QueryResult, TopKQuery
from repro.shard.legs import InProcessLegs, LegRunner
from repro.shard.manager import Shard, ShardManager
from repro.skyline.engine import SkylineResult, skyline_among


def _global_tids(consulted: List[Shard], shard_results: List) -> np.ndarray:
    """Every leg's answer tids, mapped through its shard's tid map, in leg order."""
    return np.concatenate([np.empty(0, np.int64)] + [
        shard.tid_map[np.asarray(result.tids, dtype=np.int64)]
        for shard, result in zip(consulted, shard_results)])


class ScatterGatherExecutor:
    """Executor facade that scatters queries across shards and merges answers.

    Parameters
    ----------
    manager:
        The :class:`~repro.shard.manager.ShardManager` owning the shards.
    cost_model:
        The :class:`~repro.engine.cost.CostModel` ordering top-k
        scatter legs and bounding the gather (default: a fresh
        model with the stock constants).
    retry_policy:
        A :class:`~repro.fault.retry.RetryPolicy` the guard re-runs failed
        legs under, with jittered exponential backoff (default: no
        retries — a leg failure propagates on the first attempt).
    breaker_policy:
        A :class:`~repro.fault.breaker.BreakerPolicy` configuring the
        guard's lazy per-shard circuit breakers (default: no breakers).
    fault_injector:
        A :class:`~repro.fault.inject.FaultInjector` planting seeded
        chaos in the legs.  It is handed to the leg runner, whose legs
        raise :class:`~repro.fault.inject.InjectedFaultError`.
    allow_partial:
        Default partiality: when a shard stays down past retries (or
        its breaker is open), gather the exact answer over the surviving
        shards — flagged ``degraded`` in ``extra`` — instead of raising.
        Per-call ``allow_partial=`` overrides; ``False`` keeps the
        strict raise-on-failure contract.
    legs:
        The :class:`~repro.shard.legs.LegRunner` every leg is planned
        and run through (default: :class:`~repro.shard.legs.InProcessLegs`
        over the manager's own stacks).  The attribute is assignable, so
        a test can wrap it in a failing fake.
    """

    def __init__(self, manager: ShardManager, *,
                 cost_model: Optional[CostModel] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer=None,
                 retry_policy=None,
                 breaker_policy=None,
                 fault_injector=None,
                 allow_partial: bool = False,
                 legs: Optional[LegRunner] = None) -> None:
        self.manager = manager
        self.legs: LegRunner = legs or InProcessLegs(manager)
        self.cost_model = cost_model or CostModel()
        self.result_cache = ResultCache()
        # What the cache has seen: the shard list and the base row count.
        self._shards = manager.shards
        self._rows = manager.relation.num_tuples
        #: ``shard.*`` series of the scatter front door itself; the
        #: per-shard engines keep their own ``engine.*`` registries,
        #: merged on demand (see :meth:`observed`).
        self.metrics = metrics or MetricsRegistry()
        #: Off by default (the no-op null tracer).
        self.tracer = tracer or NULL_TRACER
        self._m_queries = self.metrics.counter("shard.queries")
        self._m_batches = self.metrics.counter("shard.batches")
        self._m_legs = self.metrics.counter("shard.legs_run")
        self._m_legs_skipped = self.metrics.counter("shard.legs_skipped")
        self._m_pruned = self.metrics.counter("shard.shards_pruned")
        self._m_tuples = self.metrics.counter("shard.tuples_evaluated")
        self._m_fused_groups = self.metrics.counter("shard.fused_groups")
        self._m_fused_queries = self.metrics.counter("shard.fused_queries")
        self._m_latency = self.metrics.histogram("shard.latency_seconds")
        #: How hard each leg is tried (see :mod:`repro.fault.guard`).
        self.guard = LegGuard(self.metrics, retry_policy, breaker_policy)
        if fault_injector is not None:
            self.fault_injector = fault_injector
        self.allow_partial = bool(allow_partial)

    @property
    def fault_injector(self):
        """The leg runner's injector (``leg.delay`` fires in the guard)."""
        return self.legs.injector

    @fault_injector.setter
    def fault_injector(self, injector) -> None:
        self.legs.injector = injector

    @property
    def holds_gil(self) -> bool:
        """Whether a call runs on its caller's thread and never waits with
        the GIL released: serial in-process legs, no backoff or injected
        delay to sleep through (the serving layer may then run it inline)."""
        return (type(self.legs) is InProcessLegs
                and self.guard.policy is None and self.fault_injector is None)

    def sync(self) -> None:
        """Drop the cached answers the base relation's new rows can affect,
        everything after a reshard (a new ``manager.shards`` list).

        Rows appended to the base relation directly never reach the
        shards: while the shards do not cover it, every call raises a
        :class:`~repro.errors.PlanningError` until a reshard.
        """
        manager = self.manager
        rows = manager.relation.num_tuples
        if manager.shards is self._shards and rows == self._rows:
            return
        if sum(s.relation.num_tuples for s in manager.shards) != rows:
            raise PlanningError(
                "the base relation was mutated outside the ShardManager "
                "(shard row counts no longer cover it); route inserts "
                "through ShardManager.insert() or call reshard()")
        if manager.shards is not self._shards:
            self.result_cache.invalidate()
        else:
            for tid in range(self._rows, rows):
                self.result_cache.invalidate(
                    row=manager.relation.selection_values(tid))
        self._shards, self._rows = manager.shards, rows

    # ------------------------------------------------------------------
    # shard pruning
    # ------------------------------------------------------------------
    def _scatter_set(self, query) -> Tuple[List[Shard], List[Tuple[int, str]]]:
        """Split shards into (consulted, pruned-with-reason) for ``query``."""
        kind = kind_of(query)
        if kind not in (KIND_TOPK, KIND_SKYLINE):
            raise PlanningError(
                f"scatter/gather serves top-k and skyline queries, not {kind!r}")
        consulted: List[Shard] = []
        pruned: List[Tuple[int, str]] = []
        for shard in self.manager.shards:
            ok, reason = shard.stats.can_match(query.predicate)
            if ok:
                consulted.append(shard)
            else:
                pruned.append((shard.index, reason or "pruned"))
        return consulted, pruned

    def _scatter_details(self, query, consulted: List[Shard],
                         pruned: List[Tuple[int, str]],
                         shard_backends: Dict[int, str],
                         skipped: Tuple[Tuple[int, str], ...],
                         order: List[Shard]) -> Dict[str, object]:
        """One rendering of the scatter set, shared by plans and results.

        ``order`` is the planned leg order over every surviving shard,
        skipped legs included.
        """
        return {
            "policy": self.manager.policy.describe(),
            "shards_total": self.manager.num_shards,
            "shards_consulted": ",".join(str(s.index) for s in consulted) or "-",
            "shards_pruned": "|".join(
                f"{index}:{reason}" for index, reason in pruned) or "-",
            "shards_skipped": "|".join(
                f"{index}:{reason}" for index, reason in skipped) or "-",
            "scatter_order": ",".join(str(s.index) for s in order) or "-",
            "shard_backends": ",".join(
                f"{index}:{name}" for index, name in sorted(shard_backends.items()))
                or "-",
        }

    # ------------------------------------------------------------------
    # planning / explain
    # ------------------------------------------------------------------
    def plan(self, query) -> QueryPlan:
        """The gathered plan: scatter set, prune reasons, per-shard backends.

        Planning consults the surviving shards' own planners (building
        their stacks if needed) so the per-shard backend choice is exact,
        not guessed.
        """
        self.sync()
        consulted, pruned = self._scatter_set(query)
        shard_plans = {
            shard.index: self.legs.plan(shard, query)
            for shard in consulted
        }
        shard_backends = {index: plan.backend
                          for index, plan in shard_plans.items()}
        # The gathered plan is cost-driven when every consulted shard's
        # planner selected by cost (vacuously when statistics pruned every
        # shard — the profile alone decided); a single static shard makes
        # the whole scatter report static, never overstating the evidence.
        mode = (MODE_COST
                if all(plan.mode == MODE_COST for plan in shard_plans.values())
                else MODE_STATIC)
        return QueryPlan(
            backend="scatter-gather",
            query_kind=kind_of(query),
            reason=(f"scatter to {len(consulted)}/{self.manager.num_shards} shards "
                    f"under {self.manager.policy.describe()}, "
                    f"{len(pruned)} pruned by statistics"),
            details=self._scatter_details(
                query, consulted, pruned, shard_backends, (),
                self._leg_order([query], consulted)[0]),
            candidates=tuple(f"shard{s.index}" for s in consulted),
            mode=mode,
        )

    def explain(self, query) -> str:
        """One-line explanation of how ``query`` scatters."""
        return self.plan(query).describe()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self, query, *, parent_span=None, use_result_cache=True,
                deadline=None, allow_partial=None):
        """Prune, scatter, execute per shard, and gather one merged result.

        A cache lookup, else the scatter of a group of one (see
        :meth:`_execute_group`).  ``parent_span`` threads an enabled
        trace through: the tree gains a ``shard.execute`` span with one
        ``shard.leg`` child per consulted *and* per skipped shard
        (skipped legs carry their skip reason) and a ``shard.gather``
        child.  ``use_result_cache=False`` bypasses the front-door
        result cache both ways — the ``explain_analyze`` contract.

        ``deadline`` (a :class:`~repro.fault.deadline.Deadline`) bounds
        the whole call: it is checked before every leg, and its expiry
        raises
        :class:`~repro.errors.DeadlineExceededError` — never a partial
        answer.  ``allow_partial`` overrides the executor's default
        partiality for this call (see the class docstring).
        """
        self.sync()
        span = (parent_span.child("shard.execute")
                if parent_span is not None
                else self.tracer.trace("shard.execute"))
        started = time.perf_counter()
        self._m_queries.inc()
        try:
            call = self.guard.call(
                deadline, self.allow_partial if allow_partial is None
                else bool(allow_partial), self.fault_injector)
            self.guard.check(call, "scatter")
            key = query_cache_key(query) if use_result_cache else None
            if key is not None:
                hit = self.result_cache.lookup(key)
                if hit is not None:
                    span.set("result_cache", "hit")
                    return hit
            (result,) = self._execute_group([(0, query, key)], span, call,
                                            scatter_span=span)
            if isinstance(result, Exception):
                raise result
            return result
        finally:
            self._m_latency.observe(time.perf_counter() - started)
            span.finish()

    def execute_many(self, queries: Iterable, *, parent_span=None,
                     deadline=None, allow_partial=None) -> List:
        """Execute a batch of queries with one scatter leg per shard.

        Results come back in submission order and bit-identical to looping
        :meth:`execute`.  Cached queries are served first; the remaining
        top-k misses are grouped by canonical ranking-function key (a
        lone function, or a skyline, is a group of one) and each group
        scatters as a unit: every shard consulted by at least one group
        member receives *one* leg carrying exactly the members whose
        statistics did not prune it, the shard runs its own fused
        ``execute_many``, and answers are gathered per query.  Scatters
        are cost-ordered and bounded; legs follow one
        *group-level* cost order (see :meth:`_leg_order`) rather than each
        member's solo order, so a member's ``shards_skipped`` / work
        counters may differ from its solo run even though the k-th-score
        skip bound is applied per query and answers stay bit-identical.
        Members of a group of two or more record ``fused_group_size`` and
        the solo-equivalent ``tuples_evaluated`` in ``extra``.  A batch
        repeat copies its first arrival's answer (or failure), tagged
        ``result_cache="hit"``.

        Failures are *contained*: a leg failure for one group fails only
        that group's queries — the rest of the batch completes — and the
        batch raises :class:`~repro.errors.PartialBatchError` carrying the
        completed results aligned with the failed positions' exceptions.
        A batch with no failures returns plainly.
        """
        queries = list(queries)
        if not queries:
            return []
        self.sync()
        span = (parent_span.child("shard.execute_many")
                if parent_span is not None
                else self.tracer.trace("shard.execute_many"))
        started = time.perf_counter()
        self._m_batches.inc()
        self._m_queries.inc(float(len(queries)))
        try:
            if span:
                span.set("batch_size", len(queries))
            call = self.guard.call(
                deadline, self.allow_partial if allow_partial is None
                else bool(allow_partial), self.fault_injector)
            results, units, repeats = partition_batch(
                queries, self.result_cache)
            errors: Dict[int, Exception] = {}

            def scatter(group) -> None:
                try:
                    outcomes = self._execute_group(group, span, call)
                except (ShardWorkerError, DeadlineExceededError) as exc:
                    outcomes = [exc] * len(group)
                for (i, _, _), outcome in zip(group, outcomes):
                    if isinstance(outcome, Exception):
                        errors[i] = outcome
                    else:
                        results[i] = outcome

            groups: Dict[tuple, List] = {}
            for unit in units:
                query = unit[1]
                fuse_key = (function_fuse_key(query.function)
                            if isinstance(query, TopKQuery)
                            else ("ungrouped", unit[0]))
                groups.setdefault(fuse_key, []).append(unit)
            for group in groups.values():
                scatter(group)
            answer_repeats(results, repeats)
            errors.update((i, errors[unit]) for i, unit in repeats
                          if unit in errors)
            if errors:
                raise PartialBatchError(results, errors)
            return results
        finally:
            self._m_latency.observe(time.perf_counter() - started)
            span.finish()

    def _execute_group(self, group: List[Tuple[int, object, Optional[tuple]]],
                       span, call: LegCall, scatter_span=None) -> List:
        """Scatter one group (size >= 1) with one leg per shard: THE scatter.

        A group is one query, or several top-k queries sharing a ranking
        function.  Prune decisions are taken per query; a shard's leg
        carries the union of members that consulted it.  The scatter
        walks the legs in cost order (lowest attainable
        score floor over the group first) and apply the k-th-score skip
        bound *per top-k query*: a member whose gathered k-th score strictly
        beats a shard's floor drops out of that leg (recorded in its
        ``shards_skipped``), and a leg every member dropped never runs.
        The k-th score only tightens as legs run, so a skip decided
        against an early bound stays sound: answers are bit-identical to
        the exhaustive scatter.  A skyline member never takes the skip.

        Span shape and result ``extra`` follow the group's size, decided
        here only.  A group of one renders ``shard.execute`` (opened
        here, or the caller's ``scatter_span``; carries
        ``shards_pruned``) > ``shard.leg`` (``backend``; a skipped leg
        carries ``skipped=<reason>``) + ``shard.gather``.  A larger group
        renders ``shard.fused_scatter`` > ``shard.leg`` (``riders``;
        ``skipped_q<i>`` per dropped member, ``skipped="all riders"``
        when none is left) beside a ``shard.gather`` on ``span``, and its
        results add the fusion keys to ``extra``.

        Fault handling is per *rider*: a failed leg taints only the
        members it carried.  Under ``allow_partial`` those members
        degrade to the surviving legs' answer; a member whose every leg
        failed comes back as its exception *in the returned list* (the
        caller raises it or maps it into
        :class:`~repro.errors.PartialBatchError`).
        Strict mode re-raises the leg failure for the whole group.
        """
        start = time.perf_counter()
        queries = [query for _, query, _ in group]
        solo = len(group) == 1
        opened = scatter_span is None
        if opened:
            scatter_span = span.child("shard.execute" if solo
                                      else "shard.fused_scatter")
        shards: Dict[int, Shard] = {}
        carried: Dict[int, List[int]] = {}  # shard index -> consulting members
        planned: List[int] = []  # legs per member, before any skip
        pruned_lists: List[List[Tuple[int, str]]] = []
        for qi, query in enumerate(queries):
            consulted, pruned = self._scatter_set(query)
            planned.append(len(consulted))
            pruned_lists.append(pruned)
            self._m_pruned.inc(float(len(pruned)))
            for shard in consulted:
                shards[shard.index] = shard
                carried.setdefault(shard.index, []).append(qi)
        if not solo:
            self._m_fused_groups.inc()
            self._m_fused_queries.inc(len(group))
            scatter_span.set("group_size", len(group))
        elif scatter_span and pruned_lists[0]:
            scatter_span.set("shards_pruned", tuple(pruned_lists[0]))
        order, floors = self._leg_order(queries, list(shards.values()))
        legs = [(shard, carried[shard.index]) for shard in order]

        # Per top-k member: its k best scores gathered so far, sorted.
        gathered: List[Optional[List[float]]] = [
            [] if isinstance(query, TopKQuery) else None for query in queries]
        skipped: List[List[Tuple[int, str]]] = [[] for _ in group]
        executed: List[List[Tuple[Shard, object]]] = [[] for _ in group]
        call = call.group()  # this group's leg record, the call's budget

        def run_leg(shard, riders, leg):
            if leg and not solo:
                leg.set("riders", tuple(riders))
            try:
                leg_results = self.guard.run(
                    self.legs, shard, [queries[qi] for qi in riders], leg, call)
                self._m_legs.inc()
                if leg:
                    if solo:
                        leg.set("backend", str(
                            leg_results[0].extra.get("backend", "?")))
                    leg.set("tuples_evaluated", sum(
                        float(getattr(result, "tuples_evaluated", 0))
                        for result in leg_results))
                return leg_results
            except ShardWorkerError:
                if not call.allow_partial:
                    raise
                return ()  # the riders degrade to their surviving legs
            finally:
                leg.finish()

        try:
            for shard, members in legs:
                self.guard.check(call, f"scatter leg to shard {shard.index}")
                leg = (scatter_span.child("shard.leg").set("shard", shard.index)
                       if scatter_span else NULL_SPAN)
                riders = []
                for qi in members:
                    reason = self._leg_skip_reason(
                        floors.get(shard.index), queries[qi], gathered[qi])
                    if reason is None:
                        riders.append(qi)
                        continue
                    skipped[qi].append((shard.index, reason))
                    self._m_legs_skipped.inc()
                    if leg:
                        leg.set("skipped" if solo else f"skipped_q{qi}",
                                reason)
                if riders:
                    for qi, result in zip(riders, run_leg(shard, riders, leg)):
                        executed[qi].append((shard, result))
                        best = gathered[qi]
                        if best is not None and result.scores:
                            best.extend(map(float, result.scores))
                            best.sort()
                            del best[queries[qi].k:]
                else:
                    if not solo:
                        leg.set("skipped", "all riders")
                    leg.finish()
        except BaseException:
            scatter_span.finish()
            raise
        if not solo:
            scatter_span.finish()

        gather_span = (scatter_span if solo else span).child("shard.gather")
        merged_rows = 0
        out: List = []
        for qi, (_, query, key) in enumerate(group):
            order = [shard for shard, members in legs if qi in members]
            skips = {index for index, _ in skipped[qi]}
            rode = [shard.index for shard in order if shard.index not in skips]
            lost = [index for index in rode if index in call.failures]
            if lost and not executed[qi]:
                # Every leg carrying this rider failed: nothing survives
                # to degrade to — report the rider's failure, not an
                # "empty" answer from zero evidence.
                out.append(call.failures[lost[-1]])
                continue
            legs_run = sorted(executed[qi], key=lambda pair: pair[0].index)
            consulted = [shard for shard, _ in legs_run]
            shard_results = [result for _, result in legs_run]
            gather = (self._gather_topk if kind_of(query) == KIND_TOPK
                      else self._gather_skyline)
            result = gather(query, consulted, shard_results)
            merged_rows += len(result.tids)
            self._m_tuples.inc(float(getattr(result, "tuples_evaluated", 0)))
            result.elapsed_seconds = time.perf_counter() - start
            shard_backends = {
                shard.index: str(res.extra.get("backend", "?"))
                for shard, res in legs_run
            }
            result.extra["backend"] = "scatter-gather"
            result.extra.update(self._scatter_details(
                query, consulted, pruned_lists[qi], shard_backends,
                tuple(skipped[qi]), order))
            result.extra["plan"] = (
                f"scatter to {len(consulted)}/{self.manager.num_shards} shards "
                f"[policy={result.extra['policy']} "
                f"pruned={result.extra['shards_pruned']} "
                f"skipped={result.extra['shards_skipped']} "
                f"backends={result.extra['shard_backends']}]")
            if not solo:
                result.extra["fused_group_size"] = float(len(group))
                result.extra["tuples_evaluated"] = sum(
                    float(res.extra.get("tuples_evaluated",
                                        res.tuples_evaluated))
                    for res in shard_results)
            degraded = self.guard.annotate(result.extra, call, rode,
                                           planned[qi])
            if key is not None and not degraded:
                # A degraded result is exact only over the surviving
                # shards; caching it would keep serving the gap after
                # recovery.
                self.result_cache.store(key, result)
            out.append(result)
        if not solo:
            gather_span.set("group_size", len(group))
        gather_span.set("merged_rows", merged_rows).finish()
        if opened:
            scatter_span.finish()
        return out

    def _leg_order(self, queries: List, shards: List[Shard]
                   ) -> Tuple[List[Shard], Dict[int, float]]:
        """Cost order of a group's legs, and each shard's score floor.

        A leg's promise is its best promise for *any* member (lowest score
        floor, so the gathered k-th score tightens as early as possible,
        then fewest expected matches), so the leg that can tighten
        some member's k-th score fastest runs first; the shard index keeps
        the order total and deterministic.  A group's top-k members share
        one function by value (its fuse key), so the floors are derived
        once per shard; a skyline has none.
        """
        floors = ({shard.index: shard.stats.score_floor(queries[0].function)
                   for shard in shards}
                  if isinstance(queries[0], TopKQuery) else {})

        def leg_key(shard: Shard):
            floor = floors.get(shard.index)
            return min(self.cost_model.scatter_key(query, shard.stats, floor)
                       for query in queries) + (shard.index,)

        return sorted(shards, key=leg_key), floors

    @staticmethod
    def _leg_skip_reason(floor: Optional[float], query,
                         gathered: Optional[List[float]]) -> Optional[str]:
        """Why a shard of score ``floor`` can be skipped, or ``None`` to run it.

        ``gathered`` holds a top-k query's k best scores seen so far,
        sorted (``None`` for a skyline, which is never skipped).
        A shard whose ranking-range score floor *strictly* exceeds the
        gathered k-th score cannot contribute: every tuple it holds scores
        at least the floor, so none can enter the top-k or tie its
        boundary (a tie would need a score exactly equal to the k-th,
        which a strictly larger floor rules out).
        """
        if gathered is None or len(gathered) < query.k:
            return None
        kth = gathered[-1]
        if floor > kth:
            return f"score floor {floor:.6g} > k-th score {kth:.6g}"
        return None

    # ------------------------------------------------------------------
    # gathering
    # ------------------------------------------------------------------
    def _gather_topk(self, query, consulted: List[Shard],
                     shard_results: List[QueryResult]) -> QueryResult:
        """The k best per-shard answers under ``(score, tid)``, as arrays.

        Local tids map to global ones through each shard's tid map, and the
        concatenation is sorted once by score, ties by tid (shards are
        disjoint, so no tid repeats): the prefix of length k is exactly the
        global top-k a single-relation engine would return.
        """
        tids = _global_tids(consulted, shard_results)
        scores = np.concatenate([np.empty(0)] + [
            np.asarray(result.scores, dtype=np.float64) for result in shard_results])
        top = np.lexsort((tids, scores))[:query.k]
        return QueryResult(
            tids=tuple(tids[top].tolist()),
            scores=tuple(scores[top].tolist()),
            disk_accesses=sum(r.disk_accesses for r in shard_results),
            states_generated=sum(r.states_generated for r in shard_results),
            peak_heap_size=max((r.peak_heap_size for r in shard_results), default=0),
            tuples_evaluated=sum(r.tuples_evaluated for r in shard_results),
        )

    def _gather_skyline(self, query, consulted: List[Shard],
                        shard_results: List[SkylineResult]) -> SkylineResult:
        """Cross-shard dominance re-check over the union of local skylines.

        The global skyline is a subset of the union of shard-local skylines
        (a globally undominated point is undominated within its shard), so
        re-running the dominance test over the union — in the query's
        mapped space for dynamic skylines — yields exactly the answer a
        single-relation engine computes.
        """
        tids = np.sort(_global_tids(consulted, shard_results))
        return SkylineResult(
            tids=tuple(skyline_among(self.manager.relation, tids, query).tolist()),
            disk_accesses=sum(r.disk_accesses for r in shard_results),
            signature_accesses=sum(r.signature_accesses for r in shard_results),
            peak_heap_size=max((r.peak_heap_size for r in shard_results), default=0),
            nodes_expanded=sum(r.nodes_expanded for r in shard_results),
            extra={"cross_shard_candidates": float(len(tids))},
        )

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def observed(self) -> List[MetricsRegistry]:
        """Every registry of the sharded stack, gauges set to what is held now.

        This front door's ``shard.*`` registry — its result cache as
        ``shard.result_*`` (the stack's one level: legs run past the shard
        stacks' caches) and ``shard.shards_built`` (lazily built stacks
        the statistics always pruned are absent) — then every shard
        engine's the leg runner has observed; merged, their ``engine.*``
        series sum over the shards.  Synced first; a desynced stack still
        reports (its next query raises).
        """
        try:
            self.sync()
        except PlanningError:
            pass
        self.result_cache.publish(self.metrics, "shard")
        self.metrics.gauge("shard.shards_built").set(
            len(self.manager.built_executors()))
        return [self.metrics] + self.legs.observed()

    def metrics_snapshot(self) -> Dict[str, float]:
        """The flat ``{name: float}`` view of :meth:`observed`, merged."""
        return MetricsRegistry.merged(self.observed()).snapshot()

    def explain_analyze(self, query) -> str:
        """Run ``query`` traced (front-door result cache bypassed; legs
        never read the shard stacks' caches) and render the span tree
        with estimated vs. actual work.

        The tree covers the scatter: every leg (including legs skipped by
        the k-th-score bound, with their reasons), each shard engine's
        plan/run children, and the gather.
        """
        from repro.obs.explain import analyze_with

        return analyze_with(self, query, "shard.explain_analyze")


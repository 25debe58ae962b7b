"""The query planner: inspect a query, pick a backend, explain the choice.

The planner classifies the query (top-k / skyline / multi-relation join),
asks the registry for the backends serving that kind, and filters to the
ones that actually support the concrete query (predicate dimensions
covered, ranking dimensions indexed) and are not ``stale`` (an insert
they could not absorb).  Among the survivors it selects in
one of two modes:

* **cost** (the default) — every candidate is priced by the
  :class:`~repro.engine.cost.CostModel` over the relation's cached
  :class:`~repro.engine.cost.RelationStatistics`; the cheapest estimate
  wins, with the static ``(priority, name)`` order breaking exact ties.
  Each candidate's estimated cost and the estimate's inputs (selectivity,
  expected matches, k, function shape, covering cuboids, ...) are recorded
  in ``QueryPlan.details`` so ``explain`` shows *why* a backend won.
* **static** — the original lowest ``(priority, name)`` rule, used as the
  explicit fallback whenever any candidate cannot be costed (custom
  adapters, multi-relation joins, no statistics available) and available
  as a mode of its own for comparisons.

Both modes see the same candidate *set*; only the winner may differ.
Every decision is recorded on the returned
:class:`repro.engine.plan.QueryPlan`.

Plan once per shape
-------------------
A costed decision is a function of a top-k query's function dims and
shape, ``k`` and predicate *dims* (a skyline's preference dims and whether
it is dynamic); predicate *values* enter only through the profile's
selectivity (0 when a value is provably absent).  The planner keeps each
decision under that key and hands every caller a fresh :class:`QueryPlan`
over a copy of its details.  Kept decisions live as long as what they were
derived from: the registered backends, their priorities and staleness, the
cost model object, and the profile of every relation a backend answers
over — the object the statistics provider hands out, which every
re-profile replaces, plus its row count, which an in-place fold
(``ShardStatistics.add_row``) raises.  Any difference drops them all; no
hook exists.  Lists the cost model cannot price (custom adapters, joins)
and static mode are decided afresh every time.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import PlanningError

from repro.engine.cost import CostEstimate, CostModel, StatisticsCatalog
from repro.engine.plan import (
    KIND_SKYLINE,
    KIND_TOPK,
    MODE_COST,
    MODE_STATIC,
    QueryPlan,
)
from repro.engine.registry import Backend, EngineRegistry, kind_of
from repro.obs.metrics import MetricsRegistry


class Planner:
    """Routes queries to registered backends, producing explainable plans.

    Parameters
    ----------
    registry:
        The named backends to route over.
    cost_model:
        Estimates per-candidate cost in cost mode (default:
        :class:`~repro.engine.cost.CostModel`).
    statistics:
        ``relation -> RelationStatistics`` provider.  The executor injects
        its own :class:`~repro.engine.cost.StatisticsCatalog`, so the two
        share profiles; a standalone planner builds a private catalog.
    mode:
        ``MODE_COST`` (default) or ``MODE_STATIC``.
    """

    def __init__(self, registry: EngineRegistry,
                 cost_model: Optional[CostModel] = None,
                 statistics: Optional[Callable] = None,
                 mode: str = MODE_COST) -> None:
        if mode not in (MODE_COST, MODE_STATIC):
            raise PlanningError(f"unknown planner mode {mode!r}")
        self.registry = registry
        self.cost_model = cost_model or CostModel()
        self.statistics = statistics or StatisticsCatalog().of
        self.mode = mode
        #: ``(what they were derived from, key -> decision)``, swapped as
        #: one pair: a racing thread stores into the dict it looked up in.
        self._kept: Tuple[list, Dict[tuple, QueryPlan]] = ([], {})
        #: Plans derived afresh; an executor swaps in its registry's counter.
        self.decisions = MetricsRegistry().counter("planner.decisions")

    def plan(self, query) -> QueryPlan:
        """Choose a backend for ``query`` and explain the choice."""
        kind = kind_of(query)
        kept, key = self._kept_for(kind, query)
        decision = kept.get(key)
        if decision is None:
            self.decisions.inc()
            decision = self._decide(kind, query)
            # A list the cost model could not price was decided by code
            # the planner cannot see into: never kept.
            if key is not None and decision.mode == MODE_COST:
                kept[key] = decision
        # A fresh plan over copied details: callers may annotate theirs.
        return QueryPlan(decision.backend, kind, decision.reason,
                         dict(decision.details), decision.candidates,
                         decision.mode, decision.estimates)

    def _kept_for(self, kind: str, query) -> Tuple[Dict, Optional[tuple]]:
        """The decisions still valid, and the key of ``query`` among them
        (``None``: not to be kept).  See the module docstring."""
        if self.mode != MODE_COST or kind not in (KIND_TOPK, KIND_SKYLINE):
            return {}, None
        basis: list = [self.cost_model]
        profiles = {}
        for backend in self.registry:
            basis += (backend, backend.priority, backend.stale)
            relation = backend.relation
            if relation is not None and id(relation) not in profiles:
                profile = profiles[id(relation)] = self.statistics(relation)
                if profile is None:
                    return {}, None
                basis += (profile, profile.num_tuples)
        derived_from, kept = self._kept
        if derived_from != basis:
            kept = {}
            self._kept = (basis, kept)
        predicate = query.predicate
        if kind == KIND_TOPK:
            shape = (tuple(query.function.dims), query.function.shape, query.k)
        else:
            shape = (tuple(query.preference_dims), query.is_dynamic)
        return kept, (kind, shape, predicate.dims) + tuple(
            profile.selectivity(predicate) for profile in profiles.values())

    def _decide(self, kind: str, query) -> QueryPlan:
        """Derive the decision for ``query`` from scratch."""
        serving = self.registry.backends_for(kind)
        if not serving:
            raise PlanningError(f"no backend registered for {kind!r} queries")
        # Deterministic candidate order: (priority, name) is a total order
        # over backends, so the list never depends on registration order
        # even when two candidates share a priority.  Cost mode re-ranks
        # but keeps this order as its tie-break.
        candidates = sorted((b for b in serving
                             if not b.stale and b.supports(query)),
                            key=lambda b: (b.priority, b.name))
        if not candidates:
            raise PlanningError(
                f"none of the registered {kind!r} backends "
                f"({', '.join(b.name for b in serving)}) supports this query; "
                f"check that every predicate dimension is a selection dimension "
                f"and every ranking/preference dimension is a ranking dimension "
                f"of the target relation")
        details = dict(self._query_details(kind, query))
        chosen, mode, estimates = self._select(query, candidates, details)
        if len(candidates) > 1:
            details["losing_candidates"] = ",".join(
                f"{b.name}:{b.priority}" for b in candidates if b is not chosen)
        details.update(chosen.plan_details(query))
        return QueryPlan(
            backend=chosen.name,
            query_kind=kind,
            reason=self._reason(kind, query, chosen),
            details=details,
            candidates=tuple(b.name for b in candidates),
            mode=mode,
            estimates=estimates,
        )

    def explain(self, query) -> str:
        """One-line explanation of how ``query`` would be routed."""
        return self.plan(query).describe()

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    def _select(self, query, candidates: List[Backend], details):
        """Pick the winner, recording cost evidence (or the fallback reason).

        Returns ``(chosen backend, mode, per-candidate estimate pairs)``;
        the pairs are empty whenever the static order decided.
        """
        if self.mode != MODE_COST:
            return candidates[0], MODE_STATIC, ()
        estimates = self._estimates(query, candidates)
        if estimates is None:
            details["cost_fallback"] = (
                "unestimable candidate; static (priority, name) order kept")
            return candidates[0], MODE_STATIC, ()
        # Cheapest estimate wins; exact cost ties fall back to the static
        # (priority, name) order, keeping selection fully deterministic.
        ranked = sorted(range(len(candidates)),
                        key=lambda i: (estimates[i].cost, i))
        winner = ranked[0]
        details["cost_estimates"] = "|".join(
            f"{estimates[i].backend}:{estimates[i].cost:.1f}"
            for i in range(len(candidates)))
        details["estimated_cost"] = round(estimates[winner].cost, 3)
        details["cost_inputs"] = estimates[winner].describe_inputs()
        pairs = tuple((estimate.backend, float(estimate.cost))
                      for estimate in estimates)
        return candidates[winner], MODE_COST, pairs

    def _estimates(self, query,
                   candidates: List[Backend]) -> Optional[List[CostEstimate]]:
        """Cost every candidate, or ``None`` when any cannot be costed."""
        estimates: List[CostEstimate] = []
        for backend in candidates:
            relation = backend.relation
            if relation is None:
                return None
            estimate = self.cost_model.estimate(backend, query,
                                                self.statistics(relation))
            if estimate is None:
                return None
            estimates.append(estimate)
        return estimates

    # ------------------------------------------------------------------
    # rationale rendering
    # ------------------------------------------------------------------
    def _query_details(self, kind: str, query):
        if kind == KIND_TOPK:
            yield "k", query.k
            yield "predicate_dims", ",".join(query.predicate.dims) or "-"
            yield "function_shape", query.function.shape.value
        elif kind == KIND_SKYLINE:
            yield "predicate_dims", ",".join(query.predicate.dims) or "-"
            yield "preference_dims", ",".join(query.preference_dims)
        else:
            yield "relations", ",".join(t.relation.name for t in query.terms)
            yield "k", query.k

    def _reason(self, kind: str, query, chosen: Backend) -> str:
        if kind == KIND_TOPK:
            what = (f"top-{query.k} with a {query.function.shape.value} function "
                    f"over predicate dims "
                    f"[{', '.join(query.predicate.dims) or 'none'}]")
        elif kind == KIND_SKYLINE:
            what = (f"{'dynamic ' if query.is_dynamic else ''}skyline over "
                    f"[{', '.join(query.preference_dims)}]")
        else:
            names = ", ".join(t.relation.name for t in query.terms)
            what = f"ranked join of [{names}]"
        return f"{what} routed to {chosen.name}"

"""Statistics-driven cost model for the engine planner and the shard layer.

The planner's original selection rule — lowest ``(priority, name)`` among
the supporting backends — ignores the data entirely.  This module supplies
what it was missing:

* :class:`RelationStatistics` — a per-relation profile (row count, distinct
  selection values and their cardinalities, ranking ``[min, max]`` ranges)
  generalizing the shard layer's ``ShardStatistics`` to any relation;
* :class:`StatisticsCatalog` — a cache of profiles owned by the
  :class:`~repro.engine.Executor`, each kept while its row count is the
  (append-only) relation's, so a grown relation is re-profiled before it
  is re-planned;
* :class:`CostModel` — turns a profile plus a concrete query into one
  estimated cost per candidate backend.

Cost formula
------------
Estimates are in *tuple-score units*: one unit is the time of scoring one
tuple inside a block-sized ``evaluate_batch`` (``score_cost`` is 1 by
definition; ``unit_seconds``, about 38 ns on the 2-core Xeon box the
defaults were fitted on).  For a query with predicate ``P``, ``k`` and
function shape factor ``F`` (1 for monotone / semi-monotone functions,
``general_shape_factor`` for general ones, whose bounds localize poorly)
over ``N`` tuples, the grid and the block-nested loop pay a fixed per-query
cost of their access kind (``*_query_cost``; a grid query with a condition
adds ``cuboid_query_cost``), and:

* ``selectivity(P) = prod(1 / cardinality(dim) for dim in P)``, forced to
  ``0`` when the profile proves a predicate value absent from its dimension;
* ``m = N * selectivity(P)`` — expected matching tuples;
* **table scan** — ``row_filter_cost * N + posting_cost * l * (c - 1) +
  match_cost * m`` for ``c`` conditions whose shortest expected posting
  list holds ``l = N / max cardinality`` tids (0 when a value is absent):
  the shortest list is checked against the other ``c - 1`` columns, then
  every match is gathered, scored and cut to k;
* **grid ranking cube** (block size ``B``, ``c`` covering cuboids) — when
  ``m <= k`` the search exhausts the grid
  (``score_cost * m + blocks_total * block_touch_cost``); otherwise the
  frontier needs about ``ceil(F * k / (B * selectivity))`` blocks, touches
  ``frontier_overvisit`` times as many and scores the matches inside the
  needed ones, all times ``1 + intersection_penalty * (c - 1)`` when
  several covering cuboids are intersected online;
* **scan skyline** — the scan's filter (the two terms before
  ``match_cost``) plus ``compare_cost`` per estimated skyline point
  (``(log2 m)^(d-1)``) per match: its numpy peel compares each kept point
  with the live matches.

The signature R-tree's top-k and BBS skyline are priced by
:class:`repro.paper.stack.RTreeCostModel`, which adds their access kinds
and constants to these.

Where the constants come from
-----------------------------
``benchmarks/calibrate_cost_model.py`` times every backend's whole run
over a grid of query shapes on its own relation (40,000 tuples,
cardinality 10, seed 31 — never a benchmark workload) and least-squares
fits the constants above on relative error; each default is the rounded
median of seven full-mode runs (``score_cost`` and the structural factors
are kept; ``posting_cost`` and ``cuboid_query_cost`` joined the fit with
the posting-list scan).  Nothing is measured at start-up.
:attr:`CostModel.PAPER` keeps the first planner's hand-set constants,
which count work (a block touch as 8 tuple scores) rather than time:
``CostModel(**CostModel.PAPER)`` reproduces every estimate and decision of
that planner, for tests that pin its routing and for comparing the paper's
count metric with wall clock.

Every estimate records its inputs so ``explain`` can show *why* a backend
won (see ``QueryPlan.details["cost_estimates"]`` / ``["cost_inputs"]``).
The scatter/gather executor reuses the same model to order scatter legs
(most promising ranking-range floor first, fewer expected matches on ties)
and to skip a leg entirely once the gathered k-th score provably beats
everything the leg could still contribute.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

import numpy as np

from repro.functions.base import FunctionShape, RankingFunction
from repro.geometry import Box, Interval
from repro.query import Predicate, TopKQuery
from repro.storage.table import Relation


@dataclass
class RelationStatistics:
    """Profile of one relation used for costing, pruning, and leg ordering."""

    num_tuples: int
    #: Distinct coded values per selection dimension.
    selection_values: Dict[str, FrozenSet[int]] = field(default_factory=dict)
    #: Distinct-value count per selection dimension (cardinalities).
    selection_cardinalities: Dict[str, int] = field(default_factory=dict)
    #: Bounding ``(min, max)`` per ranking dimension.
    ranking_ranges: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    #: Word used in ``can_match`` pruning reasons; the shard subclass says
    #: "shard" so existing explain output stays stable.
    _scope_word = "relation"

    @classmethod
    def of(cls, relation: Relation, **extra) -> "RelationStatistics":
        """Profile ``relation``; ``extra`` feeds subclass fields (shard index)."""
        values: Dict[str, FrozenSet[int]] = {}
        cards: Dict[str, int] = {}
        for dim in relation.selection_dims:
            distinct = np.unique(relation.selection_column(dim))
            values[dim] = frozenset(int(v) for v in distinct)
            cards[dim] = int(distinct.size)
        ranges: Dict[str, Tuple[float, float]] = {}
        if relation.num_tuples:
            for dim in relation.ranking_dims:
                column = relation.ranking_column(dim)
                ranges[dim] = (float(column.min()), float(column.max()))
        return cls(num_tuples=relation.num_tuples, selection_values=values,
                   selection_cardinalities=cards, ranking_ranges=ranges,
                   **extra)

    # ------------------------------------------------------------------
    # predicate estimates
    # ------------------------------------------------------------------
    def selectivity(self, predicate: Predicate) -> float:
        """Estimated fraction of tuples surviving ``predicate``.

        Independence-assumption product of ``1 / cardinality`` over the
        predicate dimensions, sharpened to exactly ``0.0`` whenever the
        value sets prove a required value absent — the estimate the SPJR
        optimizer uses, now fed by the live profile.
        """
        estimate = 1.0
        for dim, value in predicate.conditions:
            known = self.selection_values.get(dim)
            if known is not None and int(value) not in known:
                return 0.0
            estimate /= max(1, self.selection_cardinalities.get(dim, 1))
        return estimate

    def expected_matches(self, predicate: Predicate) -> float:
        """Expected number of tuples matching ``predicate``."""
        return self.num_tuples * self.selectivity(predicate)

    def can_match(self, predicate: Predicate) -> Tuple[bool, Optional[str]]:
        """Whether any tuple can satisfy ``predicate`` (with a prune reason).

        Conservative: ``(False, reason)`` only when provably no tuple
        matches, so pruning on it never changes answers.
        """
        if self.num_tuples == 0:
            return False, f"empty {self._scope_word}"
        for dim, value in predicate.conditions:
            known = self.selection_values.get(dim)
            if known is not None and int(value) not in known:
                return False, f"{dim}={value} outside {self._scope_word} values"
        return True, None

    # ------------------------------------------------------------------
    # ranking-range bounds
    # ------------------------------------------------------------------
    def ranking_box(self, dims) -> Optional[Box]:
        """Bounding box of the profiled ranking values over ``dims``."""
        intervals: Dict[str, Interval] = {}
        for dim in dims:
            bounds = self.ranking_ranges.get(dim)
            if bounds is None:
                return None
            intervals[dim] = Interval(bounds[0], bounds[1])
        return Box(intervals)

    def score_floor(self, function: RankingFunction) -> float:
        """Lowest score ``function`` can attain on any profiled tuple.

        A *sound* floor: no tuple of the profiled relation scores below it.
        Used by the scatter gatherer — once the merged k-th score beats a
        remaining shard's floor strictly, that shard cannot contribute and
        is skipped.  Falls back to ``-inf`` (never skip) when the ranges do
        not cover the function's dimensions or the bound computation fails.
        """
        box = self.ranking_box(function.dims)
        if box is None:
            return float("-inf")
        try:
            return float(function.lower_bound(box))
        except Exception:
            return float("-inf")


class StatisticsCatalog:
    """Cache of :class:`RelationStatistics` per relation.

    Keys on object identity but pins the relation, so a recycled ``id()``
    can never alias a live entry.  A relation is append-only, so a profile
    whose ``num_tuples`` is the relation's still describes it; a direct
    ``Relation.append`` triggers re-profiling on the next lookup.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[RelationStatistics, Relation]] = {}

    def of(self, relation: Relation) -> RelationStatistics:
        """The cached profile of ``relation``, recomputed when it grew."""
        entry = self._entries.get(id(relation))
        if entry is not None:
            stats, pinned = entry
            if pinned is relation and stats.num_tuples == relation.num_tuples:
                return stats
        stats = RelationStatistics.of(relation)
        self._entries[id(relation)] = (stats, relation)
        return stats

    def seed(self, relation: Relation, stats: RelationStatistics) -> None:
        """Adopt an externally computed profile of ``relation`` as-is.

        The shard manager seeds each shard executor's catalog with the
        shard's own :class:`~repro.shard.stats.ShardStatistics` (a
        :class:`RelationStatistics`), so the cost planner never re-scans a
        relation the shard layer already profiled.  It stays valid while
        the manager folds each routed row into it (``add_row``) and
        expires like any other once it falls behind.
        """
        self._entries[id(relation)] = (stats, relation)

    def __len__(self) -> int:
        return len(self._entries)


@dataclass(frozen=True)
class CostEstimate:
    """One backend's estimated cost plus the inputs the estimate used."""

    backend: str
    cost: float
    inputs: Mapping[str, object]

    def describe_inputs(self) -> str:
        """Deterministic one-line ``key=value`` rendering of the inputs."""
        parts = []
        for key in sorted(self.inputs):
            value = self.inputs[key]
            if isinstance(value, float):
                parts.append(f"{key}={value:g}")
            else:
                parts.append(f"{key}={value}")
        return " ".join(parts)


class CostModel:
    """Estimates per-backend execution cost from a relation profile.

    Backends declare their access structure through
    ``Backend.cost_profile(query)`` (access kind plus granularity: block
    size, covering-cuboid count); the formulas here turn
    that structure and the :class:`RelationStatistics` into one scalar in
    tuple-score units.  The defaults are fitted times, :attr:`PAPER` the
    hand-set constants they replaced (see the module docstring).
    """

    #: Per-row cost of starting the table scan; fitted at one relation
    #: size, it carries the scan's fixed cost.
    row_filter_cost = 0.033
    #: Cost of checking one posting-list entry against another condition.
    posting_cost = 0.15
    #: Cost of scoring one tuple inside an index sweep: the unit itself.
    score_cost = 1.0
    #: Cost of one match in the table scan: gather, score, cut to k.
    match_cost = 0.27
    #: Cost of touching one grid block (frontier pop, cell lookup, bounds).
    block_touch_cost = 330.0
    #: Cost of one point-against-match comparison of the scan skyline.
    compare_cost = 0.022
    #: Fixed cost of one query, per access kind (set-up, result assembly);
    #: the fit finds none for the table scan.
    grid_query_cost = 1700.0
    skyline_scan_query_cost = 900.0
    #: A grid query with a condition also sets up its covering cuboid
    #: (cell lookup, block provider) once.
    cuboid_query_cost = 1300.0
    #: Frontier over-visit: neighbor blocks examined per productive block.
    frontier_overvisit = 3.0
    #: Extra relative cost per additional covering cuboid intersected online.
    intersection_penalty = 0.5
    #: Shape factor for functions with no monotonicity structure.
    general_shape_factor = 4.0
    #: Seconds per unit where the defaults were fitted: the executor's
    #: ``planner.*`` feedback divides each run's measured time by it.
    unit_seconds = 3.8e-8

    #: The first planner's hand-set work counts (see the module
    #: docstring); the terms it lacked take their neutral values.
    PAPER = {"row_filter_cost": 0.02, "posting_cost": 0.0,
             "score_cost": 1.0, "match_cost": 1.0,
             "block_touch_cost": 8.0, "compare_cost": 1.0,
             "grid_query_cost": 0.0, "skyline_scan_query_cost": 0.0,
             "cuboid_query_cost": 0.0,
             "frontier_overvisit": 3.0,
             "intersection_penalty": 0.5, "general_shape_factor": 4.0}
    #: Constants overridable per instance (``CostModel(**constants)``).
    TUNABLE = (*PAPER, "unit_seconds")

    def __init__(self, **constants: float) -> None:
        """Optionally override the class-level constants on this instance.

        Accepts exactly the names in :attr:`TUNABLE` so a typo'd constant
        fails loudly instead of silently keeping the default.
        """
        for name, value in constants.items():
            if name not in self.TUNABLE:
                raise ValueError(
                    f"unknown cost constant {name!r}; tunable constants: "
                    f"{', '.join(self.TUNABLE)}")
            setattr(self, name, float(value))

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def estimate(self, backend, query,
                 stats: RelationStatistics) -> Optional[CostEstimate]:
        """Estimated cost of answering ``query`` on ``backend``, or ``None``.

        ``None`` means the backend declares no cost profile (custom
        adapters, multi-relation joins) — the planner then falls back to
        the static priority order for the whole candidate list.
        """
        profile = backend.cost_profile(query)
        if profile is None or stats is None:
            return None
        name = self._ESTIMATOR_NAMES.get(profile.get("access"))
        if name is None:
            return None
        # getattr dispatch honours subclass overrides of the estimator
        # methods, not just of the constants.
        estimator = getattr(self, name)
        selectivity = stats.selectivity(query.predicate)
        matches = stats.num_tuples * selectivity
        cost, extra = estimator(profile, query, stats, selectivity, matches)
        inputs: Dict[str, object] = {
            "num_tuples": stats.num_tuples,
            "selectivity": float(selectivity),
            "expected_matches": float(matches),
        }
        if isinstance(query, TopKQuery):
            inputs["k"] = query.k
            inputs["shape"] = query.function.shape.value
        else:
            inputs["preference_dims"] = len(query.preference_dims)
        inputs.update(extra)
        return CostEstimate(backend=backend.name, cost=float(cost),
                            inputs=inputs)

    def shape_factor(self, function: RankingFunction) -> float:
        """How poorly the function's bounds localize the search (>= 1)."""
        if function.shape in (FunctionShape.MONOTONE,
                              FunctionShape.SEMI_MONOTONE):
            return 1.0
        return self.general_shape_factor

    # ------------------------------------------------------------------
    # scatter-leg ordering (shard layer)
    # ------------------------------------------------------------------
    def scatter_key(self, query, stats: RelationStatistics,
                    floor: Optional[float]) -> Tuple[float, float]:
        """Ordering key for one scatter leg: most promising, then cheapest.

        Legs with the lowest attainable score (``floor``: the shard's
        :meth:`~RelationStatistics.score_floor` for the query's function,
        derived once per group) run first so the merged k-th score tightens
        as fast as possible; expected matching tuples break ties so the
        cheaper leg of two equally promising ones goes first.
        """
        if isinstance(query, TopKQuery):
            return (floor, stats.expected_matches(query.predicate))
        return (0.0, float(stats.num_tuples))

    # ------------------------------------------------------------------
    # per-access estimators
    # ------------------------------------------------------------------
    def _scan_filter(self, query, stats, matches) -> float:
        """The scan up to its matches: a per-row start, then every entry of
        the shortest posting list checked against the other conditions."""
        dims = query.predicate.dims
        shortest = 0.0 if matches == 0 else stats.num_tuples / max(
            [1] + [stats.selection_cardinalities.get(dim, 1) for dim in dims])
        return (self.row_filter_cost * stats.num_tuples
                + self.posting_cost * shortest * max(0, len(dims) - 1))

    def _scan_topk(self, profile, query, stats, selectivity, matches):
        cost = (self._scan_filter(query, stats, matches)
                + self.match_cost * matches)
        return cost, {"access": "scan"}

    def _grid_topk(self, profile, query, stats, selectivity, matches):
        block_size = max(1, int(profile.get("granularity", 1)))
        covering = max(1, int(profile.get("covering", 1)))
        blocks_total = max(1, math.ceil(stats.num_tuples / block_size))
        factor = self.shape_factor(query.function)
        if matches <= query.k:
            # Too few matches to ever fill k: the frontier exhausts the grid.
            cost = (self.score_cost * matches
                    + blocks_total * self.block_touch_cost)
        else:
            per_block = block_size * selectivity
            blocks_needed = min(blocks_total,
                                math.ceil(factor * query.k / per_block))
            scored = min(matches, blocks_needed * per_block)
            touched = min(blocks_total,
                          self.frontier_overvisit * blocks_needed)
            cost = (self.score_cost * scored
                    + touched * self.block_touch_cost)
        cost *= 1.0 + self.intersection_penalty * (covering - 1)
        cost += self.grid_query_cost
        if query.predicate.conditions:
            cost += self.cuboid_query_cost
        return cost, {"access": "grid", "block_size": block_size,
                      "covering_cuboids": covering}

    def _scan_skyline(self, profile, query, stats, selectivity, matches):
        points = self._skyline_points(matches, len(query.preference_dims))
        cost = (self.skyline_scan_query_cost
                + self._scan_filter(query, stats, matches)
                + self.compare_cost * matches * points)
        return cost, {"access": "scan-skyline",
                      "estimated_skyline_points": float(points)}

    @staticmethod
    def _skyline_points(matches: float, dims: int) -> float:
        """Expected skyline size of ``matches`` independent points."""
        if matches <= 1:
            return max(0.0, matches)
        return min(matches, math.log2(matches + 2.0) ** max(1, dims - 1))

    _ESTIMATOR_NAMES: Dict[str, str] = {
        "scan": "_scan_topk",
        "grid": "_grid_topk",
        "scan-skyline": "_scan_skyline",
    }

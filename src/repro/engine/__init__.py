"""Unified query-engine layer: registry, planner, and execution front door.

The served package implements three execution paths for the same query
model — grid ranking cube and ranking fragments (Chapter 3), the table
scan, and the boolean-first skyline (Chapter 7).  This package puts one
front door in front of all of them:

* :class:`EngineRegistry` — named, pluggable backends
  (:class:`~repro.engine.registry.Backend` adapters live in
  :mod:`repro.engine.backends`);
* :class:`Planner` — inspects a query (predicate dimensions, ranking
  function shape, ``k``, available covering cuboids) and produces an
  explainable :class:`QueryPlan`; by default candidates are ranked by the
  statistics-driven :class:`CostModel` over cached
  :class:`RelationStatistics` profiles (``planner_mode="static"`` restores
  the pure (priority, name) order), and every plan records the candidates'
  estimated costs and the estimates' inputs;
* :class:`Executor` — ``execute(query)`` / ``execute_many(queries)`` plus a
  :class:`LowerBoundCache` of per-(function, block) bounds shared across
  every query of a workload.

Results carry their routing: ``result.extra["backend"]`` names the engine
that ran the query and ``result.extra["plan"]`` holds the planner's
:class:`QueryPlan`, whose ``str()`` is the one-line explanation
(``result.plan`` renders it; the wire ships the rendered text).

Usage
-----
Build the default stack for a relation and run queries of any kind through
one object::

    from repro.engine import Executor
    from repro.functions import LinearFunction
    from repro.query import Predicate, SkylineQuery, TopKQuery

    executor = Executor.for_relation(relation)

    topk = executor.execute(
        TopKQuery(Predicate.of(A1=1), LinearFunction(["N1", "N2"], [1, 2]), 10))
    print(topk.extra["backend"])          # 'ranking-cube'
    print(topk.plan)                      # why it was routed there

    sky = executor.execute(SkylineQuery(Predicate.of(A1=1), ("N1", "N2")))
    print(sky.extra["backend"])           # 'skyline-scan'

    batch = executor.execute_many(queries)   # fuses same-function sweeps
    print(executor.metrics_snapshot()["engine.fused_queries"])

Custom stacks register backends explicitly::

    from repro.engine import EngineRegistry, Executor
    from repro.engine.backends import RankingCubeBackend, TableScanBackend

    executor = Executor()
    executor.register(RankingCubeBackend(my_cube))
    executor.register(TableScanBackend(my_scanner))
    print(executor.explain(query))

Multi-relation ranked joins (Chapters 5–6) are not served: :func:`kind_of`
routes a query with ``terms`` and ``joins`` to a ``join`` backend by duck
typing, and :func:`repro.paper.joins.register_joins` puts the index-merge
adapter on an existing :class:`Executor`.  Neither are the signature cube
(Chapter 4) and BBS (Chapter 7):
:func:`repro.paper.stack.register_paper_backends` registers both.  Nothing
here imports either.
"""

from repro.engine.backends import (
    RankingCubeBackend,
    SkylineScanBackend,
    TableScanBackend,
)
from repro.engine.cache import LowerBoundCache, ResultCache, query_cache_key
from repro.engine.cost import (
    CostEstimate,
    CostModel,
    RelationStatistics,
    StatisticsCatalog,
)
from repro.engine.executor import Executor
from repro.engine.plan import (
    KIND_JOIN,
    KIND_SKYLINE,
    KIND_TOPK,
    MODE_COST,
    MODE_STATIC,
    QueryPlan,
)
from repro.engine.planner import Planner
from repro.engine.registry import Backend, EngineRegistry, kind_of

__all__ = [
    "Backend",
    "CostEstimate",
    "CostModel",
    "EngineRegistry",
    "Executor",
    "KIND_JOIN",
    "KIND_SKYLINE",
    "KIND_TOPK",
    "LowerBoundCache",
    "MODE_COST",
    "MODE_STATIC",
    "Planner",
    "QueryPlan",
    "RankingCubeBackend",
    "RelationStatistics",
    "ResultCache",
    "SkylineScanBackend",
    "StatisticsCatalog",
    "TableScanBackend",
    "kind_of",
    "query_cache_key",
]

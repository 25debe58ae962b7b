"""Chapter 7 experiments: skyline queries with boolean predicates."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.paper.bench.datasets import synthetic_relation
from repro.paper.bench.harness import ExperimentResult, average, cold_buffers, scaled
from repro.query import Predicate, SkylineQuery
from repro.paper.signature import SignatureRankingCube
from repro.paper.skyline import SkylineEngine, SkylineSession
from repro.skyline import BooleanFirstSkyline
from repro.storage.table import Relation
from repro.workloads import random_predicate

METRICS = ("time_s", "disk", "heap")

_CUBES: Dict[Tuple, SignatureRankingCube] = {}


def _cube(relation: Relation) -> SignatureRankingCube:
    key = (id(relation),)
    if key not in _CUBES:
        _CUBES[key] = SignatureRankingCube(relation, rtree_max_entries=32)
    return _CUBES[key]


def _relation(num_tuples: int = 0, cardinality: int = 20, num_selection_dims: int = 3,
              num_ranking_dims: int = 3, distribution: str = "E") -> Relation:
    return synthetic_relation(num_tuples or scaled(8000, 1000000), num_selection_dims,
                              num_ranking_dims, cardinality,
                              distribution=distribution, seed=73)


def _run_skyline(result: ExperimentResult, x: object, relation: Relation,
                 queries: Sequence[SkylineQuery],
                 methods: Sequence[str] = ("Signature", "Ranking", "Boolean")) -> None:
    cube = _cube(relation)
    engines = {
        "Signature": SkylineEngine(cube, use_signature=True),
        "Ranking": SkylineEngine(cube, use_signature=False),
        "Boolean": BooleanFirstSkyline(relation),
    }
    for method in methods:
        engine = engines[method]
        times: List[float] = []
        disks: List[float] = []
        heaps: List[float] = []
        for query in queries:
            cold_buffers(cube, cube.rtree, cube.store)
            outcome = engine.query(query)
            times.append(outcome.elapsed_seconds)
            disks.append(float(outcome.disk_accesses))
            heaps.append(float(outcome.peak_heap_size))
        result.add(method, x, time_s=average(times), disk=average(disks),
                   heap=average(heaps))


def _random_queries(relation: Relation, count: int, num_predicates: int = 1,
                    dims: Sequence[str] = ("N1", "N2"), dynamic: bool = False,
                    seed: int = 5) -> List[SkylineQuery]:
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(count):
        predicate = (random_predicate(relation, num_predicates, rng=rng)
                     if num_predicates else Predicate.of())
        targets = tuple(rng.random(len(dims))) if dynamic else None
        queries.append(SkylineQuery(predicate, tuple(dims), targets))
    return queries


def fig7_03_05_database_size() -> ExperimentResult:
    """Figures 7.3–7.5: time / disk accesses / peak heap w.r.t. T."""
    result = ExperimentResult("fig7.3-5", "skyline cost vs database size", "T", METRICS)
    for t in (scaled(4000, 1000000), scaled(8000, 2000000), scaled(16000, 5000000)):
        relation = _relation(num_tuples=t)
        queries = _random_queries(relation, scaled(3, 10))
        _run_skyline(result, t, relation, queries)
    return result


def fig7_06_cardinality() -> ExperimentResult:
    """Figure 7.6: execution time w.r.t. the boolean-dimension cardinality C."""
    result = ExperimentResult("fig7.6", "skyline time vs cardinality", "C", METRICS)
    for c in (10, 100, 1000):
        relation = synthetic_relation(scaled(8000, 1000000), 3, 3, c, seed=79)
        queries = _random_queries(relation, scaled(3, 10))
        _run_skyline(result, c, relation, queries)
    return result


def fig7_07_distribution() -> ExperimentResult:
    """Figure 7.7: execution time w.r.t. the data distribution (E / C / A)."""
    result = ExperimentResult("fig7.7", "skyline time vs distribution", "S", METRICS)
    for distribution in ("E", "C", "A"):
        relation = synthetic_relation(scaled(8000, 1000000), 3, 3, 20,
                                      distribution=distribution, seed=83)
        queries = _random_queries(relation, scaled(3, 10))
        _run_skyline(result, distribution, relation, queries)
    return result


def fig7_08_preference_dims() -> ExperimentResult:
    """Figure 7.8: execution time w.r.t. the number of preference dimensions Dp."""
    relation = _relation(num_ranking_dims=4)
    result = ExperimentResult("fig7.8", "skyline time vs preference dims", "Dp", METRICS)
    for dp in (2, 3, 4):
        dims = relation.ranking_dims[:dp]
        queries = _random_queries(relation, scaled(3, 10), dims=dims)
        _run_skyline(result, dp, relation, queries)
    return result


def fig7_09_boolean_predicates() -> ExperimentResult:
    """Figure 7.9: execution time w.r.t. the number of boolean predicates m."""
    relation = _relation(num_selection_dims=4, cardinality=10)
    result = ExperimentResult("fig7.9", "skyline time vs #predicates", "m", METRICS)
    for m in (1, 2, 3, 4):
        queries = _random_queries(relation, scaled(3, 10), num_predicates=m)
        _run_skyline(result, m, relation, queries)
    return result


def fig7_10_hardness() -> ExperimentResult:
    """Figure 7.10: execution time w.r.t. query hardness (predicate selectivity)."""
    result = ExperimentResult("fig7.10", "skyline time vs hardness", "cardinality",
                              METRICS)
    # Lower cardinality -> more qualifying tuples -> harder skyline queries.
    for c in (5, 20, 80):
        relation = synthetic_relation(scaled(8000, 1000000), 3, 3, c, seed=89)
        queries = _random_queries(relation, scaled(3, 10), num_predicates=2)
        _run_skyline(result, c, relation, queries)
    return result


def fig7_11_predicate_types() -> ExperimentResult:
    """Figure 7.11: static vs dynamic skylines under boolean predicates."""
    relation = _relation()
    result = ExperimentResult("fig7.11", "static vs dynamic skylines", "type", METRICS)
    static = _random_queries(relation, scaled(3, 10), num_predicates=2)
    dynamic = _random_queries(relation, scaled(3, 10), num_predicates=2, dynamic=True)
    _run_skyline(result, "static", relation, static)
    _run_skyline(result, "dynamic", relation, dynamic)
    return result


def fig7_12_breakdown() -> ExperimentResult:
    """Figure 7.12: signature-loading cost vs total query cost."""
    relation = _relation()
    cube = _cube(relation)
    engine = SkylineEngine(cube, use_signature=True)
    result = ExperimentResult("fig7.12", "signature loading vs query time",
                              "query", ("signature_accesses", "total_accesses"))
    for i, query in enumerate(_random_queries(relation, scaled(4, 10),
                                              num_predicates=2)):
        cold_buffers(cube, cube.rtree, cube.store)
        outcome = engine.query(query)
        result.add("Signature", i, signature_accesses=float(outcome.signature_accesses),
                   total_accesses=float(outcome.disk_accesses))
    return result


def fig7_13_14_olap_navigation() -> ExperimentResult:
    """Figures 7.13–7.14: drill-down / roll-up vs an equivalent fresh query."""
    relation = _relation(num_selection_dims=4, cardinality=10)
    cube = _cube(relation)
    engine = SkylineEngine(cube, use_signature=True)
    session = SkylineSession(engine)
    result = ExperimentResult("fig7.13-14", "OLAP navigation vs fresh queries",
                              "step", METRICS)
    rng = np.random.default_rng(97)
    tid = int(rng.integers(0, relation.num_tuples))
    values = relation.selection_values(tid)
    base = SkylineQuery(Predicate.of(A1=values["A1"]), ("N1", "N2"))
    fresh_base = session.fresh(base)
    result.add("fresh", "base", time_s=fresh_base.elapsed_seconds,
               disk=float(fresh_base.disk_accesses),
               heap=float(fresh_base.peak_heap_size))

    drilled = session.drill_down({"A2": values["A2"]})
    result.add("drill-down (warm)", "base+A2", time_s=drilled.elapsed_seconds,
               disk=float(drilled.disk_accesses), heap=float(drilled.peak_heap_size))
    fresh_drill = session.fresh(SkylineQuery(
        Predicate.of(A1=values["A1"], A2=values["A2"]), ("N1", "N2")))
    result.add("fresh", "base+A2", time_s=fresh_drill.elapsed_seconds,
               disk=float(fresh_drill.disk_accesses),
               heap=float(fresh_drill.peak_heap_size))

    rolled = session.roll_up(["A2"])
    result.add("roll-up (warm)", "base", time_s=rolled.elapsed_seconds,
               disk=float(rolled.disk_accesses), heap=float(rolled.peak_heap_size))
    return result


EXPERIMENTS = {
    "fig7.3-5": fig7_03_05_database_size,
    "fig7.6": fig7_06_cardinality,
    "fig7.7": fig7_07_distribution,
    "fig7.8": fig7_08_preference_dims,
    "fig7.9": fig7_09_boolean_predicates,
    "fig7.10": fig7_10_hardness,
    "fig7.11": fig7_11_predicate_types,
    "fig7.12": fig7_12_breakdown,
    "fig7.13-14": fig7_13_14_olap_navigation,
}

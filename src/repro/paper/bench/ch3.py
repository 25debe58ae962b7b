"""Chapter 3 experiments: grid ranking cube and ranking fragments.

One function per paper figure (3.4–3.15).  Every function compares the
ranking cube (or ranking fragments) against the baseline (boolean-first over
per-dimension indexes, the SQL-Server stand-in) and the rank-mapping
approach with oracle-optimal bounds, reporting average query time and
counted disk accesses.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.paper.baselines import BooleanFirstTopK, RankMappingTopK
from repro.paper.bench.datasets import (
    covertype_relation,
    fragment_cube,
    grid_cube,
    selection_index,
    synthetic_relation,
)
from repro.paper.bench.harness import ExperimentResult, average, cold_buffers, scaled
from repro.cube import RankingCube, build_ranking_fragments
from repro.query import Predicate, TopKQuery
from repro.workloads import QuerySpec, generate_queries
from repro.storage.table import Relation

#: Methods compared in most Chapter 3 figures.
METHODS = ("ranking cube", "rank mapping", "baseline")
METRICS = ("time_s", "disk")


def _default_relation(num_ranking_dims: int = 2, cardinality: int = 20,
                      num_selection_dims: int = 3, num_tuples: int = 0) -> Relation:
    return synthetic_relation(
        num_tuples or scaled(20000, 1000000), num_selection_dims,
        num_ranking_dims, cardinality)


def _run_methods(result: ExperimentResult, x: object, relation: Relation,
                 cube: RankingCube, queries: Sequence[TopKQuery],
                 cube_label: str = "ranking cube") -> None:
    index = selection_index(relation)
    engines = {
        cube_label: cube.query,
        "rank mapping": RankMappingTopK(relation, index=index).query,
        "baseline": BooleanFirstTopK(relation, index=index).query,
    }
    for method, run in engines.items():
        times: List[float] = []
        disks: List[float] = []
        for query in queries:
            cold_buffers(cube, index, cube.block_table)
            outcome = run(query)
            times.append(outcome.elapsed_seconds)
            disks.append(outcome.disk_accesses)
        result.add(method, x, time_s=average(times), disk=average(disks))


def _queries(relation: Relation, k: int = 10, s: int = 2, r: int = 2,
             skewness: float = 1.0, count: int = 0, seed: int = 13) -> List[TopKQuery]:
    spec = QuerySpec(k=k, num_selection_conditions=s, num_ranking_dims=r,
                     skewness=skewness, seed=seed)
    return generate_queries(relation, spec, count=count or scaled(5, 20))


# ----------------------------------------------------------------------
# Figures 3.4 - 3.10: ranking cube on synthetic data
# ----------------------------------------------------------------------
def fig3_04_topk() -> ExperimentResult:
    """Figure 3.4: query execution time w.r.t. k."""
    relation = _default_relation()
    cube = grid_cube(relation)
    result = ExperimentResult("fig3.4", "query time vs k", "k", METRICS)
    for k in (5, 10, 15, 20):
        _run_methods(result, k, relation, cube, _queries(relation, k=k))
    return result


def fig3_05_skewness() -> ExperimentResult:
    """Figure 3.5: query execution time w.r.t. query skewness u."""
    relation = _default_relation()
    cube = grid_cube(relation)
    result = ExperimentResult("fig3.5", "query time vs skewness", "u", METRICS)
    for u in (1, 2, 3, 4, 5):
        _run_methods(result, u, relation, cube, _queries(relation, skewness=float(u)))
    return result


def fig3_06_ranking_dims() -> ExperimentResult:
    """Figure 3.6: query time w.r.t. r (dims in the ranking function)."""
    relation = synthetic_relation(scaled(15000, 1000000), 3, 4, 20)
    cube = grid_cube(relation)
    result = ExperimentResult("fig3.6", "query time vs ranking dims", "r", METRICS)
    for r in (2, 3, 4):
        _run_methods(result, r, relation, cube, _queries(relation, r=r))
    return result


def fig3_07_database_size() -> ExperimentResult:
    """Figure 3.7: query time w.r.t. database size T."""
    result = ExperimentResult("fig3.7", "query time vs database size", "T", METRICS)
    for t in (scaled(5000, 1000000), scaled(10000, 3000000), scaled(20000, 5000000),
              scaled(40000, 10000000)):
        relation = synthetic_relation(t, 3, 2, 20)
        cube = grid_cube(relation)
        _run_methods(result, t, relation, cube, _queries(relation))
    return result


def fig3_08_cardinality() -> ExperimentResult:
    """Figure 3.8: query time w.r.t. selection-dimension cardinality C."""
    result = ExperimentResult("fig3.8", "query time vs cardinality", "C", METRICS)
    for c in (10, 20, 50, 100):
        relation = synthetic_relation(scaled(20000, 3000000), 3, 2, c)
        cube = grid_cube(relation)
        _run_methods(result, c, relation, cube, _queries(relation))
    return result


def fig3_09_selection_conditions() -> ExperimentResult:
    """Figure 3.9: query time w.r.t. the number of selection conditions s."""
    relation = synthetic_relation(scaled(20000, 3000000), 4, 2, 20)
    cube = grid_cube(relation)
    result = ExperimentResult("fig3.9", "query time vs #selection conditions",
                              "s", METRICS)
    for s in (2, 3, 4):
        _run_methods(result, s, relation, cube, _queries(relation, s=s))
    return result


def fig3_10_block_size() -> ExperimentResult:
    """Figure 3.10: ranking-cube query time w.r.t. base block size B."""
    relation = _default_relation()
    result = ExperimentResult("fig3.10", "ranking cube time vs block size",
                              "block_size", METRICS)
    queries = _queries(relation)
    for block_size in (100, 200, 500, 1000):
        cube = RankingCube(relation, block_size=block_size)
        times, disks = [], []
        for query in queries:
            cold_buffers(cube, cube.block_table)
            outcome = cube.query(query)
            times.append(outcome.elapsed_seconds)
            disks.append(outcome.disk_accesses)
        result.add("ranking cube", block_size, time_s=average(times),
                   disk=average(disks))
    return result


# ----------------------------------------------------------------------
# Figures 3.11 - 3.15: ranking fragments (high boolean dimensionality)
# ----------------------------------------------------------------------
def fig3_11_space() -> ExperimentResult:
    """Figure 3.11: materialized space w.r.t. the number of selection dims."""
    result = ExperimentResult("fig3.11", "space usage vs #selection dims", "S",
                              ("bytes",))
    num_tuples = scaled(10000, 1000000)
    for s in (3, 6, 9, 12):
        relation = synthetic_relation(num_tuples, s, 2, 20)
        fragments = build_ranking_fragments(relation, fragment_size=2)
        index = SelectionIndexSize(relation)
        result.add("ranking fragments", s, bytes=float(fragments.size_in_bytes()))
        result.add("baseline indexes", s, bytes=float(index))
    return result


def SelectionIndexSize(relation: Relation) -> int:
    """Size of the per-dimension indexes used by the baselines."""
    return selection_index(relation).size_in_bytes()


def fig3_12_covering_fragments() -> ExperimentResult:
    """Figure 3.12: query time w.r.t. the number of covering fragments."""
    relation = synthetic_relation(scaled(20000, 1000000), 6, 2, 20)
    fragments = fragment_cube(relation, fragment_size=2)
    result = ExperimentResult("fig3.12", "query time vs covering fragments",
                              "fragments", METRICS)
    rng = np.random.default_rng(3)
    # Queries intentionally covered by 1, 2 and 3 fragments.
    dim_choices = {1: ("A1", "A2"), 2: ("A1", "A3"), 3: ("A1", "A3", "A5")}
    for count, dims in dim_choices.items():
        times, disks = [], []
        for _ in range(scaled(5, 20)):
            tid = int(rng.integers(0, relation.num_tuples))
            values = relation.selection_values(tid)
            predicate = Predicate.of({d: values[d] for d in dims})
            from repro.functions import LinearFunction
            query = TopKQuery(predicate, LinearFunction(["N1", "N2"], [1.0, 1.0]), 10)
            cold_buffers(fragments, fragments.block_table)
            outcome = fragments.query(query)
            times.append(outcome.elapsed_seconds)
            disks.append(outcome.disk_accesses)
        result.add("ranking fragments", count, time_s=average(times),
                   disk=average(disks))
    return result


def fig3_13_fragment_size() -> ExperimentResult:
    """Figure 3.13: query time w.r.t. the fragment size F."""
    relation = synthetic_relation(scaled(20000, 1000000), 6, 2, 20)
    result = ExperimentResult("fig3.13", "query time vs fragment size", "F", METRICS)
    queries = _queries(relation, s=3)
    for fragment_size in (1, 2, 3):
        fragments = build_ranking_fragments(relation, fragment_size=fragment_size)
        times, disks = [], []
        for query in queries:
            cold_buffers(fragments, fragments.block_table)
            outcome = fragments.query(query)
            times.append(outcome.elapsed_seconds)
            disks.append(outcome.disk_accesses)
        result.add("ranking fragments", fragment_size, time_s=average(times),
                   disk=average(disks))
    return result


def fig3_14_selection_dims() -> ExperimentResult:
    """Figure 3.14: query time w.r.t. the number of selection dimensions S."""
    result = ExperimentResult("fig3.14", "query time vs #selection dims", "S", METRICS)
    for s in (3, 6, 9, 12):
        relation = synthetic_relation(scaled(15000, 1000000), s, 2, 20)
        fragments = fragment_cube(relation, fragment_size=2)
        _run_methods(result, s, relation, fragments, _queries(relation, s=3),
                     cube_label="ranking fragments")
    return result


def fig3_15_real_data() -> ExperimentResult:
    """Figure 3.15: query time on the CoverType-like real-data surrogate."""
    relation = covertype_relation(scaled(15000, 500000))
    fragments = fragment_cube(relation, fragment_size=3)
    result = ExperimentResult("fig3.15", "query time vs k on real data", "k", METRICS)
    for k in (5, 10, 15, 20):
        queries = _queries(relation, k=k, s=3, r=3)
        _run_methods(result, k, relation, fragments, queries,
                     cube_label="ranking fragments")
    return result


#: This chapter's share of ``repro.paper.bench.ALL_EXPERIMENTS``.
EXPERIMENTS = {
    "fig3.4": fig3_04_topk,
    "fig3.5": fig3_05_skewness,
    "fig3.6": fig3_06_ranking_dims,
    "fig3.7": fig3_07_database_size,
    "fig3.8": fig3_08_cardinality,
    "fig3.9": fig3_09_selection_conditions,
    "fig3.10": fig3_10_block_size,
    "fig3.11": fig3_11_space,
    "fig3.12": fig3_12_covering_fragments,
    "fig3.13": fig3_13_fragment_size,
    "fig3.14": fig3_14_selection_dims,
    "fig3.15": fig3_15_real_data,
}

"""Chapter 4 experiments: signature ranking cube construction, size, queries."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.paper.baselines import BooleanFirstTopK, RankingFirstTopK
from repro.paper.bench.datasets import ranking_rtree, selection_index, synthetic_relation
from repro.paper.bench.harness import ExperimentResult, average, cold_buffers, scaled
from repro.functions import (
    ExpressionFunction,
    LinearFunction,
    SquaredDistanceFunction,
    Var,
)
from repro.query import Predicate, TopKQuery
from repro.paper.signature import SignatureRankingCube, SignatureTopKExecutor
from repro.paper.signature.encoding import SCHEME_BL, encode, encode_adaptive
from repro.paper.signature.signature import Signature
from repro.paper.btree import BPlusTree
from repro.storage.table import Relation
from repro.workloads import QuerySpec, generate_queries

METRICS = ("time_s", "disk")


def _relation(num_tuples: int, cardinality: int = 100, num_selection_dims: int = 3,
              num_ranking_dims: int = 3) -> Relation:
    return synthetic_relation(num_tuples, num_selection_dims, num_ranking_dims,
                              cardinality, seed=17)


def fig4_08_construction_time() -> ExperimentResult:
    """Figure 4.8: construction time of the cube vs R-tree vs B+-trees, w.r.t. T."""
    result = ExperimentResult("fig4.8", "construction time vs T", "T", ("time_s",))
    for t in (scaled(5000, 1000000), scaled(10000, 5000000), scaled(20000, 10000000)):
        relation = _relation(t)
        cube = SignatureRankingCube(relation, rtree_max_entries=32)
        import time as _time
        start = _time.perf_counter()
        for dim in relation.selection_dims:
            BPlusTree.build(dim, relation.selection_column(dim).astype(float))
        btree_seconds = _time.perf_counter() - start
        result.add("signature cube", t, time_s=cube.stats.cube_seconds)
        result.add("R-tree", t, time_s=cube.stats.rtree_seconds)
        result.add("B-trees", t, time_s=btree_seconds)
    return result


def fig4_09_materialized_size() -> ExperimentResult:
    """Figure 4.9: materialized size of cube vs R-tree vs selection indexes."""
    result = ExperimentResult("fig4.9", "materialized size vs T", "T", ("bytes",))
    for t in (scaled(5000, 1000000), scaled(10000, 5000000), scaled(20000, 10000000)):
        relation = _relation(t)
        cube = SignatureRankingCube(relation, rtree_max_entries=32)
        index = selection_index(relation)
        result.add("signature cube", t, bytes=float(cube.size_in_bytes()))
        result.add("R-tree", t, bytes=float(cube.stats.rtree_bytes))
        result.add("B-trees", t, bytes=float(index.size_in_bytes()))
    return result


def fig4_10_compression() -> ExperimentResult:
    """Figure 4.10: adaptive signature compression vs baseline coding, w.r.t. C."""
    result = ExperimentResult("fig4.10", "signature size vs cardinality", "C",
                              ("bits",))
    num_tuples = scaled(8000, 1000000)
    for cardinality in (10, 100, 1000):
        relation = synthetic_relation(num_tuples, 3, 3, cardinality, seed=19)
        rtree = ranking_rtree(relation, max_entries=32)
        paths = dict(rtree.iter_tuple_paths())
        baseline_bits = 0
        adaptive_bits = 0
        for dim in relation.selection_dims:
            column = relation.selection_column(dim)
            for value in np.unique(column):
                tids = np.nonzero(column == value)[0]
                signature = Signature.from_paths([paths[t] for t in tids],
                                                 fanout=rtree.max_entries)
                for _, bits in signature.iter_nodes_breadth_first():
                    baseline_bits += len(encode(bits, rtree.max_entries, SCHEME_BL,
                                                False))
                    adaptive_bits += len(encode_adaptive(bits, rtree.max_entries))
        result.add("baseline coding", cardinality, bits=float(baseline_bits))
        result.add("adaptive compression", cardinality, bits=float(adaptive_bits))
    return result


def fig4_11_incremental_updates() -> ExperimentResult:
    """Figure 4.11: incremental maintenance cost vs number of inserted tuples."""
    result = ExperimentResult("fig4.11", "maintenance time vs inserts", "inserts",
                              ("time_s", "pages_written"))
    rng = np.random.default_rng(23)
    for t in (scaled(5000, 1000000), scaled(10000, 5000000)):
        relation = synthetic_relation(t, 3, 3, 100, seed=29)
        cube = SignatureRankingCube(relation, rtree_max_entries=32)
        for batch in (1, 10, 100):
            rows = []
            for _ in range(batch):
                row = {d: int(rng.integers(0, relation.cardinality(d)))
                       for d in relation.selection_dims}
                row.update({d: float(rng.random()) for d in relation.ranking_dims})
                rows.append(row)
            report = cube.insert(rows)
            result.add(f"incremental (T={t})", batch,
                       time_s=report.elapsed_seconds,
                       pages_written=float(report.pages_written))
        rebuild_seconds = cube.rebuild()
        result.add(f"recompute (T={t})", "full", time_s=rebuild_seconds,
                   pages_written=float(cube.store.num_pages()))
    return result


def fig4_12_query_topk() -> ExperimentResult:
    """Figure 4.12: query time w.r.t. k — Boolean vs Ranking vs Signature."""
    relation = _relation(scaled(20000, 1000000))
    cube = SignatureRankingCube(relation, rtree_max_entries=32)
    executor = SignatureTopKExecutor(cube)
    boolean = BooleanFirstTopK(relation, index=selection_index(relation))
    ranking = RankingFirstTopK(relation, cube.rtree)
    result = ExperimentResult("fig4.12", "query time vs k", "k", METRICS)
    for k in (10, 20, 50, 100):
        queries = generate_queries(relation, QuerySpec(k=k, num_selection_conditions=2,
                                                       num_ranking_dims=3, seed=31),
                                   count=scaled(5, 20))
        for name, engine in (("Signature", executor), ("Ranking", ranking),
                             ("Boolean", boolean)):
            times, disks = [], []
            for query in queries:
                cold_buffers(cube, cube.rtree, cube.store)
                outcome = engine.query(query)
                times.append(outcome.elapsed_seconds)
                disks.append(outcome.disk_accesses)
            result.add(name, k, time_s=average(times), disk=average(disks))
    return result


def fig4_13_disk_by_function() -> ExperimentResult:
    """Figure 4.13: R-tree block accesses per ranking-function type (k=100)."""
    relation = _relation(scaled(20000, 1000000))
    cube = SignatureRankingCube(relation, rtree_max_entries=32)
    executor = SignatureTopKExecutor(cube)
    ranking = RankingFirstTopK(relation, cube.rtree)
    rng = np.random.default_rng(37)
    functions = {
        "linear": LinearFunction(["N1", "N2", "N3"], rng.random(3).tolist()),
        "distance": SquaredDistanceFunction(["N1", "N2", "N3"], rng.random(3).tolist()),
        "general": ExpressionFunction(
            (2 * Var("N1") - Var("N2") - Var("N3")) ** 2),
    }
    result = ExperimentResult("fig4.13", "disk accesses vs function type", "function",
                              ("disk",))
    predicate = Predicate.of(A1=1, A2=2)
    for name, function in functions.items():
        for method, engine in (("Signature", executor), ("Ranking", ranking)):
            cold_buffers(cube, cube.rtree, cube.store)
            outcome = engine.query(TopKQuery(predicate, function, 100))
            result.add(method, name, disk=float(outcome.disk_accesses))
    return result


EXPERIMENTS = {
    "fig4.8": fig4_08_construction_time,
    "fig4.9": fig4_09_materialized_size,
    "fig4.10": fig4_10_compression,
    "fig4.11": fig4_11_incremental_updates,
    "fig4.12": fig4_12_query_topk,
    "fig4.13": fig4_13_disk_by_function,
}

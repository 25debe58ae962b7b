"""Chapter 5 experiments: index merging (TS / BL / PE / PE+SIG)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.paper.baselines import TableScanTopK
from repro.paper.bench.datasets import (
    covertype_relation,
    dimension_btree,
    ranking_rtree,
    synthetic_relation,
)
from repro.paper.bench.harness import ExperimentResult, average, cold_buffers, scaled
from repro.functions import (
    ConstrainedFunction,
    ExpressionFunction,
    LinearFunction,
    RankingFunction,
    SquaredDistanceFunction,
    Var,
)
from repro.paper.indexmerge import (
    MODE_BASELINE,
    MODE_PROGRESSIVE,
    MODE_SELECTIVE,
    IndexMergeTopK,
    JoinSignatureSet,
)
from repro.query import Predicate, TopKQuery
from repro.paper.hierindex import HierarchicalIndex
from repro.storage.table import Relation

MERGE_METRICS = ("time_s", "disk", "states", "heap")


def _two_btrees(relation: Relation, fanout: int = 32):
    return [dimension_btree(relation, "N1", fanout), dimension_btree(relation, "N2", fanout)]


def _functions(seed: int = 3) -> Dict[str, RankingFunction]:
    rng = np.random.default_rng(seed)
    a, b = rng.random(2)
    lo = float(rng.uniform(0.2, 0.5))
    return {
        "fs": SquaredDistanceFunction(["N1", "N2"], [float(a), float(b)]),
        "fg": ExpressionFunction((Var("N1") - Var("N2") ** 2) ** 2),
        "fc": ConstrainedFunction(LinearFunction(["N1", "N2"], [1.0, 1.0]),
                                  "N2", lo, lo + 0.2),
    }


def _run_merge(result: ExperimentResult, x: object, relation: Relation,
               indexes: Sequence[HierarchicalIndex], function: RankingFunction, k: int,
               signatures: JoinSignatureSet,
               methods: Sequence[str] = ("TS", "BL", "PE", "PE+SIG"),
               extra_signatures: Optional[Dict[str, JoinSignatureSet]] = None) -> None:
    scan = TableScanTopK(relation)
    for method in methods:
        if method == "TS":
            outcome = scan.query(TopKQuery(Predicate.of(), function, k))
            result.add("TS", x, time_s=outcome.elapsed_seconds,
                       disk=float(outcome.disk_accesses), states=0.0, heap=0.0)
            continue
        if method == "BL":
            engine = IndexMergeTopK(indexes, mode=MODE_BASELINE)
        elif method == "PE":
            engine = IndexMergeTopK(indexes, mode=MODE_PROGRESSIVE)
        else:
            sigs = signatures
            if extra_signatures and method in extra_signatures:
                sigs = extra_signatures[method]
            engine = IndexMergeTopK(indexes, mode=MODE_SELECTIVE, join_signatures=sigs)
        for index in indexes:
            cold_buffers(index)
        outcome = engine.query(function, k)
        result.add(method, x, time_s=outcome.elapsed_seconds,
                   disk=float(outcome.disk_accesses),
                   states=float(outcome.states_generated),
                   heap=float(outcome.peak_heap_size))


def tab5_01_significance() -> ExperimentResult:
    """Table 5.1: basic vs improved index merge on f=(A-B^2)^2, top-100."""
    relation = synthetic_relation(scaled(20000, 1000000), 2, 2, 10, seed=41)
    indexes = _two_btrees(relation)
    signatures = JoinSignatureSet.full(indexes)
    function = ExpressionFunction((Var("N1") - Var("N2") ** 2) ** 2)
    result = ExperimentResult("tab5.1", "basic vs improved index merge", "variant",
                              ("states", "disk"))
    for name, mode, sigs in (("Basic", MODE_BASELINE, None),
                             ("Improved", MODE_SELECTIVE, signatures)):
        engine = IndexMergeTopK(indexes, mode=mode, join_signatures=sigs)
        for index in indexes:
            cold_buffers(index)
        outcome = engine.query(function, 100)
        result.add(name, "top-100", states=float(outcome.states_generated),
                   disk=float(outcome.disk_accesses))
    return result


def _time_vs_k(function_name: str) -> ExperimentResult:
    relation = synthetic_relation(scaled(20000, 1000000), 2, 2, 10, seed=41)
    indexes = _two_btrees(relation)
    signatures = JoinSignatureSet.full(indexes)
    function = _functions()[function_name]
    result = ExperimentResult(f"fig5.{function_name}", f"time vs K, f={function_name}",
                              "K", MERGE_METRICS)
    for k in (10, 20, 50, 100):
        _run_merge(result, k, relation, indexes, function, k, signatures)
    return result


def fig5_07_time_fs() -> ExperimentResult:
    """Figure 5.7: execution time w.r.t. K for the semi-monotone fs."""
    return _time_vs_k("fs")


def fig5_08_time_fg() -> ExperimentResult:
    """Figure 5.8: execution time w.r.t. K for the general fg."""
    return _time_vs_k("fg")


def fig5_09_time_fc() -> ExperimentResult:
    """Figure 5.9: execution time w.r.t. K for the constrained fc."""
    return _time_vs_k("fc")


_MEMO: Dict[str, ExperimentResult] = {}


def _per_function_metric() -> ExperimentResult:
    if "per_function" in _MEMO:
        return _MEMO["per_function"]
    relation = synthetic_relation(scaled(20000, 1000000), 2, 2, 10, seed=41)
    indexes = _two_btrees(relation)
    signatures = JoinSignatureSet.full(indexes)
    result = ExperimentResult("fig5.10-12", "per-function metrics at k=100", "f",
                              MERGE_METRICS)
    for name, function in _functions().items():
        _run_merge(result, name, relation, indexes, function, 100, signatures,
                   methods=("BL", "PE", "PE+SIG"))
    _MEMO["per_function"] = result
    return result


def fig5_10_disk_by_function() -> ExperimentResult:
    """Figure 5.10: disk accesses per function at k=100."""
    return _per_function_metric()


def fig5_11_states_by_function() -> ExperimentResult:
    """Figure 5.11: states generated per function at k=100."""
    return _per_function_metric()


def fig5_12_heap_by_function() -> ExperimentResult:
    """Figure 5.12: peak heap size per function at k=100."""
    return _per_function_metric()


def fig5_13_real_data() -> ExperimentResult:
    """Figure 5.13: execution time w.r.t. K on the CoverType surrogate (2 R-trees)."""
    relation = covertype_relation(scaled(15000, 1000000))
    left = ranking_rtree(relation, ["N1", "N2"], max_entries=32)
    right = dimension_btree(relation, "N3")
    indexes = [left, right]
    signatures = JoinSignatureSet.full(indexes)
    function = SquaredDistanceFunction(["N1", "N2", "N3"], [0.4, 0.5, 0.6])
    result = ExperimentResult("fig5.13", "time vs K on real data", "K", MERGE_METRICS)
    for k in (10, 20, 50, 100):
        _run_merge(result, k, relation, indexes, function, k, signatures)
    return result


def fig5_14_rtree_dimensionality() -> ExperimentResult:
    """Figure 5.14: execution time w.r.t. the dimensionality of the merged R-trees."""
    result = ExperimentResult("fig5.14", "time vs R-tree dimensionality", "d",
                              MERGE_METRICS)
    for d in (1, 2, 3):
        relation = synthetic_relation(scaled(10000, 1000000), 2, 2 * d, 10, seed=43)
        dims = relation.ranking_dims
        left = ranking_rtree(relation, dims[:d], max_entries=32)
        right = ranking_rtree(relation, dims[d:], max_entries=32)
        indexes = [left, right]
        signatures = JoinSignatureSet.full(indexes)
        targets = [0.5] * (2 * d)
        function = SquaredDistanceFunction(list(dims), targets)
        _run_merge(result, d, relation, indexes, function, 100, signatures,
                   methods=("TS", "PE", "PE+SIG"))
    return result


def _three_way(metric_only: bool = False) -> ExperimentResult:
    if "three_way" in _MEMO:
        return _MEMO["three_way"]
    relation = synthetic_relation(scaled(12000, 1000000), 2, 3, 10, seed=47)
    indexes = [dimension_btree(relation, d, 32) for d in ("N1", "N2", "N3")]
    pairwise = JoinSignatureSet.pairwise(indexes)
    full = JoinSignatureSet.full(indexes)
    function = SquaredDistanceFunction(["N1", "N2", "N3"], [0.3, 0.6, 0.2])
    result = ExperimentResult("fig5.15-17", "3-way merge", "K", MERGE_METRICS)
    scan = TableScanTopK(relation)
    for k in (10, 20, 50, 100):
        outcome = scan.query(TopKQuery(Predicate.of(), function, k))
        result.add("TS", k, time_s=outcome.elapsed_seconds,
                   disk=float(outcome.disk_accesses), states=0.0, heap=0.0)
        for name, sigs, mode in (("PE", None, MODE_PROGRESSIVE),
                                 ("PE+2dSIG", pairwise, MODE_SELECTIVE),
                                 ("PE+3dSIG", full, MODE_SELECTIVE)):
            engine = IndexMergeTopK(indexes, mode=mode, join_signatures=sigs)
            for index in indexes:
                cold_buffers(index)
            outcome = engine.query(function, k)
            result.add(name, k, time_s=outcome.elapsed_seconds,
                       disk=float(outcome.disk_accesses),
                       states=float(outcome.states_generated),
                       heap=float(outcome.peak_heap_size))
    _MEMO["three_way"] = result
    return result


def fig5_15_three_way_time() -> ExperimentResult:
    """Figure 5.15: 3-way merge execution time w.r.t. K."""
    return _three_way()


def fig5_16_three_way_heap() -> ExperimentResult:
    """Figure 5.16: 3-way merge peak heap size w.r.t. K."""
    return _three_way()


def fig5_17_three_way_disk() -> ExperimentResult:
    """Figure 5.17: 3-way merge disk accesses w.r.t. K."""
    return _three_way()


def fig5_18_partial_attributes() -> ExperimentResult:
    """Figure 5.18: only a subset of the indexed attributes participates in ranking."""
    relation = synthetic_relation(scaled(10000, 1000000), 2, 4, 10, seed=53)
    left = ranking_rtree(relation, ["N1", "N2"], max_entries=32)
    right = ranking_rtree(relation, ["N3", "N4"], max_entries=32)
    indexes = [left, right]
    signatures = JoinSignatureSet.full(indexes)
    result = ExperimentResult("fig5.18", "partial attributes in ranking",
                              "ranked_dims", MERGE_METRICS)
    for ranked in (2, 3, 4):
        dims = list(relation.ranking_dims[:ranked])
        function = SquaredDistanceFunction(dims, [0.5] * ranked)
        _run_merge(result, ranked, relation, indexes, function, 50, signatures,
                   methods=("PE", "PE+SIG"))
    return result


def fig5_19_node_size() -> ExperimentResult:
    """Figure 5.19: execution time w.r.t. the index node size (fanout)."""
    relation = synthetic_relation(scaled(15000, 1000000), 2, 2, 10, seed=59)
    function = _functions()["fg"]
    result = ExperimentResult("fig5.19", "time vs node fanout", "fanout",
                              MERGE_METRICS)
    for fanout in (16, 32, 64, 128):
        indexes = _two_btrees(relation, fanout=fanout)
        signatures = JoinSignatureSet.full(indexes)
        _run_merge(result, fanout, relation, indexes, function, 100, signatures,
                   methods=("PE", "PE+SIG"))
    return result


def fig5_20_database_size() -> ExperimentResult:
    """Figure 5.20: execution time w.r.t. the number of tuples."""
    function = _functions()["fs"]
    result = ExperimentResult("fig5.20", "time vs database size", "T", MERGE_METRICS)
    for t in (scaled(5000, 1000000), scaled(10000, 2000000), scaled(20000, 5000000)):
        relation = synthetic_relation(t, 2, 2, 10, seed=61)
        indexes = _two_btrees(relation)
        signatures = JoinSignatureSet.full(indexes)
        _run_merge(result, t, relation, indexes, function, 100, signatures)
    return result


def fig5_21_22_join_signature_build() -> ExperimentResult:
    """Figures 5.21–5.22: join-signature construction time and size w.r.t. T."""
    result = ExperimentResult("fig5.21-22", "join-signature build cost vs T", "T",
                              ("time_s", "bytes"))
    for t in (scaled(5000, 1000000), scaled(10000, 2000000), scaled(20000, 5000000)):
        relation = synthetic_relation(t, 2, 2, 10, seed=67)
        indexes = _two_btrees(relation)
        signatures = JoinSignatureSet.full(indexes)
        result.add("join-signature", t, time_s=signatures.build_seconds(),
                   bytes=float(signatures.size_in_bytes()))
    return result


EXPERIMENTS = {
    "tab5.1": tab5_01_significance,
    "fig5.7": fig5_07_time_fs,
    "fig5.8": fig5_08_time_fg,
    "fig5.9": fig5_09_time_fc,
    "fig5.10": fig5_10_disk_by_function,
    "fig5.11": fig5_11_states_by_function,
    "fig5.12": fig5_12_heap_by_function,
    "fig5.13": fig5_13_real_data,
    "fig5.14": fig5_14_rtree_dimensionality,
    "fig5.15": fig5_15_three_way_time,
    "fig5.16": fig5_16_three_way_heap,
    "fig5.17": fig5_17_three_way_disk,
    "fig5.18": fig5_18_partial_attributes,
    "fig5.19": fig5_19_node_size,
    "fig5.20": fig5_20_database_size,
    "fig5.21-22": fig5_21_22_join_signature_build,
}

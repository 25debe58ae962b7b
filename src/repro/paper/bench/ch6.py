"""Chapter 6 experiments: SPJR (rank-join) queries over multiple relations."""

from __future__ import annotations

from typing import Dict, Tuple

from repro.paper.baselines import TableScanTopK
from repro.paper.bench.harness import ExperimentResult, average, scaled
from repro.functions import LinearFunction
from repro.paper.joins import (
    JoinCondition,
    RankingCubeJoinSystem,
    RelationTerm,
    SPJRQuery,
)
from repro.query import Predicate
from repro.storage.table import Relation
from repro.workloads import SyntheticSpec, generate_relation

_SYSTEMS: Dict[Tuple, RankingCubeJoinSystem] = {}


def _relations(num_tuples: int, join_cardinality: int, seed: int = 71
               ) -> Tuple[Relation, Relation]:
    left = generate_relation(
        SyntheticSpec(num_tuples=num_tuples, num_selection_dims=2,
                      num_ranking_dims=2, cardinality=join_cardinality, seed=seed),
        name=f"L{num_tuples}_{join_cardinality}")
    right = generate_relation(
        SyntheticSpec(num_tuples=num_tuples, num_selection_dims=2,
                      num_ranking_dims=2, cardinality=join_cardinality, seed=seed + 1),
        name=f"R{num_tuples}_{join_cardinality}")
    return left, right


def _system(left: Relation, right: Relation) -> RankingCubeJoinSystem:
    key = (left.name, right.name)
    if key not in _SYSTEMS:
        _SYSTEMS[key] = RankingCubeJoinSystem([left, right], rtree_max_entries=32)
    return _SYSTEMS[key]


def _query(left: Relation, right: Relation, k: int = 10) -> SPJRQuery:
    return SPJRQuery(
        terms=(
            RelationTerm(left, Predicate.of(A2=1),
                         LinearFunction(["N1", "N2"], [1.0, 1.0])),
            RelationTerm(right, Predicate.of(A2=2), LinearFunction(["N1"], [1.0])),
        ),
        joins=(JoinCondition(left.name, "A1", right.name, "A1"),),
        k=k,
    )


def _materialize_join_baseline(query: SPJRQuery) -> float:
    """Baseline: materialize the full filtered join, then sort (time in seconds)."""
    import itertools
    import time

    start = time.perf_counter()
    left_term, right_term = query.terms
    left_tids = left_term.relation.tids_matching(left_term.predicate.as_dict)
    right_tids = right_term.relation.tids_matching(right_term.predicate.as_dict)
    join = query.joins[0]
    right_by_key: Dict[int, list] = {}
    for tid in right_tids:
        key = right_term.relation.selection_values(int(tid))[join.right_dim]
        right_by_key.setdefault(key, []).append(int(tid))
    scores = []
    for tid in left_tids:
        key = left_term.relation.selection_values(int(tid))[join.left_dim]
        for other in right_by_key.get(key, []):
            scores.append(left_term.score(int(tid)) + right_term.score(other))
    scores.sort()
    del scores[query.k:]
    return time.perf_counter() - start


def fig6_03_cardinality() -> ExperimentResult:
    """Figure 6.3: execution time w.r.t. the join-attribute cardinality."""
    result = ExperimentResult("fig6.3", "rank join vs join-then-sort, by cardinality",
                              "cardinality", ("time_s", "pulls"))
    num_tuples = scaled(4000, 100000)
    for cardinality in (5, 20, 50, 100):
        left, right = _relations(num_tuples, cardinality)
        system = _system(left, right)
        query = _query(left, right)
        outcome = system.query(query)
        baseline_seconds = _materialize_join_baseline(query)
        result.add("ranking cube join", cardinality, time_s=outcome.elapsed_seconds,
                   pulls=outcome.extra["stream_pulls"])
        result.add("join then sort", cardinality, time_s=baseline_seconds, pulls=0.0)
    return result


def fig6_04_database_size() -> ExperimentResult:
    """Figure 6.4: execution time w.r.t. the relation sizes."""
    result = ExperimentResult("fig6.4", "rank join vs join-then-sort, by size", "T",
                              ("time_s", "pulls"))
    for num_tuples in (scaled(2000, 50000), scaled(4000, 100000), scaled(8000, 200000)):
        left, right = _relations(num_tuples, 20)
        system = _system(left, right)
        query = _query(left, right)
        outcome = system.query(query)
        baseline_seconds = _materialize_join_baseline(query)
        result.add("ranking cube join", num_tuples, time_s=outcome.elapsed_seconds,
                   pulls=outcome.extra["stream_pulls"])
        result.add("join then sort", num_tuples, time_s=baseline_seconds, pulls=0.0)
    return result


EXPERIMENTS = {
    "fig6.3": fig6_03_cardinality,
    "fig6.4": fig6_04_database_size,
}

"""Synthetic dataset and query generators (Sections 3.5.1, 4.4.1, 5.4.1, 7.3.1).

The generators reproduce the knobs of the paper's synthetic data:

* ``T`` — number of tuples,
* ``S`` (``Db``) — number of selection / boolean dimensions,
* ``R`` (``Dp``) — number of ranking / preference dimensions,
* ``C`` — cardinality of each selection dimension,
* ``distribution`` — ``"E"`` (uniform / independent), ``"C"`` (correlated)
  or ``"A"`` (anti-correlated) ranking values, the three distributions used
  by the skyline experiments.

Ranking values are scaled into ``[0, 1]`` — the thesis' default domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import QueryError
from repro.functions.base import RankingFunction
from repro.functions.distance import SquaredDistanceFunction
from repro.functions.linear import LinearFunction, skewed_linear_function
from repro.query import Predicate, TopKQuery
from repro.storage.table import Relation, Schema

#: Valid distribution codes: uniform (E), correlated (C), anti-correlated (A).
DISTRIBUTIONS = ("E", "C", "A")


def selection_dim_names(count: int) -> Tuple[str, ...]:
    """``A1..AS`` selection dimension names."""
    return tuple(f"A{i + 1}" for i in range(count))


def ranking_dim_names(count: int) -> Tuple[str, ...]:
    """``N1..NR`` ranking dimension names."""
    return tuple(f"N{i + 1}" for i in range(count))


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one synthetic dataset (Table 3.8 / Section 4.4.1)."""

    num_tuples: int = 3000
    num_selection_dims: int = 3
    num_ranking_dims: int = 2
    cardinality: int = 20
    distribution: str = "E"
    seed: int = 7

    def __post_init__(self) -> None:
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"distribution must be one of {DISTRIBUTIONS}, got {self.distribution!r}")


def generate_relation(spec: SyntheticSpec, name: str = "R",
                      cardinalities: Optional[Sequence[int]] = None) -> Relation:
    """Generate a synthetic relation according to ``spec``.

    ``cardinalities`` overrides the per-dimension cardinality (used by the
    CoverType surrogate and the cardinality-sweep experiments).
    """
    rng = np.random.default_rng(spec.seed)
    sel_dims = selection_dim_names(spec.num_selection_dims)
    rank_dims = ranking_dim_names(spec.num_ranking_dims)
    schema = Schema(sel_dims, rank_dims)

    if cardinalities is None:
        cardinalities = [spec.cardinality] * spec.num_selection_dims
    if len(cardinalities) != spec.num_selection_dims:
        raise ValueError("cardinalities must align with the selection dimensions")
    selection = np.column_stack([
        rng.integers(0, max(1, card), size=spec.num_tuples)
        for card in cardinalities
    ]) if spec.num_selection_dims else np.empty((spec.num_tuples, 0), dtype=np.int64)

    ranking = _ranking_values(rng, spec.num_tuples, spec.num_ranking_dims,
                              spec.distribution)
    return Relation(schema, selection, ranking, name=name)


def _ranking_values(rng: np.random.Generator, count: int, dims: int,
                    distribution: str) -> np.ndarray:
    if dims == 0:
        return np.empty((count, 0), dtype=np.float64)
    if distribution == "E":
        return rng.random((count, dims))
    base = rng.random(count)
    noise = rng.normal(0.0, 0.05, size=(count, dims))
    if distribution == "C":
        values = base[:, None] + noise
    else:  # anti-correlated: coordinates sum to roughly a constant
        values = np.empty((count, dims))
        share = rng.dirichlet(np.ones(dims), size=count)
        values = share * (0.8 + 0.4 * base)[:, None] + noise * 0.2
    low = values.min()
    high = values.max()
    if high <= low:
        high = low + 1.0
    return (values - low) / (high - low)


@dataclass(frozen=True)
class QuerySpec:
    """Parameters of the random query workload (Table 3.9)."""

    k: int = 10
    num_selection_conditions: int = 2
    num_ranking_dims: int = 2
    skewness: float = 1.0
    function_kind: str = "linear"  # "linear" or "distance"
    seed: int = 13


def generate_queries(relation: Relation, spec: QuerySpec, count: int = 20
                     ) -> List[TopKQuery]:
    """Generate ``count`` random top-k queries over ``relation``."""
    rng = np.random.default_rng(spec.seed)
    if spec.num_selection_conditions > len(relation.selection_dims):
        raise QueryError("more selection conditions requested than dimensions exist")
    if spec.num_ranking_dims > len(relation.ranking_dims):
        raise QueryError("more ranking dimensions requested than exist")
    queries: List[TopKQuery] = []
    for _ in range(count):
        sel_dims = list(rng.choice(relation.selection_dims,
                                   size=spec.num_selection_conditions, replace=False))
        conditions = {}
        for dim in sel_dims:
            column = relation.selection_column(dim)
            conditions[dim] = int(column[rng.integers(0, len(column))])
        rank_dims = list(rng.choice(relation.ranking_dims,
                                    size=spec.num_ranking_dims, replace=False))
        function = make_ranking_function(rank_dims, spec.function_kind,
                                         spec.skewness, rng)
        queries.append(TopKQuery(Predicate.of(conditions), function, spec.k))
    return queries


def make_ranking_function(dims: Sequence[str], kind: str, skewness: float,
                          rng: Optional[np.random.Generator] = None) -> RankingFunction:
    """Build a random ranking function of the requested kind."""
    rng = rng or np.random.default_rng(0)
    if kind == "linear":
        return skewed_linear_function(list(dims), skewness, rng=rng)
    if kind == "distance":
        targets = rng.random(len(dims))
        return SquaredDistanceFunction(list(dims), targets.tolist())
    raise QueryError(f"unknown ranking function kind {kind!r}")


def random_predicate(relation: Relation, num_conditions: int,
                     rng: Optional[np.random.Generator] = None) -> Predicate:
    """A random equality predicate with values drawn from actual tuples."""
    rng = rng or np.random.default_rng(0)
    dims = list(rng.choice(relation.selection_dims, size=num_conditions, replace=False))
    tid = int(rng.integers(0, relation.num_tuples))
    values = relation.selection_values(tid)
    return Predicate.of({dim: values[dim] for dim in dims})

"""A scan with no condition is the brute-force oracle.

``TableScanTopK`` and ``BooleanFirstSkyline`` take every row when the
predicate is empty.  The answers must be the oracle's, bit for bit under
the canonical ``(score, tid)`` order, on ties, duplicates, NaN-free and
NaN-carrying scores alike, and so must the routed answers of the default
stack.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Executor
from repro.functions import Add, ExpressionFunction, Mul, Var
from repro.functions.distance import SquaredDistanceFunction
from repro.functions.linear import LinearFunction
from repro.query import Predicate, SkylineQuery, TopKQuery
from repro.skyline import BooleanFirstSkyline
from repro.storage.table import Relation, Schema
from repro.storage.table_scan import TableScanTopK
from repro.workloads import SyntheticSpec, generate_relation
from tests.conftest import brute_force_topk
from tests.test_parity_oracle import brute_force_skyline

SCHEMA = Schema(("A1", "A2"), ("N1", "N2", "N3"))


def quantised_relation(seed: int, rows: int, levels: int) -> Relation:
    """Ranking values on a ``levels``-point grid: many exact score ties."""
    rng = np.random.default_rng(seed)
    selection = rng.integers(0, 3, size=(rows, 2))
    ranking = rng.integers(0, levels, size=(rows, 3)) / max(1, levels - 1)
    return Relation(SCHEMA, selection, ranking, name=f"q{seed}")


FUNCTIONS = (
    LinearFunction(["N1", "N2"], [1.0, 2.0]),
    LinearFunction(["N3", "N1"], [0.5, -1.0]),
    SquaredDistanceFunction(["N2", "N3"], [0.4, 0.6]),
    ExpressionFunction(Add(Mul(Var("N3"), Var("N3")), Var("N1"))),
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 16), rows=st.integers(1, 120),
       levels=st.integers(1, 6), function=st.sampled_from(FUNCTIONS),
       k=st.integers(1, 140))
def test_an_unconditioned_top_k_is_the_oracles(seed, rows, levels,
                                               function, k):
    relation = quantised_relation(seed, rows, levels)
    query = TopKQuery(Predicate.of(), function, k)
    result = TableScanTopK(relation).query(query)
    assert (result.tids, result.scores) == brute_force_topk(relation, query)
    assert result.tuples_evaluated == relation.num_tuples


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 16), rows=st.integers(1, 90),
       levels=st.integers(1, 5),
       dims=st.sampled_from([("N1", "N2"), ("N2", "N3"), ("N3", "N1"),
                             ("N1", "N2", "N3")]),
       dynamic=st.booleans())
def test_an_unconditioned_skyline_is_the_oracles(seed, rows, levels, dims,
                                                 dynamic):
    relation = quantised_relation(seed, rows, levels)
    targets = tuple(0.5 for _ in dims) if dynamic else None
    query = SkylineQuery(Predicate.of(), dims, targets)
    result = BooleanFirstSkyline(relation).query(query)
    assert result.tids == brute_force_skyline(relation, query)
    assert result.peak_heap_size == result.nodes_expanded == rows


def test_a_nan_k_th_score_keeps_the_full_sort():
    relation = Relation(Schema(("A",), ("X", "Y")),
                        np.zeros((5, 1), dtype=np.int64),
                        np.array([[0.2, 0.1], [np.nan, 0.0], [0.1, 0.1],
                                  [0.3, 0.0], [0.1, 0.1]]))
    function = LinearFunction(["X", "Y"], [1.0, 1.0])
    cut = TableScanTopK(relation).query(TopKQuery(Predicate.of(), function, 2))
    assert (cut.tids, cut.scores) == ((2, 4), (0.2, 0.2))
    full = TableScanTopK(relation).query(TopKQuery(Predicate.of(), function, 5))
    assert full.tids == (2, 4, 3, 0, 1)
    assert full.scores[:4] == (0.2, 0.2, 0.3, 0.2 + 0.1)
    assert np.isnan(full.scores[4])


def test_routed_unconditioned_queries_on_the_default_stack_are_the_oracles():
    relation = generate_relation(SyntheticSpec(
        num_tuples=1500, num_selection_dims=2, num_ranking_dims=3,
        cardinality=4, seed=41))
    executor = Executor.for_relation(relation, block_size=100)
    for function in FUNCTIONS:
        for k in (1, 10, 200, 1600):
            query = TopKQuery(Predicate.of(), function, k)
            for backend in ("ranking-cube", "table-scan"):
                result = executor.registry.get(backend).run(query)
                assert (result.tids, result.scores) == brute_force_topk(
                    relation, query), backend
            routed = executor.execute(query)
            assert (routed.tids, routed.scores) == brute_force_topk(
                relation, query)
    for dims in (("N1", "N2"), ("N1", "N2", "N3")):
        for targets in (None, tuple(0.3 for _ in dims)):
            query = SkylineQuery(Predicate.of(), dims, targets)
            routed = executor.execute(query)
            assert routed.extra["backend"] == "skyline-scan"
            assert routed.tids == brute_force_skyline(relation, query)

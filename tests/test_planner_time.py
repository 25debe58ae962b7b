"""The default cost model's decisions on a fixed 20k-row relation.

The class defaults of :class:`~repro.engine.cost.CostModel` are measured
times (``benchmarks/calibrate_cost_model.py``, fitted on its own
relation); these tests pin what they decide, never how fast anything
runs.  A one-condition top-k with a large k leaves the grid for the scan,
whose cut to k makes it the fastest there; a top-k with no condition stays
on the grid; a one-condition skyline stays on the BBS engine; and no shape
pays the signature cube's R-tree descent.  The hand-set constants the
first planner used remain ``CostModel.PAPER`` and are pinned by
``tests/test_planner_cost.py``.
"""

from __future__ import annotations

import pytest

from repro.engine import CostModel, Executor
from repro.functions.distance import SquaredDistanceFunction
from repro.functions.linear import LinearFunction
from repro.query import Predicate, SkylineQuery, TopKQuery
from repro.workloads import SyntheticSpec, generate_relation

FUNCTIONS = {
    "linear": LinearFunction(["N1", "N2"], [1.0, 2.5]),
    "general": LinearFunction(["N1", "N2"], [1.0, -2.5]),
    "distance": SquaredDistanceFunction(["N1", "N2"], [0.3, 0.7]),
}
PREDICATES = {0: Predicate.of(), 1: Predicate.of(A2=3),
              2: Predicate.of(A1=1, A3=5)}


@pytest.fixture(scope="module")
def executor():
    relation = generate_relation(SyntheticSpec(
        num_tuples=20_000, num_selection_dims=3, num_ranking_dims=2,
        cardinality=8, seed=47))
    return Executor.for_relation(relation, block_size=200)


def topk_routes(executor, conditions, ks=(5, 20, 100, 200, 500)):
    return {(name, k): executor.plan(TopKQuery(PREDICATES[conditions],
                                               function, k)).backend
            for name, function in FUNCTIONS.items() for k in ks}


def test_the_defaults_are_not_the_paper_constants(executor):
    assert executor.planner.cost_model.__dict__ == {}
    assert any(getattr(CostModel, name) != value
               for name, value in CostModel.PAPER.items())


def test_a_one_condition_top_500_goes_to_the_scan(executor):
    routes = topk_routes(executor, 1, ks=(500,))
    assert set(routes.values()) == {"table-scan"}, routes


def test_a_top_k_without_a_condition_stays_on_the_grid(executor):
    routes = topk_routes(executor, 0)
    assert set(routes.values()) == {"ranking-cube"}, routes


def test_a_one_condition_skyline_stays_on_bbs(executor):
    for targets in (None, (0.4, 0.6)):
        query = SkylineQuery(PREDICATES[1], ("N1", "N2"), targets=targets)
        assert executor.plan(query).backend == "skyline"


def test_no_shape_pays_the_signature_cubes_descent(executor):
    chosen = set()
    for conditions in PREDICATES:
        chosen |= set(topk_routes(executor, conditions).values())
        for targets in (None, (0.4, 0.6)):
            chosen.add(executor.plan(SkylineQuery(
                PREDICATES[conditions], ("N1", "N2"),
                targets=targets)).backend)
    assert "signature-cube" not in chosen
    assert {"ranking-cube", "table-scan", "skyline"} <= chosen


def test_the_paper_constants_keep_the_grid_for_the_one_condition_top_500(
        executor):
    paper = Executor(executor.registry,
                     cost_model=CostModel(**CostModel.PAPER))
    query = TopKQuery(PREDICATES[1], FUNCTIONS["linear"], 500)
    assert paper.plan(query).backend == "ranking-cube"

"""The default cost model's decisions on a fixed 20k-row relation.

The class defaults of :class:`~repro.engine.cost.CostModel` are measured
times (``benchmarks/calibrate_cost_model.py``, fitted on its own
relation); these tests pin what they decide, never how fast anything
runs.  Every one- or two-condition top-k goes to the scan, which reads
the shortest condition's posting list and cuts to k; a top-k with no
condition stays on the grid up to k = 100, and from k = 200 only a
general function's goes to the scan; a skyline with one or two
conditions, static or dynamic, goes to the scan skyline, whose numpy peel
of the matches beats the BBS engine's R-tree descent there; and no shape
pays the signature cube's R-tree descent.  The last two are priced on the
paper builder's stack under the fitted ``RTreeCostModel``, so BBS and the
signature cube are candidates there.  The hand-set constants the
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
from tests.conftest import paper_stack

FUNCTIONS = {
    "linear": LinearFunction(["N1", "N2"], [1.0, 2.5]),
    "general": LinearFunction(["N1", "N2"], [1.0, -2.5]),
    "distance": SquaredDistanceFunction(["N1", "N2"], [0.3, 0.7]),
}
PREDICATES = {0: Predicate.of(), 1: Predicate.of(A2=3),
              2: Predicate.of(A1=1, A3=5)}


@pytest.fixture(scope="module")
def relation():
    return generate_relation(SyntheticSpec(
        num_tuples=20_000, num_selection_dims=3, num_ranking_dims=2,
        cardinality=8, seed=47))


@pytest.fixture(scope="module")
def executor(relation):
    return Executor.for_relation(relation, block_size=200)


@pytest.fixture(scope="module")
def paper_executor(relation):
    """The same stack plus the signature cube and BBS, priced by the
    fitted ``RTreeCostModel`` the paper builder swaps in."""
    return paper_stack(relation, block_size=200)


def priced(executor, query, *candidates):
    """The plan's backend, once every named candidate got a price."""
    plan = executor.plan(query)
    assert set(candidates) <= dict(plan.estimates).keys(), plan
    return plan.backend


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


def test_every_one_and_two_condition_top_k_goes_to_the_scan(executor):
    for conditions in (1, 2):
        routes = topk_routes(executor, conditions)
        assert set(routes.values()) == {"table-scan"}, routes


def test_a_top_k_without_a_condition_stays_on_the_grid(executor):
    routes = topk_routes(executor, 0, ks=(5, 20, 100))
    assert set(routes.values()) == {"ranking-cube"}, routes


def test_only_a_general_top_k_without_a_condition_leaves_the_grid_from_200(
        executor):
    routes = topk_routes(executor, 0, ks=(200, 500))
    assert routes == {(name, k): ("table-scan" if name == "general"
                                  else "ranking-cube")
                      for name, k in routes}, routes


def test_one_and_two_condition_skylines_go_to_the_scan(paper_executor):
    for conditions in (1, 2):
        for targets in (None, (0.4, 0.6)):
            query = SkylineQuery(PREDICATES[conditions], ("N1", "N2"),
                                 targets=targets)
            assert priced(paper_executor, query,
                          "skyline-scan", "skyline") == "skyline-scan"


def test_no_shape_pays_the_signature_cubes_descent(paper_executor):
    chosen = set()
    for conditions in PREDICATES:
        for function in FUNCTIONS.values():
            for k in (5, 20, 100, 200, 500):
                chosen.add(priced(
                    paper_executor,
                    TopKQuery(PREDICATES[conditions], function, k),
                    "signature-cube", "table-scan"))
        for targets in (None, (0.4, 0.6)):
            chosen.add(priced(paper_executor, SkylineQuery(
                PREDICATES[conditions], ("N1", "N2"), targets=targets),
                "skyline-scan", "skyline"))
    assert "signature-cube" not in chosen and "skyline" not in chosen
    assert {"ranking-cube", "table-scan", "skyline-scan"} <= chosen


def test_the_paper_constants_keep_the_grid_for_the_one_condition_top_500(
        executor):
    paper = Executor(executor.registry,
                     cost_model=CostModel(**CostModel.PAPER))
    query = TopKQuery(PREDICATES[1], FUNCTIONS["linear"], 500)
    assert paper.plan(query).backend == "ranking-cube"

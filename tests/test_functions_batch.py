"""Batch (vectorized) scoring must match per-tuple scoring bit for bit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cube import RankingCube
from repro.functions import (
    Abs,
    ConstrainedFunction,
    ExpressionFunction,
    LinearFunction,
    ManhattanDistanceFunction,
    SquaredDistanceFunction,
    Var,
    WeightedAverageFunction,
)
from repro.functions.base import RankingFunction
from repro.geometry import Box, Interval
from repro.partition.grid import GridPartition
from repro.query import Predicate, TopKQuery
from repro.workloads import SyntheticSpec, generate_relation


def random_rows(dims: int, n: int = 500, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.random((n, dims)) * 2.0 - 0.5


ALL_FUNCTIONS = {
    "linear": LinearFunction(["N1", "N2"], [1.0, 2.0]),
    "linear_negative": LinearFunction(["N1", "N2", "N3"], [0.5, -1.5, 3.0],
                                      constant=0.25),
    "weighted_average": WeightedAverageFunction(["N1", "N2"], [1.0, 3.0]),
    "squared_distance": SquaredDistanceFunction(["N1", "N2"], [0.25, 0.75],
                                                weights=[1.0, 2.0]),
    "manhattan": ManhattanDistanceFunction(["N1", "N2"], [0.4, 0.6]),
    "expression": ExpressionFunction((Var("N1") - Var("N2") ** 2) ** 2),
    "expression_abs": ExpressionFunction(Abs(Var("N1") - 0.5) + 2.0 * Var("N2")),
    "expression_const": ExpressionFunction(Var("N1") * 0.0 + 1.5, dims=["N1"]),
    "constrained": ConstrainedFunction(
        LinearFunction(["N1", "N2"], [1.0, 1.0]), "N2", 0.3, 0.5),
}


class TestBatchParity:
    @pytest.mark.parametrize("name", sorted(ALL_FUNCTIONS))
    def test_batch_matches_per_tuple_exactly(self, name):
        function = ALL_FUNCTIONS[name]
        rows = random_rows(len(function.dims))
        batch = function.evaluate_batch(rows)
        scalar = np.array([function.evaluate(row) for row in rows])
        assert batch.shape == (len(rows),)
        # Bitwise identity, not approximation: the batch implementations
        # apply the same per-row operation order as ``evaluate``.
        assert np.array_equal(batch, scalar), name

    @pytest.mark.parametrize("name", sorted(ALL_FUNCTIONS))
    def test_empty_batch(self, name):
        function = ALL_FUNCTIONS[name]
        empty = np.empty((0, len(function.dims)))
        assert function.evaluate_batch(empty).shape == (0,)

    def test_constrained_scores_inf_outside_window(self):
        function = ALL_FUNCTIONS["constrained"]
        rows = np.array([[0.1, 0.4], [0.1, 0.9], [0.2, 0.3]])
        scores = function.evaluate_batch(rows)
        assert scores[0] == pytest.approx(0.5)
        assert np.isinf(scores[1])
        assert scores[2] == pytest.approx(0.5)

    def test_base_fallback_loops_over_evaluate(self):
        class OddFunction(RankingFunction):
            dims = ("N1",)

            def evaluate(self, values):
                return float(values[0]) ** 3 - 1.0

            def lower_bound(self, box: Box) -> float:
                return -10.0

        function = OddFunction()
        rows = random_rows(1)
        batch = function.evaluate_batch(rows)
        scalar = np.array([function.evaluate(row) for row in rows])
        assert np.array_equal(batch, scalar)

    def test_batch_accepts_python_lists(self):
        function = ALL_FUNCTIONS["linear"]
        rows = [[0.0, 1.0], [1.0, 0.0]]
        assert function.evaluate_batch(rows) == pytest.approx([2.0, 1.0])


# ----------------------------------------------------------------------
# lower bounds of a whole grid in one call
# ----------------------------------------------------------------------
GRID_DIMS = ("N1", "N2", "N3")

# Per dimension: the weight (negative, zero and positive) and the target
# (inside, on the edge of and outside the grid's [0, 5] domain).
weights = st.sampled_from([-2.5, -1.0, 0.0, 0.3, 1.0, 7.0])
distance_weights = st.sampled_from([0.0, 0.3, 1.0, 7.0])
targets = st.sampled_from([-3.0, 0.0, 0.7, 2.125, 5.0, 9.5])
grid_cuts = st.lists(st.integers(0, 40), min_size=2, max_size=6, unique=True
                     ).map(lambda cuts: sorted(c / 8 for c in cuts))
# A strict subset or a permutation of the grid's dims, in any order.
function_dims = st.permutations(GRID_DIMS).flatmap(
    lambda dims: st.integers(1, len(dims)).map(lambda n: list(dims[:n])))


@st.composite
def batch_bounded_functions(draw):
    dims = draw(function_dims)

    def per_dim(strategy):
        return [draw(strategy) for _ in dims]

    kind = draw(st.sampled_from(["linear", "average", "squared", "manhattan"]))
    if kind == "linear":
        return LinearFunction(dims, per_dim(weights),
                              constant=draw(st.sampled_from([0.0, -1.75, 4.5])))
    if kind == "average":
        return WeightedAverageFunction(dims, per_dim(st.sampled_from([0.5, 1.0, 3.0])))
    cls = SquaredDistanceFunction if kind == "squared" else ManhattanDistanceFunction
    return cls(dims, per_dim(targets), weights=per_dim(distance_weights))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(grid_cuts, min_size=3, max_size=3), batch_bounded_functions())
def test_lower_bound_batch_is_lower_bound_of_every_block(cuts, function):
    grid = GridPartition(GRID_DIMS, {d: np.array(c) for d, c in zip(GRID_DIMS, cuts)})
    columns = [GRID_DIMS.index(d) for d in function.dims]
    lows, highs = grid.block_corners()
    batch = function.lower_bound_batch(lows[:, columns], highs[:, columns])
    assert batch.dtype == np.float64
    one_by_one = np.array([function.lower_bound(grid.block_box(bid))
                           for bid in range(grid.num_blocks)])
    assert batch.tobytes() == one_by_one.tobytes()  # bit for bit, -0.0 included


@settings(max_examples=300, deadline=None, derandomize=True)
@given(batch_bounded_functions(), st.sampled_from([-0.0, 0.0, 1.0, 2.5]),
       st.lists(st.sampled_from([-0.0, 0.0, 0.7, -3.0, 5.0, 1e-300, 1e300]),
                min_size=3, max_size=3), st.integers(0, 2 ** 16))
def test_evaluate_batch_is_evaluate_of_every_row(function, unit, edge, seed):
    """Each batch kernel against its own per-row ``evaluate`` (the loop
    reference), bit for bit: unit and ``-0.0`` weights, signed zeros,
    underflow and overflow rows included."""
    if isinstance(function, LinearFunction):
        function = LinearFunction(function.dims, [unit, *function.weights[1:]],
                                  constant=function.constant)
    elif unit >= 0:  # distance weights are non-negative; -0.0 passes
        function = type(function)(function.dims, function.targets,
                                  weights=[unit, *function.weights[1:]])
    rows = np.vstack([random_rows(3, n=40, seed=seed) * 4.0, [edge], [edge[::-1]]])
    rows = rows[:, :len(function.dims)]
    with np.errstate(all="ignore"):  # the 1e300 rows overflow on purpose
        batch = function.evaluate_batch(rows)
        scalar = np.array([function.evaluate(row) for row in rows])
    assert batch.tobytes() == scalar.tobytes()


def test_functions_without_a_batch_bound_answer_none():
    corners = np.zeros((4, 2)), np.ones((4, 2))
    for name in ("expression", "expression_abs", "constrained"):
        assert ALL_FUNCTIONS[name].lower_bound_batch(*corners) is None


SWEEP_SPEC = SyntheticSpec(num_tuples=3000, num_selection_dims=2,
                           num_ranking_dims=2, cardinality=4, seed=29)


@pytest.mark.parametrize("w1, w2", [(1.0, 2.0), (0.25, -1.5), (-3.0, 0.0)])
def test_a_per_block_sweep_is_the_whole_grid_sweep(w1, w2):
    """An expression tree equal in value to a linear function has no
    ``lower_bound_batch``: its sweep derives bounds block by block and must
    pop the same blocks, score the same tuples and answer the same."""
    cube = RankingCube(generate_relation(SWEEP_SPEC), block_size=30)
    linear = LinearFunction(["N1", "N2"], [w1, w2])
    tree = ExpressionFunction(w1 * Var("N1") + w2 * Var("N2"))
    for predicate in (Predicate.of(), Predicate.of(A1=1), Predicate.of(A1=2, A2=0)):
        for k in (1, 10, 200):
            whole = cube.query(TopKQuery(predicate, linear, k))
            per_block = cube.query(TopKQuery(predicate, tree, k))
            assert per_block.tids == whole.tids
            assert per_block.scores == whole.scores
            assert k < 200 or whole.states_generated > 5
            assert ((per_block.states_generated, per_block.peak_heap_size,
                     per_block.tuples_evaluated)
                    == (whole.states_generated, whole.peak_heap_size,
                        whole.tuples_evaluated))

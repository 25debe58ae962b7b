"""Tests for ranking functions and their box lower bounds."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.functions import (
    ConstrainedFunction,
    ExpressionFunction,
    FunctionShape,
    LinearFunction,
    ManhattanDistanceFunction,
    SquaredDistanceFunction,
    Var,
    WeightedAverageFunction,
    skewed_linear_function,
    sum_function,
)
from repro.geometry import Box


def random_box(dims, lows, widths):
    highs = [lo + w for lo, w in zip(lows, widths)]
    return Box.from_bounds(dims, lows, highs)


class TestLinearFunction:
    def test_evaluate(self):
        fn = LinearFunction(["a", "b"], [2.0, -1.0], constant=0.5)
        assert fn([1.0, 3.0]) == pytest.approx(2 - 3 + 0.5)

    def test_lower_bound_uses_signs(self):
        fn = LinearFunction(["a", "b"], [1.0, -1.0])
        box = Box.from_bounds(["a", "b"], [0, 0], [2, 4])
        # min = 0*1 + 4*(-1) = -4
        assert fn.lower_bound(box) == -4

    def test_shape(self):
        assert LinearFunction(["a"], [1.0]).shape is FunctionShape.MONOTONE
        assert LinearFunction(["a"], [-1.0]).shape is FunctionShape.GENERAL

    def test_skewness(self):
        fn = LinearFunction(["a", "b"], [1.0, 5.0])
        assert fn.skewness() == 5.0
        assert LinearFunction(["a"], [0.0]).skewness() == 1.0

    def test_from_weights_and_sum(self):
        fn = LinearFunction.from_weights({"b": 2.0, "a": 1.0})
        assert fn.dims == ("a", "b")
        assert sum_function(["x", "y"]).evaluate([1, 2]) == 3

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            LinearFunction(["a", "b"], [1.0])
        with pytest.raises(ValueError):
            LinearFunction([], [])

    def test_skewed_generator_respects_u(self):
        rng = np.random.default_rng(3)
        fn = skewed_linear_function(["a", "b", "c"], 4.0, rng=rng)
        assert fn.skewness() == pytest.approx(4.0)

    def test_weighted_average_normalizes(self):
        fn = WeightedAverageFunction(["a", "b"], [1.0, 3.0])
        assert sum(fn.weights) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            WeightedAverageFunction(["a"], [0.0])


class TestDistanceFunctions:
    def test_squared_distance(self):
        fn = SquaredDistanceFunction(["a", "b"], [1.0, 2.0])
        assert fn([1.0, 2.0]) == 0.0
        assert fn([2.0, 0.0]) == pytest.approx(1 + 4)
        assert fn.shape is FunctionShape.SEMI_MONOTONE
        assert fn.minimum_point() == {"a": 1.0, "b": 2.0}

    def test_squared_distance_lower_bound_clamps(self):
        fn = SquaredDistanceFunction(["a"], [0.5])
        inside = Box.from_bounds(["a"], [0.0], [1.0])
        outside = Box.from_bounds(["a"], [2.0], [3.0])
        assert fn.lower_bound(inside) == 0.0
        assert fn.lower_bound(outside) == pytest.approx(2.25)

    def test_manhattan_distance(self):
        fn = ManhattanDistanceFunction(["a", "b"], [0.0, 0.0], [1.0, 2.0])
        assert fn([1.0, -1.0]) == pytest.approx(1 + 2)
        box = Box.from_bounds(["a", "b"], [2, 3], [4, 5])
        assert fn.lower_bound(box) == pytest.approx(2 + 6)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            SquaredDistanceFunction(["a"], [0.0], [-1.0])
        with pytest.raises(ValueError):
            ManhattanDistanceFunction(["a"], [0.0], [-1.0])


class TestExpressionFunctions:
    def test_general_fg_function(self):
        # fg = (A - B^2)^2 from Section 5.4.2
        fn = ExpressionFunction((Var("A") - Var("B") ** 2) ** 2)
        assert fn.dims == ("A", "B")
        assert fn.evaluate_mapping({"A": 4.0, "B": 2.0}) == 0.0
        assert fn.evaluate_mapping({"A": 5.0, "B": 2.0}) == 1.0

    def test_expression_lower_bound_is_sound(self):
        fn = ExpressionFunction((Var("A") - Var("B") ** 2) ** 2)
        box = Box.from_bounds(["A", "B"], [0.0, 0.0], [1.0, 1.0])
        lb = fn.lower_bound(box)
        rng = np.random.default_rng(0)
        samples = rng.random((200, 2))
        values = [fn.evaluate(row) for row in samples]
        assert lb <= min(values) + 1e-12

    def test_expression_operator_sugar(self):
        expr = 2 * Var("x") + 1 - Var("y")
        fn = ExpressionFunction(expr)
        assert fn.evaluate_mapping({"x": 2.0, "y": 1.0}) == pytest.approx(4.0)

    def test_unknown_dims_rejected(self):
        with pytest.raises(ValueError):
            ExpressionFunction(Var("x") + Var("y"), dims=["x"])

    def test_constrained_function(self):
        base = LinearFunction(["A", "B"], [1.0, 1.0])
        fn = ConstrainedFunction(base, "B", 0.4, 0.6)
        assert fn([0.1, 0.5]) == pytest.approx(0.6)
        assert fn([0.1, 0.9]) == math.inf
        inside = Box.from_bounds(["A", "B"], [0, 0.45], [1, 0.5])
        outside = Box.from_bounds(["A", "B"], [0, 0.7], [1, 0.9])
        assert fn.lower_bound(inside) == pytest.approx(0.45)
        assert fn.lower_bound(outside) == math.inf

    def test_constrained_function_validation(self):
        base = LinearFunction(["A"], [1.0])
        with pytest.raises(ValueError):
            ConstrainedFunction(base, "Z", 0, 1)
        with pytest.raises(ValueError):
            ConstrainedFunction(base, "A", 1, 0)
        with pytest.raises(ValueError):
            ConstrainedFunction(base, "A", math.nan, 1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10 ** 400])
def test_non_finite_coefficients_are_refused(bad):
    """Scores must stay comparable: no constructor takes a NaN, an
    infinity or an int beyond the float range."""
    from repro.functions import Const
    from repro.errors import QueryError
    from repro.query import Predicate, SkylineQuery

    for build in (lambda: LinearFunction(["a", "b"], [bad, 2.0]),
                  lambda: LinearFunction(["a"], [1.0], constant=bad),
                  lambda: SquaredDistanceFunction(["a"], [bad]),
                  lambda: SquaredDistanceFunction(["a"], [0.0], [bad]),
                  lambda: ManhattanDistanceFunction(["a"], [bad]),
                  lambda: Const(bad)):
        with pytest.raises(ValueError, match="must be finite"):
            build()
    with pytest.raises(QueryError, match="finite"):
        SkylineQuery(Predicate.of(), ("a", "b"), targets=(0.5, bad))


# ----------------------------------------------------------------------
# property-based soundness of lower bounds for every function family
# ----------------------------------------------------------------------
coords = st.floats(min_value=-10, max_value=10, allow_nan=False)
widths = st.floats(min_value=0, max_value=5, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(coords, min_size=2, max_size=2), st.lists(widths, min_size=2, max_size=2),
       st.lists(st.floats(min_value=0, max_value=1), min_size=2, max_size=2),
       st.lists(coords, min_size=2, max_size=2))
def test_lower_bounds_never_exceed_point_values(lows, box_widths, fractions, params):
    """For every function family, lower_bound(box) <= f(point in box)."""
    dims = ["u", "v"]
    box = random_box(dims, lows, box_widths)
    point = [lo + frac * w for lo, w, frac in zip(lows, box_widths, fractions)]
    functions = [
        LinearFunction(dims, params),
        SquaredDistanceFunction(dims, params),
        ManhattanDistanceFunction(dims, [abs(p) for p in params]),
        ExpressionFunction((Var("u") - Var("v") ** 2) ** 2, dims=dims),
        ExpressionFunction(Var("u") * Var("v") + Var("u"), dims=dims),
    ]
    for fn in functions:
        assert fn.lower_bound(box) <= fn.evaluate(point) + 1e-6

"""Tests for intervals, interval arithmetic, and boxes."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.geometry import Box, Interval


finite = st.floats(min_value=-100, max_value=100, allow_nan=False)


def make_interval(a: float, b: float) -> Interval:
    return Interval(min(a, b), max(a, b))


class TestInterval:
    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_contains_and_clamp(self):
        iv = Interval(1.0, 3.0)
        assert iv.contains(1.0) and iv.contains(3.0) and iv.contains(2.0)
        assert not iv.contains(0.999)
        assert iv.clamp(-5) == 1.0
        assert iv.clamp(10) == 3.0
        assert iv.clamp(2.5) == 2.5

    def test_intersection_and_union(self):
        a, b = Interval(0, 2), Interval(1, 3)
        assert a.intersects(b)
        assert a.intersection(b) == Interval(1, 2)
        assert a.union_hull(b) == Interval(0, 3)
        assert Interval(0, 1).intersection(Interval(2, 3)) is None

    def test_touching_intervals_intersect(self):
        assert Interval(0, 1).intersects(Interval(1, 2))
        assert Interval(0, 1).intersection(Interval(1, 2)) == Interval(1, 1)

    def test_arithmetic_basics(self):
        a, b = Interval(1, 2), Interval(-1, 3)
        assert a + b == Interval(0, 5)
        assert a - b == Interval(-2, 3)
        assert (a * 2) == Interval(2, 4)
        assert (a * -1) == Interval(-2, -1)
        assert (-a) == Interval(-2, -1)
        assert (5 - a) == Interval(3, 4)

    def test_square_spanning_zero(self):
        assert Interval(-2, 3).square() == Interval(0, 9)
        assert Interval(1, 2).square() == Interval(1, 4)
        assert Interval(-3, -1).square() == Interval(1, 9)

    def test_abs(self):
        assert Interval(-2, 3).abs() == Interval(0, 3)
        assert Interval(-5, -2).abs() == Interval(2, 5)

    def test_power(self):
        assert Interval(-2, 1).power(2) == Interval(0, 4)
        assert Interval(-2, 1).power(3) == Interval(-8, 1)
        assert Interval(2, 3).power(0) == Interval(1, 1)
        with pytest.raises(ValueError):
            Interval(0, 1).power(-1)

    @given(finite, finite, finite, finite, st.floats(min_value=0, max_value=1))
    def test_addition_encloses_pointwise_sum(self, a1, a2, b1, b2, t):
        ia, ib = make_interval(a1, a2), make_interval(b1, b2)
        x = ia.low + t * ia.width
        y = ib.low + t * ib.width
        total = (ia + ib)
        assert total.low - 1e-9 <= x + y <= total.high + 1e-9

    @given(finite, finite, finite, finite, st.floats(min_value=0, max_value=1),
           st.floats(min_value=0, max_value=1))
    def test_multiplication_encloses_pointwise_product(self, a1, a2, b1, b2, s, t):
        ia, ib = make_interval(a1, a2), make_interval(b1, b2)
        x = ia.low + s * ia.width
        y = ib.low + t * ib.width
        prod = ia * ib
        assert prod.low - 1e-6 <= x * y <= prod.high + 1e-6

    @given(finite, finite, st.floats(min_value=0, max_value=1))
    def test_square_encloses_pointwise_square(self, a1, a2, t):
        iv = make_interval(a1, a2)
        x = iv.low + t * iv.width
        sq = iv.square()
        assert sq.low - 1e-6 <= x * x <= sq.high + 1e-6


class TestBox:
    def test_from_bounds_and_accessors(self):
        box = Box.from_bounds(["x", "y"], [0, 1], [2, 3])
        assert box.dims == ("x", "y")
        assert box.interval("x") == Interval(0, 2)
        assert box.lows() == (0, 1)
        assert box.highs() == (2, 3)

    def test_point_and_unit(self):
        point = Box.point({"x": 1.5})
        assert point.interval("x").width == 0
        unit = Box.unit(["a", "b"])
        assert unit.interval("a") == Interval(0, 1)

    def test_contains_and_intersects(self):
        big = Box.from_bounds(["x", "y"], [0, 0], [10, 10])
        small = Box.from_bounds(["x", "y"], [2, 2], [3, 3])
        assert big.union_hull(small) == big
        assert small.union_hull(big) != small
        assert big.intersects(small)
        disjoint = Box.from_bounds(["x", "y"], [20, 20], [30, 30])
        assert not big.intersects(disjoint)
        assert big.intersection(disjoint) is None

    def test_intersection_and_union_hull(self):
        a = Box.from_bounds(["x"], [0], [5])
        b = Box.from_bounds(["x"], [3], [9])
        assert a.intersection(b).interval("x") == Interval(3, 5)
        assert a.union_hull(b).interval("x") == Interval(0, 9)

    def test_project_missing_dim_is_unbounded(self):
        box = Box.from_bounds(["x"], [0], [1])
        projected = box.project(["x", "z"])
        assert projected.interval("z").low == -math.inf

    def test_corners_count(self):
        box = Box.from_bounds(["x", "y", "z"], [0, 0, 0], [1, 1, 1])
        corners = list(box.corners())
        assert len(corners) == 8
        assert {tuple(sorted(c.items())) for c in corners} == {
            tuple(sorted({"x": float(i), "y": float(j), "z": float(k)}.items()))
            for i in (0, 1) for j in (0, 1) for k in (0, 1)
        }

    def test_volume(self):
        box = Box.from_bounds(["x", "y"], [0, 0], [2, 4])
        assert box.volume() == 8

    def test_with_interval(self):
        box = Box.from_bounds(["x", "y"], [0, 0], [1, 1])
        new = box.with_interval("x", Interval(5, 6))
        assert new.interval("x") == Interval(5, 6)
        assert box.interval("x") == Interval(0, 1)

    def test_equality_and_hash(self):
        a = Box.from_bounds(["x"], [0], [1])
        b = Box.from_bounds(["x"], [0], [1])
        assert a == b
        assert hash(a) == hash(b)

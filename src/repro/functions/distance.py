"""Distance-style (nearest-neighbor) ranking functions.

Queries like ``order by (price-20k)^2 + (milage-10k)^2`` (thesis Example 1)
minimize a weighted distance to a target point.  These functions are convex
and *semi-monotone*: they increase with the per-coordinate distance from the
target, which enables the neighborhood expansion of Section 5.2.2.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.functions.base import FunctionShape, RankingFunction, finite
from repro.geometry import Box


def _clamp(value: float, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """:meth:`repro.geometry.Interval.clamp` of one value into many intervals."""
    return np.minimum(np.maximum(value, lows), highs)


class SquaredDistanceFunction(RankingFunction):
    """``f(x) = sum_i weights[i] * (x_i - target_i)^2``."""

    def __init__(self, dims: Sequence[str], targets: Sequence[float],
                 weights: Optional[Sequence[float]] = None) -> None:
        if len(dims) != len(targets):
            raise ValueError("dims and targets must have the same length")
        self.dims: Tuple[str, ...] = tuple(dims)
        self.targets: Tuple[float, ...] = finite(targets, "targets")
        if weights is None:
            weights = [1.0] * len(dims)
        if len(weights) != len(dims):
            raise ValueError("weights must align with dims")
        self.weights: Tuple[float, ...] = finite(weights, "weights")
        if any(w < 0 for w in self.weights):
            raise ValueError("distance weights must be non-negative")

    def evaluate(self, values: Sequence[float]) -> float:
        total = 0.0
        for weight, value, target in zip(self.weights, values, self.targets):
            diff = value - target
            total += weight * diff * diff
        return total

    def evaluate_batch(self, values: np.ndarray) -> np.ndarray:
        # Same per-dimension accumulation order as ``evaluate`` for bitwise
        # identical scores.
        values = np.asarray(values, dtype=np.float64)
        total = np.zeros(values.shape[0], dtype=np.float64)
        for j, (weight, target) in enumerate(zip(self.weights, self.targets)):
            diff = values[:, j] - target
            total += weight * diff * diff
        return total

    def lower_bound(self, box: Box) -> float:
        """Exact minimum over the box: clamp the target into each interval."""
        total = 0.0
        for dim, weight, target in zip(self.dims, self.weights, self.targets):
            interval = box.interval(dim)
            diff = interval.clamp(target) - target
            total += weight * diff * diff
        return total

    def lower_bound_batch(self, lows: np.ndarray, highs: np.ndarray
                          ) -> np.ndarray:
        total = np.zeros(len(lows), dtype=np.float64)
        for j, (weight, target) in enumerate(zip(self.weights, self.targets)):
            diff = _clamp(target, lows[:, j], highs[:, j]) - target
            total += weight * diff * diff
        return total

    @property
    def shape(self) -> FunctionShape:
        return FunctionShape.SEMI_MONOTONE

    def minimum_point(self) -> Dict[str, float]:
        return {dim: target for dim, target in zip(self.dims, self.targets)}

    def describe(self) -> str:
        terms = " + ".join(
            f"{w:g}*({d}-{t:g})^2"
            for d, t, w in zip(self.dims, self.targets, self.weights)
        )
        return terms


class ManhattanDistanceFunction(RankingFunction):
    """``f(x) = sum_i weights[i] * |x_i - target_i|``."""

    def __init__(self, dims: Sequence[str], targets: Sequence[float],
                 weights: Optional[Sequence[float]] = None) -> None:
        if len(dims) != len(targets):
            raise ValueError("dims and targets must have the same length")
        self.dims: Tuple[str, ...] = tuple(dims)
        self.targets: Tuple[float, ...] = finite(targets, "targets")
        if weights is None:
            weights = [1.0] * len(dims)
        self.weights: Tuple[float, ...] = finite(weights, "weights")
        if any(w < 0 for w in self.weights):
            raise ValueError("distance weights must be non-negative")

    def evaluate(self, values: Sequence[float]) -> float:
        total = 0.0
        for weight, value, target in zip(self.weights, values, self.targets):
            total += weight * abs(value - target)
        return total

    def evaluate_batch(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        total = np.zeros(values.shape[0], dtype=np.float64)
        for j, (weight, target) in enumerate(zip(self.weights, self.targets)):
            total += weight * np.abs(values[:, j] - target)
        return total

    def lower_bound(self, box: Box) -> float:
        total = 0.0
        for dim, weight, target in zip(self.dims, self.weights, self.targets):
            interval = box.interval(dim)
            total += weight * abs(interval.clamp(target) - target)
        return total

    def lower_bound_batch(self, lows: np.ndarray, highs: np.ndarray
                          ) -> np.ndarray:
        total = np.zeros(len(lows), dtype=np.float64)
        for j, (weight, target) in enumerate(zip(self.weights, self.targets)):
            total += weight * np.abs(_clamp(target, lows[:, j], highs[:, j])
                                     - target)
        return total

    @property
    def shape(self) -> FunctionShape:
        return FunctionShape.SEMI_MONOTONE

    def minimum_point(self) -> Dict[str, float]:
        return {dim: target for dim, target in zip(self.dims, self.targets)}

    def describe(self) -> str:
        terms = " + ".join(
            f"{w:g}*|{d}-{t:g}|"
            for d, t, w in zip(self.dims, self.targets, self.weights)
        )
        return terms

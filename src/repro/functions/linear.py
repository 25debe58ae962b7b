"""Linear ranking functions.

Linear functions ``f = w1*N1 + ... + wr*Nr`` are the workhorse of the
evaluation (Section 3.5.1 generates queries with controlled *skewness*
``u = max(w)/min(w)``).  They are convex for any weights; they are monotone
in the TA sense only when every weight is non-negative.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Tuple

import numpy as np

from repro.functions.base import FunctionShape, RankingFunction, finite
from repro.geometry import Box


class LinearFunction(RankingFunction):
    """``f(x) = sum_i weights[i] * x[dims[i]] (+ constant)``."""

    def __init__(self, dims: Sequence[str], weights: Sequence[float],
                 constant: float = 0.0) -> None:
        if len(dims) != len(weights):
            raise ValueError("dims and weights must have the same length")
        if not dims:
            raise ValueError("a linear function needs at least one dimension")
        self.dims: Tuple[str, ...] = tuple(dims)
        self.weights: Tuple[float, ...] = finite(weights, "weights")
        self.constant = finite([constant], "constant")[0]

    @classmethod
    def from_weights(cls, weights: Mapping[str, float], constant: float = 0.0
                     ) -> "LinearFunction":
        """Build from a ``{dim: weight}`` mapping (dims sorted by name)."""
        dims = tuple(sorted(weights))
        return cls(dims, [weights[d] for d in dims], constant)

    def evaluate(self, values: Sequence[float]) -> float:
        total = self.constant
        for weight, value in zip(self.weights, values):
            total += weight * value
        return total

    def evaluate_batch(self, values: np.ndarray) -> np.ndarray:
        # Accumulate column by column in the same order as ``evaluate`` so
        # the per-row rounding (and thus the scores) is bitwise identical;
        # the constant joins after the first product, as addition commutes.
        values = np.asarray(values, dtype=np.float64)
        total = self.weights[0] * values[:, 0]
        total += self.constant
        for j in range(1, len(self.weights)):
            total += self.weights[j] * values[:, j]
        return total

    def lower_bound(self, box: Box) -> float:
        """Exact minimum over the box: pick the low corner for positive
        weights and the high corner for negative weights."""
        total = self.constant
        for dim, weight in zip(self.dims, self.weights):
            interval = box.interval(dim)
            total += weight * (interval.low if weight >= 0 else interval.high)
        return total

    def lower_bound_batch(self, lows: np.ndarray, highs: np.ndarray
                          ) -> np.ndarray:
        total = np.full(len(lows), self.constant, dtype=np.float64)
        for j, weight in enumerate(self.weights):
            total += weight * (lows if weight >= 0 else highs)[:, j]
        return total

    @property
    def shape(self) -> FunctionShape:
        if all(w >= 0 for w in self.weights):
            return FunctionShape.MONOTONE
        return FunctionShape.GENERAL

    def skewness(self) -> float:
        """Query skewness ``u = max|w| / min|w|`` (Section 3.5.1)."""
        magnitudes = [abs(w) for w in self.weights if w != 0]
        if not magnitudes:
            return 1.0
        return max(magnitudes) / min(magnitudes)

    def describe(self) -> str:
        terms = " + ".join(f"{w:g}*{d}" for d, w in zip(self.dims, self.weights))
        if self.constant:
            terms += f" + {self.constant:g}"
        return terms


def sum_function(dims: Sequence[str]) -> LinearFunction:
    """The unweighted sum ``N1 + ... + Nr`` used in the worked examples."""
    return LinearFunction(dims, [1.0] * len(dims))


def skewed_linear_function(dims: Sequence[str], skewness: float,
                           rng=None) -> LinearFunction:
    """A linear function whose weights span the requested skewness ``u``.

    Weights are spread geometrically between 1 and ``skewness`` and then
    shuffled, reproducing the query generator of Section 3.5.1.
    """
    import numpy as np

    rng = rng or np.random.default_rng(0)
    count = len(dims)
    if count == 1 or skewness <= 1.0:
        weights = [1.0] * count
    else:
        weights = list(np.geomspace(1.0, float(skewness), num=count))
        rng.shuffle(weights)
    return LinearFunction(dims, weights)


class WeightedAverageFunction(LinearFunction):
    """Convenience: weights normalized to sum to one."""

    def __init__(self, dims: Sequence[str], weights: Sequence[float]) -> None:
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("weights must sum to a positive value")
        super().__init__(dims, [w / total for w in weights])

"""Expression-tree ranking functions with interval-arithmetic lower bounds.

Chapter 5 evaluates queries whose ranking functions are neither monotone nor
convex, e.g. ``fg = (A - B^2)^2`` (min-square-error style) and the
constrained ``fc = (A + B) / eta(B)``.  The only requirement the framework
places on a function is that a lower bound over an axis-aligned box can be
derived; expression trees evaluated with interval arithmetic provide exactly
that for any algebraic combination of the ranking dimensions.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.functions.base import FunctionShape, RankingFunction, finite
from repro.geometry import Box, Interval


class Expr(ABC):
    """A node of an algebraic expression over named variables."""

    @abstractmethod
    def value(self, env: Mapping[str, float]) -> float:
        """Evaluate at a point given by ``{var: value}``."""

    @abstractmethod
    def batch(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        """Evaluate elementwise on ``{var: column}`` arrays of equal length.

        Every node applies the same IEEE operation per element as
        :meth:`value`, so batch evaluation matches point evaluation.
        """

    @abstractmethod
    def interval(self, env: Mapping[str, Interval]) -> Interval:
        """Enclose the image over a box given by ``{var: Interval}``."""

    @abstractmethod
    def variables(self) -> Set[str]:
        """Set of variable names referenced by the expression."""

    # -- operator sugar ---------------------------------------------------
    def __add__(self, other: "Expr | float") -> "Expr":
        return Add(self, _wrap(other))

    def __radd__(self, other: float) -> "Expr":
        return Add(_wrap(other), self)

    def __sub__(self, other: "Expr | float") -> "Expr":
        return Sub(self, _wrap(other))

    def __rsub__(self, other: float) -> "Expr":
        return Sub(_wrap(other), self)

    def __mul__(self, other: "Expr | float") -> "Expr":
        return Mul(self, _wrap(other))

    def __rmul__(self, other: float) -> "Expr":
        return Mul(_wrap(other), self)

    def __pow__(self, exponent: int) -> "Expr":
        return Pow(self, exponent)

    def __neg__(self) -> "Expr":
        return Mul(Const(-1.0), self)


def _wrap(value: "Expr | float") -> Expr:
    if isinstance(value, Expr):
        return value
    return Const(float(value))


class Var(Expr):
    """A named variable (a ranking dimension)."""

    def __init__(self, name: str) -> None:
        self.name = name

    def value(self, env: Mapping[str, float]) -> float:
        return float(env[self.name])

    def batch(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        return np.asarray(env[self.name], dtype=np.float64)

    def interval(self, env: Mapping[str, Interval]) -> Interval:
        return env[self.name]

    def variables(self) -> Set[str]:
        return {self.name}

    def __repr__(self) -> str:
        return self.name


class Const(Expr):
    """A numeric constant."""

    def __init__(self, value: float) -> None:
        self._value = finite([value], "constant")[0]

    def value(self, env: Mapping[str, float]) -> float:
        return self._value

    def batch(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        return np.float64(self._value)

    def interval(self, env: Mapping[str, Interval]) -> Interval:
        return Interval(self._value, self._value)

    def variables(self) -> Set[str]:
        return set()

    def __repr__(self) -> str:
        return f"{self._value:g}"


class Add(Expr):
    """Binary addition."""

    def __init__(self, left: Expr, right: Expr) -> None:
        self.left, self.right = left, right

    def value(self, env: Mapping[str, float]) -> float:
        return self.left.value(env) + self.right.value(env)

    def batch(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        return self.left.batch(env) + self.right.batch(env)

    def interval(self, env: Mapping[str, Interval]) -> Interval:
        return self.left.interval(env) + self.right.interval(env)

    def variables(self) -> Set[str]:
        return self.left.variables() | self.right.variables()

    def __repr__(self) -> str:
        return f"({self.left!r} + {self.right!r})"


class Sub(Expr):
    """Binary subtraction."""

    def __init__(self, left: Expr, right: Expr) -> None:
        self.left, self.right = left, right

    def value(self, env: Mapping[str, float]) -> float:
        return self.left.value(env) - self.right.value(env)

    def batch(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        return self.left.batch(env) - self.right.batch(env)

    def interval(self, env: Mapping[str, Interval]) -> Interval:
        return self.left.interval(env) - self.right.interval(env)

    def variables(self) -> Set[str]:
        return self.left.variables() | self.right.variables()

    def __repr__(self) -> str:
        return f"({self.left!r} - {self.right!r})"


class Mul(Expr):
    """Binary multiplication."""

    def __init__(self, left: Expr, right: Expr) -> None:
        self.left, self.right = left, right

    def value(self, env: Mapping[str, float]) -> float:
        return self.left.value(env) * self.right.value(env)

    def batch(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        return self.left.batch(env) * self.right.batch(env)

    def interval(self, env: Mapping[str, Interval]) -> Interval:
        return self.left.interval(env) * self.right.interval(env)

    def variables(self) -> Set[str]:
        return self.left.variables() | self.right.variables()

    def __repr__(self) -> str:
        return f"({self.left!r} * {self.right!r})"


class Pow(Expr):
    """Integer power (``exponent >= 0``)."""

    def __init__(self, base: Expr, exponent: int) -> None:
        if exponent < 0:
            raise ValueError("only non-negative integer exponents are supported")
        self.base, self.exponent = base, int(exponent)

    def value(self, env: Mapping[str, float]) -> float:
        # Left-to-right repeated multiplication, mirrored exactly by
        # ``batch`` so scalar and vectorized scores agree bit for bit.
        base = self.base.value(env)
        result = 1.0
        for _ in range(self.exponent):
            result = result * base
        return result

    def batch(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        base = self.base.batch(env)
        result = np.float64(1.0)
        for _ in range(self.exponent):
            result = result * base
        return result

    def interval(self, env: Mapping[str, Interval]) -> Interval:
        return self.base.interval(env).power(self.exponent)

    def variables(self) -> Set[str]:
        return self.base.variables()

    def __repr__(self) -> str:
        return f"({self.base!r})^{self.exponent}"


class Abs(Expr):
    """Absolute value."""

    def __init__(self, inner: Expr) -> None:
        self.inner = inner

    def value(self, env: Mapping[str, float]) -> float:
        return abs(self.inner.value(env))

    def batch(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        return np.abs(self.inner.batch(env))

    def interval(self, env: Mapping[str, Interval]) -> Interval:
        return self.inner.interval(env).abs()

    def variables(self) -> Set[str]:
        return self.inner.variables()

    def __repr__(self) -> str:
        return f"|{self.inner!r}|"


class ExpressionFunction(RankingFunction):
    """A ranking function defined by an algebraic expression tree.

    The lower bound over a box is the low end of the interval-arithmetic
    enclosure — always sound, not always tight (interval arithmetic ignores
    variable correlation), which is exactly the guarantee the search
    algorithms need.
    """

    def __init__(self, expr: Expr, dims: Optional[Sequence[str]] = None,
                 shape: FunctionShape = FunctionShape.GENERAL) -> None:
        self.expr = expr
        inferred = tuple(sorted(expr.variables()))
        self.dims: Tuple[str, ...] = tuple(dims) if dims is not None else inferred
        missing = set(inferred) - set(self.dims)
        if missing:
            raise ValueError(f"expression uses dims {sorted(missing)} not listed in dims")
        self._shape = shape

    def evaluate(self, values: Sequence[float]) -> float:
        env = {dim: float(v) for dim, v in zip(self.dims, values)}
        return self.expr.value(env)

    def evaluate_batch(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        env = {dim: values[:, j] for j, dim in enumerate(self.dims)}
        result = np.asarray(self.expr.batch(env), dtype=np.float64)
        if result.ndim == 0:
            result = np.full(values.shape[0], float(result), dtype=np.float64)
        return result

    def lower_bound(self, box: Box) -> float:
        env = {dim: box.interval(dim) for dim in self.dims}
        return self.expr.interval(env).low

    @property
    def shape(self) -> FunctionShape:
        return self._shape

    def describe(self) -> str:
        return repr(self.expr)


class ConstrainedFunction(RankingFunction):
    """``f / eta(dim)`` where ``eta`` is 1 inside ``[low, high]`` and 0 outside.

    This reproduces the constrained function ``fc`` of Section 5.4.2: tuples
    whose constrained dimension falls outside the window score ``+inf``.
    """

    def __init__(self, base: RankingFunction, dim: str, low: float, high: float) -> None:
        if dim not in base.dims:
            raise ValueError(f"constrained dim {dim!r} is not used by the base function")
        if not low <= high:  # NaN bounds compare false: no window
            raise ValueError("constraint window is empty")
        self.base = base
        self.constrained_dim = dim
        self.window = Interval(float(low), float(high))
        self.dims: Tuple[str, ...] = base.dims

    def evaluate(self, values: Sequence[float]) -> float:
        env = dict(zip(self.dims, values))
        if not self.window.contains(env[self.constrained_dim]):
            return float("inf")
        return self.base.evaluate(values)

    def evaluate_batch(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        constrained = values[:, self.dims.index(self.constrained_dim)]
        inside = (constrained >= self.window.low) & (constrained <= self.window.high)
        scores = self.base.evaluate_batch(values)
        return np.where(inside, scores, np.inf)

    def lower_bound(self, box: Box) -> float:
        interval = box.interval(self.constrained_dim)
        clipped = interval.intersection(self.window)
        if clipped is None:
            return float("inf")
        return self.base.lower_bound(box.with_interval(self.constrained_dim, clipped))

    @property
    def shape(self) -> FunctionShape:
        return FunctionShape.GENERAL

    def describe(self) -> str:
        return (
            f"({self.base.describe()}) / eta({self.constrained_dim} in "
            f"[{self.window.low:g},{self.window.high:g}])"
        )

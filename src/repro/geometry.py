"""Intervals and axis-aligned boxes.

Both the geometry-based partition (Chapter 3), the R-tree (Chapter 4), and
the joint-state space of index merging (Chapter 5) reason about axis-aligned
regions and need lower bounds of ranking functions over them.  This module
provides the two primitives they share:

* :class:`Interval` — a closed 1-D interval with the interval arithmetic
  needed to derive lower bounds of algebraic ranking functions.
* :class:`Box` — a named, multi-dimensional axis-aligned box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[low, high]`` supporting interval arithmetic."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low > self.high:
            raise ValueError(f"interval low {self.low} exceeds high {self.high}")

    # -- set operations -------------------------------------------------
    def contains(self, value: float) -> bool:
        """Return whether ``value`` lies in the interval."""
        return self.low <= value <= self.high

    def intersects(self, other: "Interval") -> bool:
        """Return whether the two intervals overlap (closed endpoints)."""
        return self.low <= other.high and other.low <= self.high

    def intersection(self, other: "Interval") -> Optional["Interval"]:
        """Overlap of the two intervals, or None when they are disjoint."""
        low = max(self.low, other.low)
        high = min(self.high, other.high)
        if low > high:
            return None
        return Interval(low, high)

    def union_hull(self, other: "Interval") -> "Interval":
        """Smallest interval covering both inputs."""
        return Interval(min(self.low, other.low), max(self.high, other.high))

    @property
    def width(self) -> float:
        """Length of the interval."""
        return self.high - self.low

    def clamp(self, value: float) -> float:
        """Nearest point of the interval to ``value``."""
        return min(max(value, self.low), self.high)

    # -- interval arithmetic ---------------------------------------------
    def __add__(self, other: "Interval | float") -> "Interval":
        if isinstance(other, Interval):
            return Interval(self.low + other.low, self.high + other.high)
        return Interval(self.low + other, self.high + other)

    def __radd__(self, other: float) -> "Interval":
        return self.__add__(other)

    def __neg__(self) -> "Interval":
        return Interval(-self.high, -self.low)

    def __sub__(self, other: "Interval | float") -> "Interval":
        if isinstance(other, Interval):
            return Interval(self.low - other.high, self.high - other.low)
        return Interval(self.low - other, self.high - other)

    def __rsub__(self, other: float) -> "Interval":
        return (-self).__add__(other)

    def __mul__(self, other: "Interval | float") -> "Interval":
        if isinstance(other, Interval):
            products = (
                self.low * other.low,
                self.low * other.high,
                self.high * other.low,
                self.high * other.high,
            )
            return Interval(min(products), max(products))
        if other >= 0:
            return Interval(self.low * other, self.high * other)
        return Interval(self.high * other, self.low * other)

    def __rmul__(self, other: float) -> "Interval":
        return self.__mul__(other)

    def square(self) -> "Interval":
        """Interval of ``x**2`` for ``x`` in this interval."""
        if self.contains(0.0):
            return Interval(0.0, max(self.low * self.low, self.high * self.high))
        lo2, hi2 = self.low * self.low, self.high * self.high
        return Interval(min(lo2, hi2), max(lo2, hi2))

    def abs(self) -> "Interval":
        """Interval of ``|x|`` for ``x`` in this interval."""
        if self.contains(0.0):
            return Interval(0.0, max(abs(self.low), abs(self.high)))
        lo, hi = abs(self.low), abs(self.high)
        return Interval(min(lo, hi), max(lo, hi))

    def power(self, exponent: int) -> "Interval":
        """Interval of ``x**exponent`` for integer exponents >= 0."""
        if exponent < 0:
            raise ValueError("negative exponents are not supported")
        if exponent == 0:
            return Interval(1.0, 1.0)
        if exponent % 2 == 0:
            return self.abs().apply_monotone(lambda v: v ** exponent)
        return Interval(self.low ** exponent, self.high ** exponent)

    def apply_monotone(self, fn) -> "Interval":
        """Image of the interval under a non-decreasing function ``fn``."""
        return Interval(fn(self.low), fn(self.high))


#: A degenerate interval used for "everything" bounds.
FULL_INTERVAL = Interval(-math.inf, math.inf)


class Box:
    """A named axis-aligned box: one :class:`Interval` per dimension."""

    __slots__ = ("_intervals",)

    def __init__(self, intervals: Mapping[str, Interval]) -> None:
        self._intervals: Dict[str, Interval] = dict(intervals)

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_bounds(cls, dims: Sequence[str], lows: Sequence[float],
                    highs: Sequence[float]) -> "Box":
        """Build a box from parallel dimension/low/high sequences."""
        if not (len(dims) == len(lows) == len(highs)):
            raise ValueError("dims, lows and highs must have the same length")
        return cls({d: Interval(float(lo), float(hi))
                    for d, lo, hi in zip(dims, lows, highs)})

    @classmethod
    def point(cls, values: Mapping[str, float]) -> "Box":
        """A zero-volume box at a single point."""
        return cls({d: Interval(float(v), float(v)) for d, v in values.items()})

    @classmethod
    def unit(cls, dims: Sequence[str]) -> "Box":
        """The unit hyper-cube ``[0, 1]^d`` (the thesis' default domain)."""
        return cls({d: Interval(0.0, 1.0) for d in dims})

    # -- accessors --------------------------------------------------------
    @property
    def dims(self) -> Tuple[str, ...]:
        """Dimension names covered by this box."""
        return tuple(self._intervals.keys())

    def interval(self, dim: str) -> Interval:
        """Interval of one dimension."""
        return self._intervals[dim]

    def has_dim(self, dim: str) -> bool:
        """Return whether the box constrains ``dim``."""
        return dim in self._intervals

    def lows(self, dims: Optional[Sequence[str]] = None) -> Tuple[float, ...]:
        """Lower corners, in ``dims`` order (default: the box's own order)."""
        dims = dims or self.dims
        return tuple(self._intervals[d].low for d in dims)

    def highs(self, dims: Optional[Sequence[str]] = None) -> Tuple[float, ...]:
        """Upper corners, in ``dims`` order (default: the box's own order)."""
        dims = dims or self.dims
        return tuple(self._intervals[d].high for d in dims)

    # -- geometry ---------------------------------------------------------
    def contains_point(self, values: Mapping[str, float]) -> bool:
        """Whether the point (given as ``{dim: value}``) lies in the box."""
        return all(self._intervals[d].contains(values[d]) for d in self._intervals)

    def intersects(self, other: "Box") -> bool:
        """Whether the two boxes overlap on every shared dimension."""
        for dim, interval in self._intervals.items():
            if other.has_dim(dim) and not interval.intersects(other.interval(dim)):
                return False
        return True

    def intersection(self, other: "Box") -> Optional["Box"]:
        """Overlap of the two boxes on shared dims; None when disjoint."""
        merged: Dict[str, Interval] = {}
        for dim, interval in self._intervals.items():
            if other.has_dim(dim):
                overlap = interval.intersection(other.interval(dim))
                if overlap is None:
                    return None
                merged[dim] = overlap
            else:
                merged[dim] = interval
        for dim in other.dims:
            if dim not in merged:
                merged[dim] = other.interval(dim)
        return Box(merged)

    def union_hull(self, other: "Box") -> "Box":
        """Smallest box covering both inputs (on the union of dims)."""
        merged: Dict[str, Interval] = {}
        for dim in set(self.dims) | set(other.dims):
            if self.has_dim(dim) and other.has_dim(dim):
                merged[dim] = self.interval(dim).union_hull(other.interval(dim))
            elif self.has_dim(dim):
                merged[dim] = self.interval(dim)
            else:
                merged[dim] = other.interval(dim)
        return Box(merged)

    def project(self, dims: Sequence[str]) -> "Box":
        """Box restricted to ``dims`` (missing dims become unbounded)."""
        return Box({d: self._intervals.get(d, FULL_INTERVAL) for d in dims})

    def corners(self) -> Iterator[Dict[str, float]]:
        """Iterate over all ``2^d`` corner points as ``{dim: value}`` dicts."""
        dims = self.dims
        count = len(dims)
        for mask in range(1 << count):
            corner: Dict[str, float] = {}
            for j, dim in enumerate(dims):
                interval = self._intervals[dim]
                corner[dim] = interval.high if mask & (1 << j) else interval.low
            yield corner

    def volume(self) -> float:
        """Product of the interval widths."""
        result = 1.0
        for interval in self._intervals.values():
            result *= interval.width
        return result

    def with_interval(self, dim: str, interval: Interval) -> "Box":
        """A copy of this box with one dimension's interval replaced."""
        merged = dict(self._intervals)
        merged[dim] = interval
        return Box(merged)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._intervals.items(), key=lambda kv: kv[0])))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{d}=[{iv.low:g},{iv.high:g}]" for d, iv in self._intervals.items()
        )
        return f"Box({parts})"


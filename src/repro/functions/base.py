"""Ranking-function interface.

The thesis only requires that a ranking function ``f`` is a *lower-bound
function*: given the domain region of its variables, a lower bound of ``f``
over that region can be derived (Section 1.2.1).  Every search algorithm in
the library — neighborhood search over grid blocks (Chapter 3),
branch-and-bound over R-tree nodes (Chapter 4), joint-state merging
(Chapter 5) — only interacts with the function through

* point evaluation, and
* ``lower_bound(box)`` over an axis-aligned :class:`repro.geometry.Box`.

Functions additionally advertise their *shape* (monotone / semi-monotone /
general), which Chapter 5 uses to pick between neighborhood expansion and
threshold expansion.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import Box
from repro.storage.table import Relation


class FunctionShape(enum.Enum):
    """Structural classes of ranking functions used to pick search strategies."""

    #: ``f(x) <= f(x')`` whenever ``x_i <= x'_i`` for every i (TA-style).
    MONOTONE = "monotone"
    #: ``f`` increases with the distance of each coordinate from a fixed
    #: minimum point (nearest-neighbor style functions, Section 5.2.2).
    SEMI_MONOTONE = "semi_monotone"
    #: No usable structure beyond the lower-bound property.
    GENERAL = "general"


class RankingFunction(ABC):
    """Abstract ranking function over a fixed tuple of ranking dimensions."""

    #: Names of the ranking dimensions this function reads, in argument order.
    dims: Tuple[str, ...]

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    @abstractmethod
    def evaluate(self, values: Sequence[float]) -> float:
        """Evaluate the function on values aligned with :attr:`dims`."""

    def __call__(self, values: Sequence[float]) -> float:
        return self.evaluate(values)

    def evaluate_mapping(self, values: Mapping[str, float]) -> float:
        """Evaluate on a ``{dim: value}`` mapping."""
        return self.evaluate([values[d] for d in self.dims])

    def evaluate_tuple(self, relation: Relation, tid: int) -> float:
        """Evaluate on tuple ``tid`` of ``relation``."""
        return self.evaluate(relation.ranking_values(tid, self.dims))

    def evaluate_batch(self, values: np.ndarray) -> np.ndarray:
        """Evaluate on a ``(n, len(dims))`` array of rows, returning ``n`` scores.

        Subclasses override this with a columnar implementation whose
        per-row floating-point operation order matches :meth:`evaluate`, so
        batch and per-tuple scoring agree bit for bit.  This fallback simply
        loops, which is always exact.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return np.empty(0, dtype=np.float64)
        return np.array([self.evaluate(row) for row in values], dtype=np.float64)

    # ------------------------------------------------------------------
    # lower bounds
    # ------------------------------------------------------------------
    @abstractmethod
    def lower_bound(self, box: Box) -> float:
        """A lower bound of the function over ``box``.

        The bound must be *sound* (never exceed the true minimum over the
        box) but need not be tight.  ``box`` must cover every dimension in
        :attr:`dims`.
        """

    def lower_bound_batch(self, lows: np.ndarray, highs: np.ndarray
                          ) -> Optional[np.ndarray]:
        """:meth:`lower_bound` of many boxes at once, or ``None``.

        ``lows`` and ``highs`` have shape ``(n, len(dims))``: row *i* holds
        the corners of box *i* along :attr:`dims`.  A function that defines
        this accumulates dimension by dimension in :meth:`lower_bound`'s own
        order, so element *i* equals ``lower_bound(box i)`` bit for bit (the
        contract :meth:`evaluate_batch` keeps against :meth:`evaluate`) — a
        subclass that overrides one overrides the other.  ``None`` — this
        default — tells the caller to derive the bounds it needs one box at
        a time.
        """
        return None

    # ------------------------------------------------------------------
    # structure hints
    # ------------------------------------------------------------------
    @property
    def shape(self) -> FunctionShape:
        """Structural class; defaults to :attr:`FunctionShape.GENERAL`."""
        return FunctionShape.GENERAL

    def minimum_point(self) -> Optional[Dict[str, float]]:
        """Unconstrained minimizer for semi-monotone functions, else None."""
        return None

    def global_minimum(self, domain: Box) -> float:
        """Lower bound over the full ``domain`` (used to seed searches)."""
        return self.lower_bound(domain)

    def describe(self) -> str:
        """Short human-readable description used in benchmark tables."""
        return f"{type(self).__name__}({', '.join(self.dims)})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()


class FunctionWithShape(RankingFunction):
    """Mixin-style base that stores an explicit shape and minimum point."""

    def __init__(self, dims: Sequence[str], shape: FunctionShape,
                 minimum: Optional[Mapping[str, float]] = None) -> None:
        self.dims = tuple(dims)
        self._shape = shape
        self._minimum = dict(minimum) if minimum is not None else None

    @property
    def shape(self) -> FunctionShape:
        return self._shape

    def minimum_point(self) -> Optional[Dict[str, float]]:
        return dict(self._minimum) if self._minimum is not None else None

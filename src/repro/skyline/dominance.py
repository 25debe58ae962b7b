"""Dominance tests for skyline computation (Chapter 7).

All preference dimensions are minimized.  For *dynamic* skylines the raw
values are first mapped to their absolute distance from a per-dimension
target (Section 7.2.3); dominance is then evaluated in the mapped space.

The scalar functions are the definitions, the oracle's tools and the
engine's test of each popped heap item; :func:`mapped_corners` and
:func:`dominated_rows` are the same tests over a whole R-tree node at a
time, which is how the engine runs them once per expanded node.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import Box


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """Whether point ``a`` dominates point ``b`` (<= everywhere, < somewhere)."""
    strictly_better = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            strictly_better = True
    return strictly_better


def dominated_by_any(point: Sequence[float], others: Iterable[Sequence[float]]) -> bool:
    """Whether any point in ``others`` dominates ``point``."""
    for other in others:
        if dominates(other, point):
            return True
    return False


def skyline_of(points: Sequence[Tuple[int, Sequence[float]]]
               ) -> List[Tuple[int, Tuple[float, ...]]]:
    """Block-nested-loop skyline of ``(tid, values)`` pairs (the oracle).

    Sorting by the coordinate sum first guarantees a point can only be
    dominated by points appearing earlier, so a single pass suffices.
    """
    ordered = sorted(points, key=lambda pair: (sum(pair[1]), tuple(pair[1])))
    skyline: List[Tuple[int, Tuple[float, ...]]] = []
    for tid, values in ordered:
        values = tuple(float(v) for v in values)
        if not dominated_by_any(values, (vals for _, vals in skyline)):
            skyline.append((tid, values))
    return skyline


def transform_dynamic(values: Sequence[float], targets: Optional[Sequence[float]]
                      ) -> Tuple[float, ...]:
    """Map raw values into dynamic-skyline space (identity when no targets)."""
    if targets is None:
        return tuple(float(v) for v in values)
    return tuple(abs(float(v) - float(t)) for v, t in zip(values, targets))


def box_min_corner(box: Box, dims: Sequence[str],
                   targets: Optional[Sequence[float]] = None) -> Tuple[float, ...]:
    """Best possible (per-dimension minimal) mapped corner of a box.

    For static skylines this is the box's low corner; for dynamic skylines
    it is the per-dimension distance of the target clamped into the box —
    the box cannot contain any point better than this corner, so if the
    corner is dominated the whole box can be pruned (Figure 7.1).
    """
    corner: List[float] = []
    for i, dim in enumerate(dims):
        interval = box.interval(dim)
        if targets is None:
            corner.append(interval.low)
        else:
            corner.append(abs(interval.clamp(targets[i]) - targets[i]))
    return tuple(corner)


def mindist(corner: Sequence[float]) -> float:
    """Sum of the mapped coordinates — the BBS priority of a node or point."""
    return float(sum(corner))


def mapped_corners(lows: np.ndarray, highs: np.ndarray,
                   targets: Optional[np.ndarray]) -> np.ndarray:
    """:func:`box_min_corner` of every box of an ``(n, d)`` pair of corner arrays.

    ``highs is lows`` says the boxes are points, for which this is
    :func:`transform_dynamic`.  May return ``lows`` itself: read, do not write.
    """
    if targets is None:
        return lows
    nearest = lows if highs is lows else np.minimum(np.maximum(targets, lows), highs)
    return np.abs(nearest - targets)


def dominated_rows(corners: np.ndarray, found: np.ndarray) -> np.ndarray:
    """Per row of ``corners (n, d)``: does some row of ``found (m, d)`` dominate it?"""
    no_worse = found[:, 0, None] <= corners[:, 0]
    better = found[:, 0, None] < corners[:, 0]
    for column in range(1, corners.shape[1]):
        no_worse &= found[:, column, None] <= corners[:, column]
        better |= found[:, column, None] < corners[:, column]
    no_worse &= better
    return no_worse.any(axis=0)

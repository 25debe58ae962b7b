"""Dominance tests for skyline computation (Chapter 7).

All preference dimensions are minimized.  For *dynamic* skylines the raw
values are first mapped to their absolute distance from a per-dimension
target (Section 7.2.3); dominance is then evaluated in the mapped space.

The scalar functions are the definitions and the BBS engine's test of each
popped heap item (:mod:`repro.paper.skyline`).  The array functions run once per R-tree node
(:func:`mapped_corners`, :func:`dominated_rows`) or once per query
(:func:`skyline_rows`: the whole skyline of a block of points).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np


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


def mapped_corners(lows: np.ndarray, highs: np.ndarray,
                   targets: Optional[np.ndarray]) -> np.ndarray:
    """Best mapped corner of every box of an ``(n, d)`` pair of corner arrays:
    the low corner, or per dimension the target's distance to the box, so a
    dominated corner prunes the box (Figure 7.1).  ``highs is lows`` says
    the boxes are points, which this maps to ``|value - target|``.  May
    return ``lows`` itself: read, do not write.
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


def skyline_rows(points: np.ndarray, window: int = 64) -> np.ndarray:
    """Ascending indices of the rows of ``points (m, d)`` no other row dominates.

    Peels one point at a time: the live row with the least left-to-right
    coordinate sum (on a float-sum tie, the lexicographically least) has
    no live dominator, which would sum to no more and sort first, and no
    dropped one (dominance is transitive).  It is kept with its exact
    duplicates and dropped with every row it dominates by one comparison
    per column over the live rows — O(|skyline| * m), no sort.  At most
    ``window`` live rows are settled by one all-pairs :func:`dominated_rows`
    (the cross of near-target rows a dynamic skyline leaves would cost
    the peel a round per point).  Points are finite.
    """
    columns = [points[:, column] for column in range(points.shape[1])]
    sums = columns[0].copy()
    for column in columns[1:]:
        sums += column
    rows = np.arange(len(points))
    kept = [rows[:0]]
    while len(rows) > window:
        best = sums.argmin()
        tied = np.flatnonzero(sums == sums[best])
        if len(tied) > 1:
            best = tied[np.lexsort([column[tied] for column in columns[::-1]])[0]]
            for column in columns:
                tied = tied[column[tied] == column[best]]
            kept.append(rows[tied])
        else:
            kept.append(rows[best:best + 1])
        point = [column[best] for column in columns]
        live = columns[0] < point[0]
        for column, value in zip(columns[1:], point[1:]):
            live |= column < value
        rows, sums = rows[live], sums[live]
        columns = [column[live] for column in columns]
    tail = points[rows]
    kept.append(rows[~dominated_rows(tail, tail)])
    return np.sort(np.concatenate(kept))

"""Brute-force oracle and failure accounting for the e2e benchmark.

The oracle answers from the benchmark's *own copy* of the relation's
arrays, never through any index of the program under test: predicate
mask, ``function.evaluate_batch`` over the matching rows, canonical
``(score, tid)`` order, first ``k``; skylines by a dominance sweep over
the matching rows.  Rows inserted during a run are appended under the
global tid the program returned, so a read is checked against exactly
the rows that existed when it was issued (``rows=`` bounds the prefix).

Every response is shape-checked (:func:`shape_error`); sampled responses
and the whole traced slice are compared bit for bit (:meth:`mismatch`).
Both run outside the timed sections.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.query import QueryResult, SkylineQuery, TopKQuery
from repro.skyline.engine import SkylineResult


class Oracle:
    """Reference answers over a private, growable copy of the data."""

    def __init__(self, selection: np.ndarray, ranking: np.ndarray,
                 selection_dims: Sequence[str],
                 ranking_dims: Sequence[str]) -> None:
        self.selection_dims = tuple(selection_dims)
        self.ranking_dims = tuple(ranking_dims)
        self._sel_index = {dim: i for i, dim in enumerate(selection_dims)}
        self._rank_index = {dim: i for i, dim in enumerate(ranking_dims)}
        #: Rows the relation was generated with (query generation draws
        #: predicate values from these only, so op streams never depend
        #: on what a run inserted).
        self.base_rows = int(selection.shape[0])
        self.rows = self.base_rows
        self._selection = np.array(selection, dtype=np.int64)
        self._ranking = np.array(ranking, dtype=np.float64)

    @classmethod
    def of(cls, relation) -> "Oracle":
        return cls(relation.selection_matrix(), relation.ranking_matrix(),
                   relation.selection_dims, relation.ranking_dims)

    @property
    def selection(self) -> np.ndarray:
        return self._selection[:self.rows]

    def append(self, row: Mapping[str, object], tid: int) -> None:
        """Record an inserted ``row`` under the tid the program returned."""
        if tid != self.rows:
            raise AssertionError(
                f"insert returned tid {tid}, oracle expected {self.rows}")
        if self.rows == self._selection.shape[0]:
            grow = max(1024, self.rows // 8)
            self._selection = np.vstack([
                self._selection,
                np.zeros((grow, self._selection.shape[1]), dtype=np.int64)])
            self._ranking = np.vstack([
                self._ranking,
                np.zeros((grow, self._ranking.shape[1]), dtype=np.float64)])
        self._selection[tid] = [int(row[d]) for d in self.selection_dims]
        self._ranking[tid] = [float(row[d]) for d in self.ranking_dims]
        self.rows += 1

    # ------------------------------------------------------------------
    # reference answers
    # ------------------------------------------------------------------
    def _matching(self, predicate, rows: int) -> np.ndarray:
        mask = np.ones(rows, dtype=bool)
        for dim, value in predicate.conditions:
            mask &= self._selection[:rows, self._sel_index[dim]] == int(value)
        return np.nonzero(mask)[0]

    def topk(self, query: TopKQuery, rows: Optional[int] = None
             ) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
        rows = self.rows if rows is None else rows
        tids = self._matching(query.predicate, rows)
        columns = [self._rank_index[dim] for dim in query.function.dims]
        scores = query.function.evaluate_batch(
            self._ranking[tids][:, columns])
        order = np.lexsort((tids, scores))[:query.k]
        return (tuple(int(t) for t in tids[order]),
                tuple(float(s) for s in scores[order]))

    def skyline(self, query: SkylineQuery, rows: Optional[int] = None
                ) -> Tuple[int, ...]:
        rows = self.rows if rows is None else rows
        tids = self._matching(query.predicate, rows)
        columns = [self._rank_index[dim] for dim in query.preference_dims]
        points = self._ranking[tids][:, columns]
        if query.targets is not None:
            points = np.abs(points - np.asarray(query.targets,
                                                dtype=np.float64))
        # Ascending coordinate sum: a point can only be dominated by one
        # that sorts no later, so one sweep against the skyline so far is
        # the full O(m * |skyline|) dominance test.
        order = np.argsort(points.sum(axis=1), kind="stable")
        kept: list = []
        kept_points = np.empty((0, points.shape[1]))
        for position in order:
            point = points[position]
            if kept and bool(np.any(
                    np.all(kept_points <= point, axis=1)
                    & np.any(kept_points < point, axis=1))):
                continue
            kept.append(int(tids[position]))
            kept_points = np.vstack([kept_points, point])
        return tuple(sorted(kept))

    def mismatch(self, query, result, rows: Optional[int] = None
                 ) -> Optional[str]:
        """Why ``result`` differs from the reference answer (None: equal)."""
        if isinstance(query, TopKQuery):
            tids, scores = self.topk(query, rows)
            if tuple(result.tids) != tids:
                return f"tids {tuple(result.tids)[:5]}.. != oracle {tids[:5]}.."
            if tuple(result.scores) != scores:
                return "scores differ from the oracle's bit for bit"
            return None
        expected = self.skyline(query, rows)
        if tuple(result.tids) != expected:
            return (f"skyline of {len(result.tids)} tids != oracle's "
                    f"{len(expected)}")
        return None


def shape_error(query, result, rows: int) -> Optional[str]:
    """Cheap structural check applied to *every* response."""
    if isinstance(query, TopKQuery):
        if not isinstance(result, QueryResult):
            return f"top-k answered with {type(result).__name__}"
        if len(result.tids) != len(result.scores) or len(result.tids) > query.k:
            return "tids/scores length mismatch or more than k entries"
        pairs = list(zip(result.scores, result.tids))
        if pairs != sorted(pairs) or len(set(result.tids)) != len(pairs):
            return "entries out of canonical (score, tid) order or repeated"
    else:
        if not isinstance(result, SkylineResult):
            return f"skyline answered with {type(result).__name__}"
        if list(result.tids) != sorted(set(result.tids)):
            return "skyline tids not strictly ascending"
    if result.tids and not (0 <= min(result.tids)
                            and max(result.tids) < rows):
        return "tid outside the relation"
    return None

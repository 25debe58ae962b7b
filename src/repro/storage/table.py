"""Relation, schema, and columnar tuple storage.

The ranking-cube data model (thesis Section 1.2.1) is a relation ``R`` with

* categorical *selection* (boolean) dimensions ``A1..AS`` — low-cardinality
  attributes used in equality predicates, and
* real-valued *ranking* dimensions ``N1..NR`` — attributes used inside the
  ad-hoc ranking function.

A :class:`Relation` stores both groups column-major (one contiguous NumPy
array per dimension) so that selection masks and ranking-value lookups read
whole columns, while the query engines address individual tuples by their
``tid`` (0-based row position, matching the thesis).  Equality selections
read per-value posting lists (ascending tids), the boolean-first
baseline's tid lists of Sections 3.5.1 and 4.4.1.

A relation is append-only, as the thesis maintains its cubes under inserts
only (Chapter 4): :meth:`Relation.append` is its one mutation, so a cache
over it (an engine's result cache, its statistics catalog) learns what is
new from the row count alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import SchemaError


@dataclass(frozen=True)
class Schema:
    """Names of the selection and ranking dimensions of a relation."""

    selection_dims: Tuple[str, ...]
    ranking_dims: Tuple[str, ...]

    def __post_init__(self) -> None:
        overlap = set(self.selection_dims) & set(self.ranking_dims)
        if overlap:
            raise SchemaError(
                f"dimensions {sorted(overlap)} appear as both selection and ranking"
            )
        if len(set(self.selection_dims)) != len(self.selection_dims):
            raise SchemaError("duplicate selection dimension names")
        if len(set(self.ranking_dims)) != len(self.ranking_dims):
            raise SchemaError("duplicate ranking dimension names")

    def selection_index(self, name: str) -> int:
        """Column position of a selection dimension."""
        try:
            return self.selection_dims.index(name)
        except ValueError as exc:
            raise SchemaError(f"unknown selection dimension {name!r}") from exc

    def ranking_index(self, name: str) -> int:
        """Column position of a ranking dimension."""
        try:
            return self.ranking_dims.index(name)
        except ValueError as exc:
            raise SchemaError(f"unknown ranking dimension {name!r}") from exc

    def is_selection(self, name: str) -> bool:
        """Return whether ``name`` is a selection dimension."""
        return name in self.selection_dims

    def is_ranking(self, name: str) -> bool:
        """Return whether ``name`` is a ranking dimension."""
        return name in self.ranking_dims


def _matrices(schema: Schema, rows: Sequence[Mapping[str, object]]
              ) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(len(rows), S)`` selection and ``(len(rows), R)`` ranking matrices."""
    selection = np.array([[int(row[d]) for d in schema.selection_dims]  # type: ignore[call-overload]
                          for row in rows], dtype=np.int64)
    ranking = np.array([[float(row[d]) for d in schema.ranking_dims]  # type: ignore[arg-type]
                        for row in rows], dtype=np.float64)
    return (selection.reshape(len(rows), len(schema.selection_dims)),
            ranking.reshape(len(rows), len(schema.ranking_dims)))


def _frozen_columns(matrix: np.ndarray) -> np.ndarray:
    """A column-major view of ``matrix`` nobody can write through."""
    view = np.asarray(matrix, order="F").view()
    view.flags.writeable = False
    return view


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


#: The posting list of a value a column does not hold.
_NO_TIDS = _frozen(np.empty(0, dtype=np.int64))


def _postings(column: np.ndarray) -> Dict[int, np.ndarray]:
    """``{value: ascending tids}`` of one selection column."""
    order = _frozen(np.argsort(column, kind="stable"))
    values, starts = np.unique(column[order], return_index=True)
    return dict(zip(values.tolist(), np.split(order, starts[1:])))


class Relation:
    """A columnar relation with categorical selection and real ranking dims.

    Both matrices are column-major, so every column is one contiguous
    array.  A column-major input is kept as is; any other is copied
    once.  Accessors hand out
    read-only views, so only :meth:`append` changes the data, and it bumps
    :attr:`version`; it copies both matrices (one ``np.vstack`` each), so
    it costs ``O(T)``.  A selection column's posting lists are built on
    its first equality selection, and :meth:`append` extends the built
    ones (the new tid is the largest, so each list stays sorted).

    Parameters
    ----------
    schema:
        Names of the two dimension groups.
    selection_data:
        Integer array of shape ``(T, S)`` with the coded categorical values.
    ranking_data:
        Float array of shape ``(T, R)`` with the ranking attribute values.
    name:
        Optional relation name, used by the multi-relation (SPJR) engine.
    """

    def __init__(self, schema: Schema, selection_data: np.ndarray,
                 ranking_data: np.ndarray, name: str = "R") -> None:
        selection_data = np.asarray(selection_data, dtype=np.int64)
        ranking_data = np.asarray(ranking_data, dtype=np.float64)
        if selection_data.ndim != 2 or ranking_data.ndim != 2:
            raise SchemaError("selection_data and ranking_data must be 2-D arrays")
        for label, data, dims in (
                ("selection_data", selection_data, schema.selection_dims),
                ("ranking_data", ranking_data, schema.ranking_dims)):
            if data.shape[1] != len(dims):
                raise SchemaError(f"{label} has {data.shape[1]} columns, "
                                  f"schema declares {len(dims)}")
        if selection_data.shape[0] != ranking_data.shape[0]:
            raise SchemaError("selection_data and ranking_data row counts differ")
        self.schema = schema
        self.name = name
        self._selection = _frozen_columns(selection_data)
        self._ranking = _frozen_columns(ranking_data)
        self._postings: Dict[int, Dict[int, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Mapping[str, object]],
                  name: str = "R") -> "Relation":
        """Build a relation from an iterable of ``{dim: value}`` mappings."""
        selection, ranking = _matrices(schema, list(rows))
        return cls(schema, selection, ranking, name=name)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_tuples(self) -> int:
        """Number of tuples (``T`` in the thesis)."""
        return self._selection.shape[0]

    def __len__(self) -> int:
        return self.num_tuples

    @property
    def selection_dims(self) -> Tuple[str, ...]:
        """Names of the selection dimensions."""
        return self.schema.selection_dims

    @property
    def ranking_dims(self) -> Tuple[str, ...]:
        """Names of the ranking dimensions."""
        return self.schema.ranking_dims

    def selection_column(self, name: str) -> np.ndarray:
        """Return the full coded column of a selection dimension."""
        return self._selection[:, self.schema.selection_index(name)]

    def ranking_column(self, name: str) -> np.ndarray:
        """Return the full column of a ranking dimension."""
        return self._ranking[:, self.schema.ranking_index(name)]

    def selection_matrix(self) -> np.ndarray:
        """Return the ``(T, S)`` selection value matrix (read-only view)."""
        return self._selection

    def ranking_matrix(self) -> np.ndarray:
        """Return the ``(T, R)`` ranking value matrix (read-only view)."""
        return self._ranking

    def cardinality(self, name: str) -> int:
        """Number of distinct values of a selection dimension."""
        return int(np.unique(self.selection_column(name)).size)

    def selection_values(self, tid: int) -> Dict[str, int]:
        """Selection values of one tuple as a ``{dim: value}`` dict."""
        row = self._selection[tid]
        return {dim: int(row[j]) for j, dim in enumerate(self.schema.selection_dims)}

    def ranking_values(self, tid: int, dims: Optional[Sequence[str]] = None) -> np.ndarray:
        """Ranking values of one tuple, optionally restricted to ``dims``."""
        row = self._ranking[tid]
        if dims is None:
            return row
        idx = [self.schema.ranking_index(d) for d in dims]
        return row[idx]

    def ranking_values_bulk(self, tids: Sequence[int],
                            dims: Optional[Sequence[str]] = None) -> np.ndarray:
        """Ranking values for many tuples at once (``len(tids) × len(dims)``),
        gathered column by column into a column-major block."""
        tids = np.asarray(tids if isinstance(tids, np.ndarray) else list(tids),
                          dtype=np.int64)
        columns = (range(self._ranking.shape[1]) if dims is None
                   else [self.schema.ranking_index(d) for d in dims])
        block = np.empty((len(columns), tids.size), dtype=np.float64)
        for j, column in enumerate(columns):
            block[j] = self._ranking[:, column].take(tids)
        return block.T

    def tuple_dict(self, tid: int) -> Dict[str, object]:
        """Full tuple as a ``{dim: value}`` dict (selection + ranking)."""
        out: Dict[str, object] = dict(self.selection_values(tid))
        row = self._ranking[tid]
        for j, dim in enumerate(self.schema.ranking_dims):
            out[dim] = float(row[j])
        return out

    # ------------------------------------------------------------------
    # predicate evaluation helpers
    # ------------------------------------------------------------------
    def tids_matching(self, conditions: Mapping[str, int]) -> np.ndarray:
        """Tuple ids matching every equality condition, in tid order.

        Starts from the shortest posting list and keeps its entries whose
        other condition columns match, so no pass runs over every row.
        The answer is read-only.
        """
        if not conditions:
            return _frozen(np.arange(self.num_tuples))
        lists = []
        for dim, value in conditions.items():
            column = self.schema.selection_index(dim)
            if column not in self._postings:
                self._postings[column] = _postings(self._selection[:, column])
            lists.append((self._postings[column].get(int(value), _NO_TIDS),
                          column, int(value)))
        lists.sort(key=lambda entry: entry[0].size)
        tids = lists[0][0]
        for _, column, value in lists[1:]:
            tids = tids[self._selection[:, column].take(tids) == value]
        return _frozen(tids) if len(lists) > 1 else tids

    # ------------------------------------------------------------------
    # mutation (used by incremental-maintenance experiments)
    # ------------------------------------------------------------------
    def append(self, row: Mapping[str, object]) -> int:
        """Append one tuple, returning its new tid."""
        selection, ranking = _matrices(self.schema, [row])
        tid = self.num_tuples
        self._selection = _frozen_columns(np.vstack([self._selection, selection]))
        self._ranking = _frozen_columns(np.vstack([self._ranking, ranking]))
        for column, postings in self._postings.items():
            value = int(selection[0, column])
            postings[value] = _frozen(np.append(postings.get(value, _NO_TIDS), tid))
        return tid

    def project(self, selection_dims: Sequence[str],
                ranking_dims: Sequence[str], name: Optional[str] = None) -> "Relation":
        """Return a new relation containing only the requested dimensions."""
        sel_idx = [self.schema.selection_index(d) for d in selection_dims]
        rank_idx = [self.schema.ranking_index(d) for d in ranking_dims]
        schema = Schema(tuple(selection_dims), tuple(ranking_dims))
        return Relation(schema, self._selection[:, sel_idx],
                        self._ranking[:, rank_idx], name=name or self.name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Relation(name={self.name!r}, tuples={self.num_tuples}, "
            f"selection={list(self.selection_dims)}, ranking={list(self.ranking_dims)})"
        )

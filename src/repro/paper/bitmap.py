"""Inverted (value -> tid list) indexes on selection dimensions.

The baseline approaches in the evaluation build a non-clustered index on
each selection dimension (Section 3.5.1) and the boolean-first approach of
Section 4.4.1 filters through them before ranking.  This module provides
that structure: for every selection dimension, a per-value sorted tid list,
chunked into pages so lookups cost counted disk accesses.  It also provides
the bitmap representation discussed as a compression option in Section 3.6.3.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IndexError_, QueryError
from repro.storage.buffer import BufferPool
from repro.storage.pager import Pager
from repro.storage.table import Relation

#: Approximate bytes per tid entry, used to size tid-list pages.
_BYTES_PER_TID = 8


class SelectionIndex:
    """Per-dimension inverted indexes over the selection dimensions."""

    def __init__(self, relation: Relation, dims: Optional[Sequence[str]] = None,
                 pager: Optional[Pager] = None, buffer_capacity: int = 256) -> None:
        self.relation = relation
        self.dims: Tuple[str, ...] = tuple(dims) if dims else relation.selection_dims
        self.pager = pager or Pager()
        self.buffer = BufferPool(self.pager, capacity=buffer_capacity)
        self._page_capacity = max(8, self.pager.page_size // _BYTES_PER_TID)
        # (dim, value) -> list of page ids holding the sorted tid list.
        self._postings: Dict[Tuple[str, int], List[int]] = {}
        self._build()

    def _build(self) -> None:
        for dim in self.dims:
            if not self.relation.schema.is_selection(dim):
                raise IndexError_(f"{dim!r} is not a selection dimension")
            column = self.relation.selection_column(dim)
            for value in np.unique(column):
                tids = np.nonzero(column == value)[0]
                pages: List[int] = []
                for start in range(0, len(tids), self._page_capacity):
                    chunk = tids[start:start + self._page_capacity].tolist()
                    pages.append(self.pager.allocate(chunk))
                self._postings[(dim, int(value))] = pages

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def tids_for(self, dim: str, value: int) -> np.ndarray:
        """Sorted tids with ``dim == value`` (empty when the value is absent)."""
        if dim not in self.dims:
            raise QueryError(f"dimension {dim!r} is not indexed")
        pages = self._postings.get((dim, int(value)), [])
        parts = [self.buffer.read(page_id) for page_id in pages]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate([np.asarray(p, dtype=np.int64) for p in parts])

    def tids_for_conditions(self, conditions: Mapping[str, int]) -> np.ndarray:
        """Sorted tids matching every equality condition (set intersection)."""
        if not conditions:
            return np.arange(self.relation.num_tuples, dtype=np.int64)
        lists = [self.tids_for(dim, value) for dim, value in conditions.items()]
        lists.sort(key=len)
        result = lists[0]
        for other in lists[1:]:
            result = np.intersect1d(result, other, assume_unique=True)
            if result.size == 0:
                break
        return result

    def bitmap_for(self, dim: str, value: int) -> np.ndarray:
        """Boolean bitmap over all tuples for ``dim == value`` (Section 3.6.3)."""
        mask = np.zeros(self.relation.num_tuples, dtype=bool)
        mask[self.tids_for(dim, value)] = True
        return mask

    def selectivity(self, dim: str, value: int) -> float:
        """Fraction of tuples with ``dim == value`` (no I/O charged)."""
        pages = self._postings.get((dim, int(value)), [])
        count = 0
        for page_id in pages:
            count += len(self.pager.read(page_id, physical=False))
        return count / max(1, self.relation.num_tuples)

    # ------------------------------------------------------------------
    # sizing
    # ------------------------------------------------------------------
    def size_in_bytes(self) -> int:
        """Estimated materialized size of all posting lists."""
        return self.pager.total_bytes()

    def num_pages(self) -> int:
        """Number of posting-list pages."""
        return sum(len(pages) for pages in self._postings.values())


def intersect_sorted(lists: Sequence[np.ndarray]) -> np.ndarray:
    """Intersect several sorted tid arrays (the fragments' merge operation)."""
    if not lists:
        return np.empty(0, dtype=np.int64)
    result = np.asarray(lists[0], dtype=np.int64)
    for other in lists[1:]:
        result = np.intersect1d(result, np.asarray(other, dtype=np.int64),
                                assume_unique=True)
        if result.size == 0:
            break
    return result

"""Simulated page-level storage with I/O accounting.

Every persistent structure in this library (B+-trees, R-trees, ranking-cube
cuboids, signatures, base-block tables) stores its nodes as *pages* through a
shared :class:`Pager`.  The pager is an in-memory simulation of a block
device: it never touches the filesystem, but it

* hands out page ids,
* tracks an estimated on-"disk" size per page, and
* counts logical reads and writes.

The paper's evaluation reports *number of disk accesses* as a first-class
metric (Figures 3.x, 4.13, 5.10, 5.17, 7.4); routing all structures through
one pager makes that metric consistent across competing methods.  A
:class:`repro.storage.buffer.BufferPool` layered on top decides which logical
reads count as physical (cache-miss) accesses.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.errors import PageNotFoundError

#: Default simulated page size in bytes (the paper uses 4 KB pages).
DEFAULT_PAGE_SIZE = 4096


@dataclass
class IOStats:
    """Counters for logical and physical page traffic.

    ``logical_reads`` counts every read request; ``physical_reads`` counts
    only reads that missed the buffer pool (or all reads when no buffer pool
    is used).  ``physical_reads`` is the number reported as "disk accesses"
    in the benchmarks.
    """

    logical_reads: int = 0
    physical_reads: int = 0
    writes: int = 0
    pages_allocated: int = 0
    pages_freed: int = 0
    bytes_written: int = 0

    def reset(self) -> None:
        """Zero every counter in place."""
        self.logical_reads = 0
        self.physical_reads = 0
        self.writes = 0
        self.pages_allocated = 0
        self.pages_freed = 0
        self.bytes_written = 0

    def snapshot(self) -> "IOStats":
        """Return an independent copy of the current counters."""
        return IOStats(
            logical_reads=self.logical_reads,
            physical_reads=self.physical_reads,
            writes=self.writes,
            pages_allocated=self.pages_allocated,
            pages_freed=self.pages_freed,
            bytes_written=self.bytes_written,
        )

    def diff(self, earlier: "IOStats") -> "IOStats":
        """Return the counter deltas accumulated since ``earlier``."""
        return IOStats(
            logical_reads=self.logical_reads - earlier.logical_reads,
            physical_reads=self.physical_reads - earlier.physical_reads,
            writes=self.writes - earlier.writes,
            pages_allocated=self.pages_allocated - earlier.pages_allocated,
            pages_freed=self.pages_freed - earlier.pages_freed,
            bytes_written=self.bytes_written - earlier.bytes_written,
        )


def estimate_size(obj: Any) -> int:
    """Best-effort estimate of the serialized size of ``obj`` in bytes.

    The estimate is intentionally cheap: it recurses one level into
    containers and uses ``sys.getsizeof`` for leaves.  It is used only for
    the space-usage experiments (Figures 3.11, 4.9, 5.22), where relative
    sizes matter, not exact byte counts.
    """
    if obj is None:
        return 0
    if isinstance(obj, (int, float, bool)):
        return 8
    if isinstance(obj, str):
        return len(obj)
    if isinstance(obj, bytes):
        return len(obj)
    if isinstance(obj, (list, tuple, set, frozenset)):
        return 8 + sum(estimate_size(item) for item in obj)
    if isinstance(obj, dict):
        return 8 + sum(
            estimate_size(key) + estimate_size(value) for key, value in obj.items()
        )
    size = getattr(obj, "size_in_bytes", None)
    if callable(size):
        return int(size())
    try:
        return sys.getsizeof(obj)
    except TypeError:
        return 64


class Pager:
    """An in-memory simulated block device.

    Parameters
    ----------
    page_size:
        Simulated page size in bytes.  Structures use it to size their
        fanout (how many entries fit per node).
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        if page_size <= 0:
            raise ValueError(f"page_size must be positive, got {page_size}")
        self.page_size = page_size
        self.stats = IOStats()
        self._pages: Dict[int, Any] = {}
        self._page_sizes: Dict[int, int] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def allocate(self, payload: Any = None, *, size: Optional[int] = None) -> int:
        """Allocate a fresh page, optionally writing ``payload`` into it.

        ``size`` replaces ``estimate_size(payload)`` when the caller knows
        the page's stored size, as in :meth:`write`.
        """
        page_id = self._next_id
        self._next_id += 1
        self._pages[page_id] = payload
        if size is None:
            size = estimate_size(payload)
        self._page_sizes[page_id] = size
        self.stats.pages_allocated += 1
        if payload is not None:
            self.stats.writes += 1
            self.stats.bytes_written += size
        return page_id

    def free(self, page_id: int) -> None:
        """Release a page.  Reading it afterwards raises ``PageNotFoundError``."""
        if page_id not in self._pages:
            raise PageNotFoundError(page_id)
        del self._pages[page_id]
        del self._page_sizes[page_id]
        self.stats.pages_freed += 1

    # ------------------------------------------------------------------
    # reads / writes
    # ------------------------------------------------------------------
    def read(self, page_id: int, *, physical: bool = True) -> Any:
        """Read the payload stored on ``page_id``.

        ``physical=False`` records a logical read only; the buffer pool uses
        it for cache hits.
        """
        if page_id not in self._pages:
            raise PageNotFoundError(page_id)
        self.stats.logical_reads += 1
        if physical:
            self.stats.physical_reads += 1
        return self._pages[page_id]

    def write(self, page_id: int, payload: Any, *,
              size: Optional[int] = None) -> None:
        """Overwrite the payload of an existing page.

        ``size`` replaces ``estimate_size(payload)`` when the caller knows
        the page's stored size (array pages: bytes per entry times entries).
        """
        if page_id not in self._pages:
            raise PageNotFoundError(page_id)
        self._pages[page_id] = payload
        if size is None:
            size = estimate_size(payload)
        self._page_sizes[page_id] = size
        self.stats.writes += 1
        self.stats.bytes_written += size

    def contains(self, page_id: int) -> bool:
        """Return whether ``page_id`` is currently allocated."""
        return page_id in self._pages

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_pages(self) -> int:
        """Number of currently allocated pages."""
        return len(self._pages)

    def page_bytes(self, page_id: int) -> int:
        """Estimated size of the payload currently on ``page_id``."""
        if page_id not in self._page_sizes:
            raise PageNotFoundError(page_id)
        return self._page_sizes[page_id]

    def total_bytes(self) -> int:
        """Sum of the estimated sizes of all allocated pages."""
        return sum(self._page_sizes.values())

    def reset_stats(self) -> IOStats:
        """Reset counters, returning the statistics accumulated so far."""
        snapshot = self.stats.snapshot()
        self.stats.reset()
        return snapshot


@dataclass
class PagerGroup:
    """A named collection of pagers whose statistics can be read together.

    The benchmarks build several structures (R-tree, ranking cube, indexes)
    that each get their own pager so that per-structure sizes can be
    reported, while query-time disk accesses are summed across the group.
    """

    pagers: Dict[str, Pager] = field(default_factory=dict)

    def add(self, name: str, pager: Optional[Pager] = None,
            page_size: int = DEFAULT_PAGE_SIZE) -> Pager:
        """Register (or create) a pager under ``name`` and return it."""
        if pager is None:
            pager = Pager(page_size=page_size)
        self.pagers[name] = pager
        return pager

    def get(self, name: str) -> Pager:
        """Return the pager registered under ``name``."""
        return self.pagers[name]

    def total_physical_reads(self) -> int:
        """Total physical (cache-miss) reads across all member pagers."""
        return sum(p.stats.physical_reads for p in self.pagers.values())

    def total_bytes(self) -> int:
        """Total estimated materialized bytes across all member pagers."""
        return sum(p.total_bytes() for p in self.pagers.values())

    def reset_stats(self) -> None:
        """Reset statistics on every member pager."""
        for pager in self.pagers.values():
            pager.reset_stats()

"""LRU buffer pool over a :class:`repro.storage.pager.Pager`.

The paper's query-processing cost model distinguishes block accesses that
hit the buffer from those that require disk I/O (Section 3.3.2 buffers
retrieved pseudo blocks; Section 5.1.3 treats previously retrieved index
nodes as *redundant*).  The buffer pool makes this explicit: a read that
hits the pool is a logical read only, a miss is a physical read.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional

from repro.storage.pager import Pager


class BufferPool:
    """A fixed-capacity LRU page cache.

    Parameters
    ----------
    pager:
        Backing simulated disk.
    capacity:
        Maximum number of pages held in the pool.  ``capacity <= 0`` means
        "unbounded" (everything read stays cached), which models the
        in-memory index assumption of some baselines.
    """

    def __init__(self, pager: Pager, capacity: int = 256) -> None:
        self.pager = pager
        self.capacity = capacity
        self._cache: "OrderedDict[int, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def read(self, page_id: int) -> Any:
        """Read a page through the cache, counting a hit or a miss."""
        if page_id in self._cache:
            self.hits += 1
            self._cache.move_to_end(page_id)
            return self.pager.read(page_id, physical=False)
        self.misses += 1
        payload = self.pager.read(page_id, physical=True)
        self._insert(page_id, payload)
        return payload

    def write(self, page_id: int, payload: Any, *,
              size: Optional[int] = None) -> None:
        """Write through to the pager and refresh the cached copy.

        ``size`` is forwarded to :meth:`Pager.write`.
        """
        self.pager.write(page_id, payload, size=size)
        if page_id in self._cache or self.capacity <= 0 or len(self._cache) < self.capacity:
            self._insert(page_id, payload)

    def allocate(self, payload: Any = None, *,
                 size: Optional[int] = None) -> int:
        """Allocate a new page through the pager (``size`` as in
        :meth:`Pager.allocate`) and cache it."""
        page_id = self.pager.allocate(payload, size=size)
        self._insert(page_id, payload)
        return page_id

    def invalidate(self, page_id: Optional[int] = None) -> None:
        """Drop one page (or all pages when ``page_id`` is None) from the pool."""
        if page_id is None:
            self._cache.clear()
        else:
            self._cache.pop(page_id, None)

    def contains(self, page_id: int) -> bool:
        """Return whether ``page_id`` is currently cached."""
        return page_id in self._cache

    def _insert(self, page_id: int, payload: Any) -> None:
        self._cache[page_id] = payload
        self._cache.move_to_end(page_id)
        if self.capacity > 0:
            while len(self._cache) > self.capacity:
                self._cache.popitem(last=False)

    def reset_counters(self) -> None:
        """Zero the hit/miss counters without dropping cached pages."""
        self.hits = 0
        self.misses = 0

"""Storage substrate: simulated paged disk, buffer pool, relation, table scan.

Every structure that would live on disk in the paper's SQL-Server-based
prototype (cuboids, base-block tables, B+-trees, R-trees, signatures) is
stored as pages through a :class:`Pager`, so that the "disk access" metric
reported by the benchmarks is counted consistently across all competing
methods.
"""

from repro.storage.buffer import BufferPool
from repro.storage.pager import DEFAULT_PAGE_SIZE, IOStats, Pager, PagerGroup
from repro.storage.table import Relation, Schema

__all__ = [
    "BufferPool",
    "DEFAULT_PAGE_SIZE",
    "IOStats",
    "Pager",
    "PagerGroup",
    "Relation",
    "Schema",
]

"""Join-signatures: pruning empty joint states (Section 5.3).

For every non-leaf, non-empty joint state the join-signature records which
child coordinate combinations are non-empty.  State-signatures are stored as
pages (explicit coordinate sets for small states, Bloom filters for large
ones) and loaded on demand during query processing, each load counting one
disk access.  For merges of more than two indexes, a set of low-dimensional
(pairwise) join-signatures can substitute for the full one: a child state is
empty as soon as any pairwise signature says its projection is empty.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import SignatureError
from repro.paper.indexmerge.bloom import BloomFilter
from repro.storage.buffer import BufferPool
from repro.paper.hierindex import HierarchicalIndex
from repro.storage.pager import Pager

StateKey = Tuple[Tuple[int, ...], ...]
Coordinate = Tuple[int, ...]

#: Explicit coordinate sets larger than this are stored as Bloom filters.
_BLOOM_THRESHOLD = 2048


def leaf_paths(index: HierarchicalIndex) -> Dict[int, Tuple[int, ...]]:
    """``{tid: path of its leaf}``: a join-signature only needs the leaf
    node that holds a tuple, so the tuple path's last step (the 1-based
    slot inside the leaf) is dropped."""
    return {tid: path[:-1] for tid, path in index.iter_tuple_paths()}


@dataclass
class JoinSignatureStats:
    """Construction statistics (Figures 5.21–5.22)."""

    build_seconds: float = 0.0
    num_states: int = 0
    size_bytes: int = 0


class JoinSignature:
    """The join-signature of one specific combination of indexes."""

    def __init__(self, indexes: Sequence[HierarchicalIndex],
                 pager: Optional[Pager] = None, buffer_capacity: int = 512,
                 use_bloom: bool = True) -> None:
        if len(indexes) < 2:
            raise SignatureError("a join-signature needs at least two indexes")
        self.indexes: Tuple[HierarchicalIndex, ...] = tuple(indexes)
        self.pager = pager or Pager()
        self.buffer = BufferPool(self.pager, capacity=buffer_capacity)
        self.use_bloom = use_bloom
        self.stats = JoinSignatureStats()
        self._pages: Dict[StateKey, int] = {}
        self._build()

    # ------------------------------------------------------------------
    # construction (Section 5.3.2): tuple-oriented recursive grouping
    # ------------------------------------------------------------------
    def _build(self) -> None:
        start = time.perf_counter()
        per_index_paths: List[Dict[int, Tuple[int, ...]]] = [
            leaf_paths(index) for index in self.indexes
        ]
        common_tids = set(per_index_paths[0])
        for paths in per_index_paths[1:]:
            common_tids &= set(paths)

        signatures: Dict[StateKey, Set[Coordinate]] = {}
        max_depth = max(
            (len(paths[tid]) for paths in per_index_paths for tid in paths), default=0)
        for tid in common_tids:
            paths = [per_index_paths[i][tid] for i in range(len(self.indexes))]
            for level in range(max_depth):
                if all(level >= len(path) for path in paths):
                    break
                parent_key = tuple(path[:min(level, len(path))] for path in paths)
                coordinate = tuple(
                    path[level] if level < len(path) else 0 for path in paths)
                signatures.setdefault(parent_key, set()).add(coordinate)

        total_bytes = 0
        for key, coords in signatures.items():
            if self.use_bloom and len(coords) > _BLOOM_THRESHOLD:
                bloom = BloomFilter.sized_for(len(coords),
                                              max_bits=self.pager.page_size * 8)
                bloom.update(coords)
                payload = {"kind": "bloom", "filter": bloom}
                total_bytes += bloom.size_in_bits() // 8
            else:
                payload = {"kind": "set", "coords": frozenset(coords)}
                total_bytes += len(coords) * 2 * len(self.indexes)
            self._pages[key] = self.pager.allocate(payload)

        self.stats.build_seconds = time.perf_counter() - start
        self.stats.num_states = len(signatures)
        self.stats.size_bytes = total_bytes

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def has_state(self, key: StateKey) -> bool:
        """Whether a non-leaf state is known to be non-empty (no I/O)."""
        return key in self._pages

    def child_is_nonempty(self, parent_key: StateKey, coordinate: Coordinate) -> bool:
        """Whether the child at ``coordinate`` of ``parent_key`` may be non-empty.

        Loads the parent's state-signature page (one counted access, served
        by the buffer pool afterwards).  An unknown parent means the parent
        itself is empty, so every child is.
        """
        page_id = self._pages.get(parent_key)
        if page_id is None:
            return False
        payload = self.buffer.read(page_id)
        if payload["kind"] == "set":
            return coordinate in payload["coords"]
        return coordinate in payload["filter"]

    def size_in_bytes(self) -> int:
        """Materialized size of the join-signature."""
        return self.stats.size_bytes

    def num_states(self) -> int:
        """Number of stored state-signatures."""
        return self.stats.num_states


class JoinSignatureSet:
    """Prunes child states using one full or several low-dimensional signatures.

    ``signatures`` maps a tuple of index positions (e.g. ``(0, 1)``) to the
    :class:`JoinSignature` built over exactly those indexes.  The full
    m-way signature uses positions ``(0, 1, ..., m-1)``.
    """

    def __init__(self, signatures: Dict[Tuple[int, ...], JoinSignature]) -> None:
        if not signatures:
            raise SignatureError("at least one join-signature is required")
        self.signatures = dict(signatures)

    @classmethod
    def full(cls, indexes: Sequence[HierarchicalIndex], **kwargs) -> "JoinSignatureSet":
        """One m-way join-signature over every index."""
        positions = tuple(range(len(indexes)))
        return cls({positions: JoinSignature(indexes, **kwargs)})

    @classmethod
    def pairwise(cls, indexes: Sequence[HierarchicalIndex], **kwargs) -> "JoinSignatureSet":
        """All 2-way join-signatures (the low-dimensional substitute)."""
        signatures = {}
        for a, b in itertools.combinations(range(len(indexes)), 2):
            signatures[(a, b)] = JoinSignature([indexes[a], indexes[b]], **kwargs)
        return cls(signatures)

    def child_is_nonempty(self, parent_key: StateKey, coordinate: Coordinate) -> bool:
        """A child survives only if every member signature says it might."""
        for positions, signature in self.signatures.items():
            projected_key = tuple(parent_key[i] for i in positions)
            projected_coord = tuple(coordinate[i] for i in positions)
            if not signature.child_is_nonempty(projected_key, projected_coord):
                return False
        return True

    def state_is_known(self, key: StateKey) -> bool:
        """Whether a non-leaf state appears in every member signature."""
        for positions, signature in self.signatures.items():
            if not signature.has_state(tuple(key[i] for i in positions)):
                return False
        return True

    def total_physical_reads(self) -> int:
        """Page reads charged to signature loading."""
        return sum(s.pager.stats.physical_reads for s in self.signatures.values())

    def size_in_bytes(self) -> int:
        """Combined materialized size."""
        return sum(s.size_in_bytes() for s in self.signatures.values())

    def build_seconds(self) -> float:
        """Combined construction time."""
        return sum(s.stats.build_seconds for s in self.signatures.values())

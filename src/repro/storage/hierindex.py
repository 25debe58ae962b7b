"""Common interface for hierarchical (tree-structured) indexes.

Chapter 5 merges *indices* — B+-trees and R-trees alike — by working purely
on their hierarchical structure: every node occupies an axis-aligned region
that contains the regions of its children, and leaves hold ``(tid, values)``
entries.  Both index implementations in this package expose that structure
through :class:`HierarchicalIndex`, so the joint-state machinery, the
signature cube (Chapter 4), and the skyline engine (Chapter 7) are all
index-agnostic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.geometry import Box


@dataclass(frozen=True)
class NodeHandle:
    """A reference to one index node.

    ``path`` is the 1-based sequence of entry positions from the root down
    to this node (the thesis' *path*, Section 4.2.1); the root has the empty
    path.  Handles are cheap value objects — reading the node's children or
    entries goes back through the owning index (and is what costs I/O).
    """

    page_id: int
    box: Box
    is_leaf: bool
    level: int
    path: Tuple[int, ...] = ()

    @property
    def depth(self) -> int:
        """Number of edges from the root (root has depth 0)."""
        return len(self.path)


@dataclass(frozen=True)
class LeafEntry:
    """One data entry inside a leaf node: a tid plus its indexed values."""

    tid: int
    values: Tuple[float, ...]
    position: int


class HierarchicalIndex(ABC):
    """A tree-structured index over one or more ranking dimensions."""

    #: Ranking dimensions covered by this index, in value order.
    dims: Tuple[str, ...]

    @abstractmethod
    def root(self) -> NodeHandle:
        """Handle of the root node (does not count as a disk access)."""

    @abstractmethod
    def children(self, node: NodeHandle) -> List[NodeHandle]:
        """Child handles of an internal node, in stored (1-based path) order.

        Reading the children requires fetching the node's page and therefore
        counts one (possibly buffered) disk access.
        """

    @abstractmethod
    def leaf_entries(self, node: NodeHandle) -> List[LeafEntry]:
        """Data entries of a leaf node (fetches the leaf's page)."""

    @abstractmethod
    def height(self) -> int:
        """Number of levels, counting the root level as 1."""

    @abstractmethod
    def node_count(self) -> int:
        """Total number of nodes (pages) in the index."""

    # ------------------------------------------------------------------
    # derived helpers shared by all implementations
    # ------------------------------------------------------------------
    def max_fanout(self) -> int:
        """Upper bound on the number of entries per node."""
        raise NotImplementedError

    def iter_nodes(self) -> Iterator[NodeHandle]:
        """Depth-first iteration over every node, starting at the root."""
        stack = [self.root()]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(reversed(self.children(node)))

    def iter_tuple_paths(self) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        """Yield ``(tid, path)`` for every indexed tuple.

        The path of a tuple is the path of its leaf followed by its 1-based
        position inside the leaf — the representation the signature cubing
        algorithm sorts on (Section 4.2.1).
        """
        for node in self.iter_nodes():
            if node.is_leaf:
                for entry in self.leaf_entries(node):
                    yield entry.tid, node.path + (entry.position,)

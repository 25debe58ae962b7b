"""Joint states over multiple hierarchical indexes (Section 5.1.1).

A *joint state* combines one node from each merged index.  The root state
joins the index roots; the children of a state are the Cartesian product of
the children of its non-leaf member nodes (leaf members stay put).  A leaf
state joins only leaf nodes and is where tuples are actually merged: a tuple
is *contained* by a leaf state when it appears in every member leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import QueryError
from repro.functions.base import RankingFunction
from repro.geometry import Box
from repro.paper.hierindex import HierarchicalIndex, NodeHandle


@dataclass(frozen=True)
class JointState:
    """One joint state: a node handle per merged index."""

    nodes: Tuple[NodeHandle, ...]

    @property
    def is_leaf(self) -> bool:
        """True when every member node is a leaf (tuples can be merged here)."""
        return all(node.is_leaf for node in self.nodes)

    @property
    def key(self) -> Tuple[Tuple[int, ...], ...]:
        """Hashable identity: the member node paths (Section 5.3.1's key(S))."""
        return tuple(node.path for node in self.nodes)

    def box(self) -> Box:
        """Combined axis-aligned box over the union of the member dimensions."""
        combined = self.nodes[0].box
        for node in self.nodes[1:]:
            combined = combined.union_hull(node.box) if False else Box(
                {**{d: combined.interval(d) for d in combined.dims},
                 **{d: node.box.interval(d) for d in node.box.dims}})
        return combined

    def lower_bound(self, function: RankingFunction) -> float:
        """Lower bound of the ranking function over this state's region."""
        return function.lower_bound(self.box())

    def child_coordinates(self, child: "JointState") -> Tuple[int, ...]:
        """Per-index child positions of ``child`` relative to this state.

        A member node that did not branch (it was already a leaf) contributes
        the sentinel 0 — the same convention the join-signature uses.
        """
        coords: List[int] = []
        for parent_node, child_node in zip(self.nodes, child.nodes):
            if len(child_node.path) > len(parent_node.path):
                coords.append(child_node.path[-1])
            else:
                coords.append(0)
        return tuple(coords)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ",".join(str(node.path) for node in self.nodes)
        return f"JointState({parts})"


class MergeContext:
    """Shared plumbing for the index-merge algorithms.

    Holds the merged indexes, answers child-listing and leaf-merging
    requests (charging I/O through each index's buffer pool), and tracks the
    mapping from ranking-function dimensions to indexes.
    """

    def __init__(self, indexes: Sequence[HierarchicalIndex],
                 function: RankingFunction) -> None:
        if not indexes:
            raise QueryError("index merge requires at least one index")
        self.indexes: Tuple[HierarchicalIndex, ...] = tuple(indexes)
        self.function = function
        covered = set()
        for index in self.indexes:
            covered.update(index.dims)
        missing = [d for d in function.dims if d not in covered]
        if missing:
            raise QueryError(
                f"ranking dimensions {missing} are not covered by the merged indexes")
        self.states_generated = 0

    def root_state(self) -> JointState:
        """The joint root state."""
        return JointState(tuple(index.root() for index in self.indexes))

    def member_children(self, state: JointState, position: int) -> List[NodeHandle]:
        """Children of one member node (a leaf member yields itself)."""
        node = state.nodes[position]
        if node.is_leaf:
            return [node]
        return self.indexes[position].children(node)

    def all_member_children(self, state: JointState) -> List[List[NodeHandle]]:
        """Children of every member node, in index order."""
        return [self.member_children(state, i) for i in range(len(self.indexes))]

    def count_states(self, how_many: int = 1) -> None:
        """Record that ``how_many`` candidate states were generated."""
        self.states_generated += how_many

    def merge_leaf_state(self, state: JointState) -> Dict[int, Dict[str, float]]:
        """Tuples contained by a leaf state: ``{tid: {dim: value}}``.

        A tuple qualifies only if it appears in every member leaf; its merged
        values combine the per-index leaf entries.
        """
        if not state.is_leaf:
            raise QueryError("only leaf states can be merged")
        merged: Optional[Dict[int, Dict[str, float]]] = None
        for index, node in zip(self.indexes, state.nodes):
            entries = index.leaf_entries(node)
            local = {
                entry.tid: dict(zip(index.dims, entry.values)) for entry in entries
            }
            if merged is None:
                merged = local
            else:
                merged = {
                    tid: {**merged[tid], **values}
                    for tid, values in local.items()
                    if tid in merged
                }
            if not merged:
                return {}
        return merged or {}

    def score(self, values: Dict[str, float]) -> float:
        """Evaluate the ranking function on merged tuple values."""
        return self.function.evaluate([values[d] for d in self.function.dims])

    def total_physical_reads(self) -> int:
        """Physical page reads accumulated by every merged index."""
        total = 0
        for index in self.indexes:
            pager = getattr(index, "pager", None)
            if pager is not None:
                total += pager.stats.physical_reads
        return total

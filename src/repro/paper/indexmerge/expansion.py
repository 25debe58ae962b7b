"""Progressive child-state generation: ``S.get_next`` (Section 5.2).

Fully expanding a joint state materializes up to ``prod(fanout_i)`` child
states, most of which are never examined.  The expanders below generate
child states one at a time, best-first:

* :class:`ThresholdExpander` — the general strategy (Section 5.2.3): the
  child entries of every member node are sorted by their individual best
  contribution ``f'``, and a sort-merge style frontier generates Cartesian
  products lazily until the next best child is provably found.
* :class:`NeighborhoodExpander` — for monotone / semi-monotone functions
  over totally ordered (B+-tree) indexes (Section 5.2.2): children start at
  the per-index entries closest to the function's minimizer and expand to
  +1 neighbors, with a visited set to suppress duplicates.

Both honour an optional empty-state pruner (the join-signature) so that
pruned children are never emitted.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Sequence, Set, Tuple

from repro.functions.base import FunctionShape
from repro.paper.indexmerge.state import JointState, MergeContext
from repro.paper.btree import BPlusTree
from repro.paper.hierindex import NodeHandle

#: Callable deciding whether a child (parent key, coordinate) may be non-empty.
EmptyStatePruner = Callable[[JointState, JointState], bool]


class StateExpander:
    """Base class: iterate a state's children in non-decreasing bound order."""

    def __init__(self, context: MergeContext, parent: JointState,
                 pruner: Optional[EmptyStatePruner] = None) -> None:
        self.context = context
        self.parent = parent
        self.pruner = pruner
        self._local_heap: List[Tuple[float, int, JointState]] = []
        self._counter = 0

    # -- subclass hooks -----------------------------------------------
    def _refill(self, required_bound: Optional[float]) -> None:
        """Generate more candidates into the local heap (subclass specific)."""
        raise NotImplementedError

    # -- shared plumbing -------------------------------------------------
    def _push(self, state: JointState) -> None:
        if self.pruner is not None and not self.pruner(self.parent, state):
            return
        self._counter += 1
        self.context.count_states()
        heapq.heappush(self._local_heap,
                       (state.lower_bound(self.context.function), self._counter, state))

    def peek_bound(self) -> Optional[float]:
        """Bound of the next child that :meth:`get_next` would return."""
        self._refill(None)
        if not self._local_heap:
            return None
        return self._local_heap[0][0]

    def get_next(self) -> Optional[JointState]:
        """The next best unreturned child state, or None when exhausted."""
        self._refill(None)
        if not self._local_heap:
            return None
        _, _, state = heapq.heappop(self._local_heap)
        return state

    @property
    def pending(self) -> int:
        """Number of generated-but-unreturned child states."""
        return len(self._local_heap)


class FullExpander(StateExpander):
    """Eagerly generates every child state (the baseline of Algorithm 4)."""

    def __init__(self, context: MergeContext, parent: JointState,
                 pruner: Optional[EmptyStatePruner] = None) -> None:
        super().__init__(context, parent, pruner)
        self._done = False

    def _refill(self, required_bound: Optional[float]) -> None:
        if self._done:
            return
        self._done = True
        children_lists = self.context.all_member_children(self.parent)
        for combo in itertools.product(*children_lists):
            self._push(JointState(tuple(combo)))


class ThresholdExpander(StateExpander):
    """Sort-merge (threshold) progressive expansion (Section 5.2.3)."""

    def __init__(self, context: MergeContext, parent: JointState,
                 pruner: Optional[EmptyStatePruner] = None) -> None:
        super().__init__(context, parent, pruner)
        self._children: Optional[List[List[NodeHandle]]] = None
        self._sorted_bounds: List[List[float]] = []
        self._positions: List[int] = []
        self._exhausted = False

    def _load_children(self) -> None:
        if self._children is not None:
            return
        raw = self.context.all_member_children(self.parent)
        self._children = []
        for member_index, entries in enumerate(raw):
            scored = []
            for entry in entries:
                bound = self._member_bound(member_index, entry)
                scored.append((bound, entry))
            scored.sort(key=lambda pair: pair[0])
            self._children.append([entry for _, entry in scored])
            self._sorted_bounds.append([bound for bound, _ in scored])
        # Seed with the state joining every member's best entry.
        seed = JointState(tuple(entries[0] for entries in self._children))
        self._push(seed)
        self._positions = [1 if len(entries) > 1 else len(entries)
                           for entries in self._children]

    def _member_bound(self, member_index: int, entry: NodeHandle) -> float:
        """``f'(e)``: the bound with one member node replaced by ``entry``."""
        nodes = list(self.parent.nodes)
        nodes[member_index] = entry
        return JointState(tuple(nodes)).lower_bound(self.context.function)

    def _threshold(self) -> float:
        best = float("inf")
        for bounds, position in zip(self._sorted_bounds, self._positions):
            if position < len(bounds):
                best = min(best, bounds[position])
        return best

    def _refill(self, required_bound: Optional[float]) -> None:
        self._load_children()
        while not self._exhausted:
            top = self._local_heap[0][0] if self._local_heap else float("inf")
            threshold = self._threshold()
            if top <= threshold:
                return
            # Advance the member whose next entry has the smallest f'.
            advance = -1
            best = float("inf")
            for i, (bounds, position) in enumerate(zip(self._sorted_bounds, self._positions)):
                if position < len(bounds) and bounds[position] < best:
                    best = bounds[position]
                    advance = i
            if advance < 0:
                self._exhausted = True
                return
            position = self._positions[advance]
            prefix_lists = [
                entries[: self._positions[i]] if i != advance else [entries[position]]
                for i, entries in enumerate(self._children)
            ]
            for combo in itertools.product(*prefix_lists):
                self._push(JointState(tuple(combo)))
            self._positions[advance] += 1


class NeighborhoodExpander(StateExpander):
    """Neighborhood expansion for (semi-)monotone functions over B+-trees."""

    def __init__(self, context: MergeContext, parent: JointState,
                 pruner: Optional[EmptyStatePruner] = None) -> None:
        super().__init__(context, parent, pruner)
        self._children: Optional[List[List[NodeHandle]]] = None
        self._visited: Set[Tuple[int, ...]] = set()
        self._frontier: List[Tuple[float, Tuple[int, ...]]] = []

    def _load_children(self) -> None:
        if self._children is not None:
            return
        raw = self.context.all_member_children(self.parent)
        self._children = []
        for member_index, entries in enumerate(raw):
            scored = []
            for entry in entries:
                nodes = list(self.parent.nodes)
                nodes[member_index] = entry
                scored.append(
                    (JointState(tuple(nodes)).lower_bound(self.context.function), entry))
            scored.sort(key=lambda pair: pair[0])
            self._children.append([entry for _, entry in scored])
        start = tuple(0 for _ in self._children)
        self._enqueue(start)

    def _state_at(self, coords: Tuple[int, ...]) -> JointState:
        return JointState(tuple(
            entries[coord] for entries, coord in zip(self._children, coords)))

    def _enqueue(self, coords: Tuple[int, ...]) -> None:
        if coords in self._visited:
            return
        self._visited.add(coords)
        state = self._state_at(coords)
        self._push(state)
        heapq.heappush(
            self._frontier,
            (state.lower_bound(self.context.function), coords))

    def _refill(self, required_bound: Optional[float]) -> None:
        self._load_children()
        # Expand coordinate neighbors until the local heap's best is at least
        # as good as the best unexpanded frontier coordinate.
        while self._frontier:
            frontier_bound, coords = self._frontier[0]
            heap_bound = self._local_heap[0][0] if self._local_heap else float("inf")
            if self._local_heap and heap_bound <= frontier_bound and required_bound is None:
                return
            heapq.heappop(self._frontier)
            for axis in range(len(coords)):
                if coords[axis] + 1 < len(self._children[axis]):
                    neighbor = list(coords)
                    neighbor[axis] += 1
                    self._enqueue(tuple(neighbor))


def choose_expander(context: MergeContext, parent: JointState,
                    pruner: Optional[EmptyStatePruner] = None,
                    progressive: bool = True) -> StateExpander:
    """Pick the expansion strategy for one state.

    The baseline (``progressive=False``) always fully expands.  Progressive
    mode uses neighborhood expansion for (semi-)monotone functions merged
    over B+-trees (where child entries are totally ordered) and threshold
    expansion everywhere else.
    """
    if not progressive:
        return FullExpander(context, parent, pruner)
    shape = context.function.shape
    all_btrees = all(isinstance(index, BPlusTree) for index in context.indexes)
    if all_btrees and shape in (FunctionShape.MONOTONE, FunctionShape.SEMI_MONOTONE):
        return NeighborhoodExpander(context, parent, pruner)
    return ThresholdExpander(context, parent, pruner)

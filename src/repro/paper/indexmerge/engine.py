"""Index-merge query processing (Algorithms 4 and 5).

Three configurations, matching the evaluation of Section 5.4:

* ``BL`` — the basic index-merge of Algorithm 4: a single global heap, full
  expansion of each examined state.
* ``PE`` — progressive expansion with the double-heap Algorithm 5: each
  examined state hands out its children one at a time through a local
  expander (threshold or neighborhood expansion).
* ``PE+SIG`` — progressive expansion plus join-signature pruning of empty
  states (selective merge, Section 5.3).
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cube.query import TopKAccumulator
from repro.functions.base import RankingFunction
from repro.paper.indexmerge.expansion import StateExpander, choose_expander
from repro.paper.indexmerge.join_signature import JoinSignatureSet
from repro.paper.indexmerge.state import JointState, MergeContext
from repro.query import QueryResult
from repro.paper.hierindex import HierarchicalIndex

#: Valid execution modes.
MODE_BASELINE = "BL"
MODE_PROGRESSIVE = "PE"
MODE_SELECTIVE = "PE+SIG"
MODES = (MODE_BASELINE, MODE_PROGRESSIVE, MODE_SELECTIVE)


class IndexMergeTopK:
    """Top-k over the joint state space of several hierarchical indexes."""

    def __init__(self, indexes: Sequence[HierarchicalIndex],
                 mode: str = MODE_SELECTIVE,
                 join_signatures: Optional[JoinSignatureSet] = None) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if mode == MODE_SELECTIVE and join_signatures is None:
            raise ValueError("PE+SIG mode requires join signatures")
        self.indexes = tuple(indexes)
        self.mode = mode
        self.join_signatures = join_signatures

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------
    def query(self, function: RankingFunction, k: int) -> QueryResult:
        """Find the k tuples minimizing ``function`` across the merged indexes."""
        start = time.perf_counter()
        context = MergeContext(self.indexes, function)
        io_before = context.total_physical_reads()
        sig_io_before = (self.join_signatures.total_physical_reads()
                         if self.join_signatures else 0)

        pruner = None
        if self.mode == MODE_SELECTIVE and self.join_signatures is not None:
            signatures = self.join_signatures

            def pruner(parent: JointState, child: JointState) -> bool:
                coordinate = parent.child_coordinates(child)
                return signatures.child_is_nonempty(parent.key, coordinate)

        progressive = self.mode != MODE_BASELINE
        topk = TopKAccumulator(k)
        retrieved_leaves: set = set()
        counter = 0
        peak_heap = 0
        examined = 0

        root = context.root_state()
        context.count_states()
        # Global heap entries: (bound, counter, state, expander or None).
        g_heap: List[Tuple[float, int, JointState, Optional[StateExpander]]] = [
            (root.lower_bound(function), counter, root, None)]

        while g_heap:
            local_pending = sum(
                entry[3].pending for entry in g_heap if entry[3] is not None)
            peak_heap = max(peak_heap, len(g_heap) + local_pending)
            bound, _, state, expander = heapq.heappop(g_heap)
            # Strict halt: a state whose bound ties the k-th score may still
            # yield a tied tuple with a smaller tid, which the canonical
            # (score, tid) order must admit.
            if topk.is_full() and topk.kth_score < bound:
                break

            if state.is_leaf:
                if state.key in retrieved_leaves:
                    continue
                retrieved_leaves.add(state.key)
                examined += 1
                for tid, values in context.merge_leaf_state(state).items():
                    topk.offer(tid, context.score(values))
                continue

            if expander is None:
                if (self.mode == MODE_SELECTIVE and self.join_signatures is not None
                        and not self.join_signatures.state_is_known(state.key)):
                    # The state slipped through a Bloom-filter false positive:
                    # it is actually empty, so drop it without expanding.
                    continue
                examined += 1
                expander = choose_expander(context, state, pruner=pruner,
                                           progressive=progressive)

            child = expander.get_next()
            if child is not None:
                counter += 1
                heapq.heappush(
                    g_heap, (child.lower_bound(function), counter, child, None))
            next_bound = expander.peek_bound()
            if next_bound is not None:
                counter += 1
                heapq.heappush(g_heap, (next_bound, counter, state, expander))

        elapsed = time.perf_counter() - start
        disk = context.total_physical_reads() - io_before
        sig_io = ((self.join_signatures.total_physical_reads() - sig_io_before)
                  if self.join_signatures else 0)
        ranked = topk.ranked()
        return QueryResult(
            tids=tuple(tid for tid, _ in ranked),
            scores=tuple(score for _, score in ranked),
            disk_accesses=disk + sig_io,
            states_generated=context.states_generated,
            peak_heap_size=peak_heap,
            tuples_evaluated=examined,
            elapsed_seconds=elapsed,
            extra={"index_accesses": float(disk), "signature_accesses": float(sig_io),
                   "states_examined": float(examined)},
        )

    def top_k(self, function: RankingFunction, k: int) -> QueryResult:
        """Alias of :meth:`query`."""
        return self.query(function, k)

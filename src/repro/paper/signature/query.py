"""Branch-and-bound query processing with boolean pruning (Algorithm 3).

The executor walks the R-tree best-first on the ranking function's lower
bounds and consults the (lazily loaded) signatures to skip any node or leaf
entry whose subtree contains no tuple satisfying the boolean predicate.
Because leaf-entry signature bits are exact, results need no further
boolean verification.

One traversal, :meth:`SignatureTopKExecutor.query_batch`, serves a group of
one or more same-function queries; ``query`` is that traversal over a group
of one, so what a query reports having read does not depend on the door it
came through.
"""

from __future__ import annotations

import heapq
import time
from typing import List, Optional, Tuple

from repro.cube.query import TopKAccumulator
from repro.query import Predicate, QueryResult, TopKQuery
from repro.paper.signature.cube import SignatureRankingCube


class _TraversalState:
    """Book-keeping of one query inside a branch-and-bound traversal."""

    __slots__ = ("reader", "topk", "live", "nodes", "charged", "peak")

    def __init__(self, reader, k: int) -> None:
        self.reader = reader
        self.topk = TopKAccumulator(k)
        self.live = True
        #: Nodes expanded while this query was live and the node reachable
        #: for it — its logical share of the traversal.
        self.nodes = 0
        #: Nodes attributed to this query (each expanded node is charged to
        #: exactly one consumer, so the group's charges sum to the work).
        self.charged = 0
        self.peak = 0


class SignatureTopKExecutor:
    """Runs top-k queries against a :class:`SignatureRankingCube`."""

    def __init__(self, cube: SignatureRankingCube) -> None:
        self.cube = cube
        self.relation = cube.relation
        self.rtree = cube.rtree

    def query(self, query: TopKQuery) -> QueryResult:
        """One query: :meth:`query_batch` over a group of one."""
        return self.query_batch([query])[0]

    def query_batch(self, queries) -> List[QueryResult]:
        """Algorithm 3 over a same-function group, in one root-to-leaf traversal.

        Ranking pruning is shared, signature boolean pruning is per query.
        Every query must rank by the same function (by value); predicates
        and ``k`` differ freely.  A single best-first heap drives the
        traversal; each heap entry carries the queries for which the node
        is *reachable* (every ancestor passed that query's signature test
        and could still beat its k-th score).  A node is expanded once for
        the whole group, its child bounds and leaf-entry scores are
        computed once, and each query consumes only the entries its own
        signatures admit.

        A group's answers are bit-identical to running its members one by
        one: leaf-entry signature bits are exact, so every entry fed to a
        query is a true match, and the per-query pruning rules (signature
        test, strict k-th-score bound) only ever drop nodes whose subtree
        provably cannot contribute — a query's fed set is therefore a
        superset of what it would be fed alone that still contains only
        matches, which yields the same canonical ``(score, tid)`` top-k.

        Accounting mirrors the grid sweep: ``tuples_evaluated`` (= nodes)
        is the attributed share of the shared traversal, the count the
        query would reach alone lands in ``extra["tuples_evaluated"]``
        (groups of two or more only — alone it is the field itself), and
        the pages the traversal read, the root signature tests included,
        are attributed to the first result.
        """
        queries = list(queries)
        if not queries:
            return []
        start = time.perf_counter()
        rtree_io_before = self.rtree.pager.stats.physical_reads
        sig_io_before = self.cube.store.pager.stats.physical_reads

        function = queries[0].function
        dims = self.rtree.dims
        dim_positions = [dims.index(d) for d in function.dims]

        states: List[_TraversalState] = []
        for query in queries:
            query.validate(self.relation)
            states.append(_TraversalState(
                self.cube.signature_reader(query.predicate), query.k))

        root = self.rtree.root()
        for state in states:
            if state.reader is not None and not state.reader.test(()):
                state.live = False  # provably no match anywhere
        initial = tuple(state for state in states if state.live)
        live = len(initial)

        counter = 0
        peak_heap = 0
        heap: List[Tuple[float, int, object, Tuple[_TraversalState, ...]]] = [
            (function.lower_bound(root.box), counter, root, initial)]
        while heap:
            if len(heap) > peak_heap:
                peak_heap = len(heap)
            bound = heap[0][0]
            for state in initial:
                # Strict per-query halt: every node still reachable for the
                # query bounds at least the heap minimum, so once that
                # minimum exceeds its k-th score (+inf until k tuples are
                # held) the query is finished.  Strict, here and below: a
                # node whose bound equals the k-th score may hold a tied
                # tuple with a smaller tid, which the canonical
                # (score, tid) order must admit.
                if state.live and state.topk.kth_score < bound:
                    state.live = False
                    state.peak = peak_heap
                    live -= 1
            if not live:
                break
            _, _, node, active = heapq.heappop(heap)
            consumers = [state for state in active if state.live]
            if not consumers:
                continue
            consumers[0].charged += 1
            for state in consumers:
                state.nodes += 1
            if node.is_leaf:
                feeds = [(state.reader, state.topk) for state in consumers]
                # The leaf page as stored (the one counted read
                # ``leaf_entries`` makes), walked in entry order.
                _, tids, points, _ = self.rtree.node_arrays(node.page_id)
                for position, (tid, values) in enumerate(
                        zip(tids.tolist(), points.tolist()), start=1):
                    entry_path = node.path + (position,)
                    score: Optional[float] = None
                    for reader, topk in feeds:
                        if reader is not None and not reader.test(entry_path):
                            continue
                        if score is None:
                            score = function.evaluate(
                                [values[i] for i in dim_positions])
                        topk.offer(tid, score)
            else:
                for child in self.rtree.children(node):
                    child_bound: Optional[float] = None
                    child_active: List[_TraversalState] = []
                    for state in consumers:
                        if (state.reader is not None
                                and not state.reader.test(child.path)):
                            continue
                        if child_bound is None:
                            child_bound = function.lower_bound(child.box)
                        if child_bound > state.topk.kth_score:
                            continue
                        child_active.append(state)
                    if child_active:
                        counter += 1
                        heapq.heappush(heap, (child_bound, counter, child,
                                              tuple(child_active)))

        rtree_io = self.rtree.pager.stats.physical_reads - rtree_io_before
        sig_io = self.cube.store.pager.stats.physical_reads - sig_io_before
        elapsed = time.perf_counter() - start
        results: List[QueryResult] = []
        for position, state in enumerate(states):
            if state.live:
                state.peak = peak_heap
            ranked = state.topk.ranked()
            first = position == 0
            extra = {"rtree_accesses": float(rtree_io) if first else 0.0,
                     "signature_accesses": float(sig_io) if first else 0.0}
            if len(states) > 1:
                extra["tuples_evaluated"] = float(state.nodes)
            results.append(QueryResult(
                tids=tuple(tid for tid, _ in ranked),
                scores=tuple(score for _, score in ranked),
                disk_accesses=(rtree_io + sig_io) if first else 0,
                states_generated=state.nodes,
                peak_heap_size=state.peak,
                tuples_evaluated=state.charged,
                elapsed_seconds=elapsed,
                extra=extra,
            ))
        return results

    def top_k(self, predicate: Predicate, function, k: int) -> QueryResult:
        """Convenience wrapper."""
        return self.query(TopKQuery(predicate=predicate, function=function, k=k))

"""Grid ranking-cube query algorithm: neighborhood search (Section 3.3).

The executor follows the four steps of the thesis — pre-process, search,
retrieve, evaluate — and the expansion rule of Lemma 1: starting from the
base block that contains the ranking function's minimizer, candidate blocks
are explored in increasing order of their lower-bound score, each expansion
adding the block's grid neighbors to the frontier.  The search halts once
the current k-th best seen score strictly beats the best possible score of
any unexplored block (``S_k < S_unseen``; blocks whose bound ties ``S_k``
are still examined so the canonical (score, tid) tie-break sees every
candidate).

One sweep, :meth:`GridTopKExecutor.execute_fused`, serves a group of one or
more same-function queries; a lone query is its group of one.
The halt test reads the k-th score once per popped block, so each query's
:class:`TopKAccumulator` holds its best k as one sorted array and merges a
block's survivors into it with one stable sort.
"""

from __future__ import annotations

import functools
import heapq
import math
import time
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cube.blocktable import BaseBlockTable
from repro.cube.providers import CellProvider
from repro.errors import QueryError
from repro.functions.base import RankingFunction
from repro.partition.grid import GridPartition
from repro.query import QueryResult


class TopKAccumulator:
    """The best (smallest-score) k tuples seen, kept as one sorted run.

    The retained set is the minimal k under the canonical
    :func:`repro.query.topk_order_key` order ``(score, tid)`` — ties at the
    k-th position are broken by tuple id, not by arrival order, so every
    engine (and every shard merge) that feeds the same scored tuples ends
    with the same answer list.

    The kept tuples are one ``complex128`` array in that order, whose real
    and imaginary parts are two aligned arrays: the scores (bit for bit,
    ``-0.0`` included) and the tids (exact as doubles below 2**53).  NumPy
    orders complex numbers by real part, then imaginary part, so the
    canonical order is the array's own sort order.  An offer only appends
    what passes the cut ``score <= kth`` (``<=``: a tie with the k-th score
    still enters on a smaller tid).  The first read after it merges
    everything appended into the kept run with one stable sort — NumPy's
    timsort, a merge of sorted runs — and truncates to k.  The grid sweep
    reads once per popped block, so the kept set is made exact once per
    block, never per tuple.
    """

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise QueryError("k must be positive")
        self.k = k
        #: The best k so far as ``score + tid*1j``, ascending.
        self._kept = np.empty(0, dtype=np.complex128)
        #: The k-th kept score, ``+inf`` until k tuples are kept.
        self._kth = float("inf")
        #: Offers since the last read: bulk survivors as pair arrays,
        #: scalar ones as two lists.
        self._added: List[np.ndarray] = []
        self._tids: List[int] = []
        self._scores: List[float] = []
        #: :meth:`ordered`'s answer, until the next merge.
        self._ordered: Optional[Tuple[List[int], List[float]]] = None

    def offer(self, tid: int, score: float) -> None:
        """Consider one scored tuple."""
        if score <= self._kth:
            self._tids.append(tid)
            self._scores.append(score)

    def offer_many(self, tids: np.ndarray, scores: np.ndarray) -> None:
        """Consider aligned arrays of scored tuples: :meth:`offer` in bulk.

        The retained set is the k best under ``(score, tid)`` whatever the
        arrival order, so the outcome is that of offering every tuple one
        by one.
        """
        keep = scores <= self._kth
        count = np.count_nonzero(keep)
        if count:
            pairs = _pairs(tids, scores)
            self._added.append(pairs if count == len(pairs) else pairs[keep])

    def _merged(self) -> np.ndarray:
        """The kept run, with every offer since the last read merged in."""
        if self._added or self._tids:
            if self._tids:
                self._added.append(_pairs(self._tids, self._scores))
                self._tids, self._scores = [], []
            # The first offers are the accumulator's own fresh array.
            merged = (self._added[0] if not len(self._kept) and len(self._added) == 1
                      else np.concatenate([self._kept, *self._added]))
            merged.sort(kind="stable")
            if len(merged) >= self.k:
                merged = merged[:self.k]
                self._kth = merged.item(-1).real
            self._kept = merged
            self._added = []
            self._ordered = None
        return self._kept

    @property
    def kth_score(self) -> float:
        """Current k-th best score (``+inf`` until k tuples have been seen)."""
        if self._added or self._tids:
            self._merged()
        return self._kth

    def is_full(self) -> bool:
        """Whether k tuples have been collected."""
        return len(self._merged()) == self.k

    def ordered(self) -> Tuple[List[int], List[float]]:
        """The retained ``(tids, scores)``, two aligned lists in canonical
        ``(score, tid)`` order — the caller's to read, not to change."""
        kept = self._merged()
        if self._ordered is None:
            self._ordered = (kept.imag.astype(np.int64).tolist(),
                             kept.real.tolist())
        return self._ordered

    def ranked(self) -> List[Tuple[int, float]]:
        """``(tid, score)`` pairs in canonical ``(score, tid)`` order."""
        return list(zip(*self.ordered()))

    def verified_count(self, bound: float) -> int:
        """Length of the ranked prefix that is final given ``bound``.

        ``bound`` is a lower bound on every score not yet offered (the
        frontier minimum during a sweep).  An entry with score strictly
        below it can neither be displaced (later tuples score no better
        than ``bound``, so they rank behind it and evict only the tail)
        nor be preceded by an unseen tuple — so the entries below the
        bound form a prefix of the final answer, in final rank order.
        Strictness matters: a retained score *equal* to the bound could
        still be preceded by an unseen tie with a smaller tid under the
        canonical ``(score, tid)`` order, exactly the reason the sweep's
        halt test is strict too.
        """
        return int(self._merged().real.searchsorted(bound))

    def __len__(self) -> int:
        return len(self._merged())


def _pairs(tids, scores) -> np.ndarray:
    """Aligned tids and scores as :class:`TopKAccumulator`'s pair array."""
    pairs = np.empty(len(tids), dtype=np.complex128)
    pairs.real, pairs.imag = scores, tids
    return pairs


def find_start_block(grid: GridPartition, function: RankingFunction) -> int:
    """Base block containing the function's minimizer over the grid domain.

    Semi-monotone functions report their minimum point directly (a
    coordinate outside the domain lands in the edge bin its clamp would);
    for other (convex) functions the first lowest-scoring domain corner of
    :meth:`~repro.partition.grid.GridPartition.corner_bids` is used, which
    is exact for linear functions and a sound starting point in general.
    """
    minimum = function.minimum_point()
    if minimum is not None:
        return grid.bid_of_point({**dict.fromkeys(grid.dims, -math.inf), **minimum})
    best_bid, best_score = 0, math.inf
    for values, bid in grid.corner_bids(function.dims):
        score = function.evaluate(values)
        if score < best_score:
            best_bid, best_score = bid, score
    return best_bid


def _rows_of(block_tids: np.ndarray, tids: np.ndarray):
    """Rows of ``tids`` on a base-block page, and the tids the page holds.

    Both arrays ascend, so a row is one ``searchsorted``; a tid the page
    does not hold is dropped.  The unfiltered provider hands out the
    page's own array, recognised by identity: every row, in page order.
    """
    if tids is block_tids:
        return slice(None), tids
    rows = block_tids.searchsorted(tids)
    held = block_tids.take(rows, mode="clip") == tids
    if not held.all():
        rows, tids = rows[held], tids[held]
    return rows, tids


class _SweepState:
    """Book-keeping of one query inside a frontier sweep."""

    __slots__ = ("provider", "topk", "on_progress", "emitted", "live",
                 "blocks", "tuples", "charged", "peak")

    def __init__(self, provider: CellProvider, k: int, on_progress) -> None:
        self.provider = provider
        self.topk = TopKAccumulator(k)
        self.on_progress = on_progress
        #: Ranks already streamed to ``on_progress``.
        self.emitted = 0
        self.live = True
        #: Blocks popped while live (``states_generated``) and the frontier's
        #: peak up to then (``peak_heap_size``), set when the query retires.
        self.blocks = self.peak = 0
        #: Tuples this query consumed (fed to its accumulator) — what it
        #: would evaluate running alone.
        self.tuples = 0
        #: Unique scoring work attributed to this query: each tuple scored
        #: by the sweep is charged to exactly one consumer, so the group's
        #: charges sum to the tuples actually evaluated.
        self.charged = 0


class GridTopKExecutor:
    """Runs top-k queries against a grid ranking cube.

    ``bound_cache`` is an optional per-(function, block) lower-bound cache
    (duck-typed: anything with ``lower_bound(grid, function, bid)``, see
    :class:`repro.engine.cache.LowerBoundCache`).  It is consulted only for
    a function without
    :meth:`~repro.functions.base.RankingFunction.lower_bound_batch`
    (expression trees, constrained functions, user subclasses): the others
    bound every block of the grid in one call per sweep.
    """

    def __init__(self, grid: GridPartition, block_table: BaseBlockTable,
                 bound_cache=None) -> None:
        self.grid = grid
        self.block_table = block_table
        self.bound_cache = bound_cache

    def _block_bound(self, function: RankingFunction, bid: int) -> float:
        if self.bound_cache is not None:
            return self.bound_cache.lower_bound(self.grid, function, bid)
        return function.lower_bound(self.grid.block_box(bid))

    def execute_fused(self, function: RankingFunction,
                      requests: Sequence[Tuple[CellProvider, int]],
                      on_progress: Optional[Sequence] = None,
                      ) -> List[QueryResult]:
        """The neighborhood search of Section 3.3.2, for a same-function group.

        ``requests`` pairs each query's cell provider with its ``k``; every
        query must rank by ``function`` (the engine groups batches by the
        function's canonical value key, so value-equal function objects
        share one sweep).  The frontier's evolution — which blocks are
        popped and expanded, in which order — depends only on the function
        and the grid geometry, never on a predicate or ``k``, so the sweep
        a query would make alone is exactly a prefix of the group's.  Each
        query keeps its own accumulator and *retires* at the frontier state
        where that prefix ends (k-th score strictly beats the best unseen
        bound); each popped block's union of needed tuples is scored once
        with :meth:`~repro.functions.base.RankingFunction.evaluate_batch`
        and fed to every live accumulator that asked for them.  A group's
        answers are bit-identical to running its members one by one; the
        shared scoring work is the saving.

        Per-result accounting: ``tuples_evaluated`` is each query's
        *attributed* share of the unique scoring work (a row scored once
        for three queries is charged to the first of them, by a per-block
        boolean mask of the rows already charged), so summing
        the group's results counts shared work once.  What the query would
        evaluate alone lands in ``extra["tuples_evaluated"]`` — recorded
        only for groups of two or more, for a lone query it is the field
        itself; ``states_generated`` / ``peak_heap_size`` are per query,
        and the sweep's disk accesses are attributed to the first result.

        ``on_progress`` holds one callback or ``None`` per request and
        streams that query's verified prefixes while the sweep runs:
        whenever the frontier minimum rises above more of its accumulator,
        the newly finalized ranks leave as ``callback(start_rank, [(tid,
        score), ...])`` — bit-identical to the same positions of the final
        answer (see :meth:`TopKAccumulator.verified_count`).  A callback
        runs on the sweep's thread and must be cheap; ``None`` costs one
        comparison per frontier state.
        """
        for dim in function.dims:
            if dim not in self.grid.dims:
                raise QueryError(
                    f"ranking dimension {dim!r} is not covered by the grid partition")
        start_time = time.perf_counter()
        pagers = {id(self.block_table.pager): self.block_table.pager}
        states: List[_SweepState] = []
        for (provider, k), callback in zip(
                requests, on_progress or [None] * len(requests)):
            provider.reset()
            for sub in getattr(provider, "providers", [provider]):
                cuboid = getattr(sub, "cuboid", None)
                if cuboid is not None:
                    pagers[id(cuboid.pager)] = cuboid.pager
            states.append(_SweepState(provider, k, callback))
        io_before = {key: p.stats.physical_reads for key, p in pagers.items()}

        dim_index = [self.grid.dims.index(d) for d in function.dims]
        whole_grid = dim_index == list(range(len(self.grid.dims)))
        # Lemma 1's bound of every block, as one vector per sweep.  A
        # function that cannot bound boxes in bulk derives the blocks the
        # frontier touches one at a time.
        lows, highs = self.grid.block_corners()
        if not whole_grid:
            lows, highs = lows[:, dim_index], highs[:, dim_index]
        bounds = function.lower_bound_batch(lows, highs)
        bound_of = (bounds.item if bounds is not None
                    else functools.partial(self._block_bound, function))

        start_bid = find_start_block(self.grid, function)
        frontier: List[Tuple[float, int]] = [(bound_of(start_bid), start_bid)]
        inserted: Set[int] = {start_bid}
        live = len(states)
        popped = peak_frontier = 0

        heappush, heappop = heapq.heappush, heapq.heappop
        block_arrays, evaluate = self.block_table.block_arrays, function.evaluate_batch
        neighbors_of = self.grid.neighbors
        while frontier and live:
            if len(frontier) > peak_frontier:
                peak_frontier = len(frontier)
            unseen_score, bid = frontier[0]
            needs: List[Tuple[_SweepState, np.ndarray]] = []
            for state in states:
                if not state.live:
                    continue
                topk = state.topk
                if state.on_progress is not None and len(topk) > state.emitted:
                    # Every unseen tuple scores >= the frontier minimum (the
                    # halt test's invariant), so ranks below it are final —
                    # stream the ones not yet emitted.
                    verified = topk.verified_count(unseen_score)
                    if verified > state.emitted:
                        state.on_progress(
                            state.emitted, topk.ranked()[state.emitted:verified])
                        state.emitted = verified
                # Strict halt: a block whose bound *equals* the k-th score may
                # still hold a tied tuple with a smaller tid, which the
                # canonical (score, tid) order must admit — only provably
                # worse blocks are pruned.  The k-th score is +inf until k
                # tuples are held; only the retirement is per query.
                if topk.kth_score < unseen_score:
                    state.live = False
                    state.blocks, state.peak = popped, peak_frontier
                    live -= 1
                    continue
                tids = state.provider.tids_in_block(bid)
                if len(tids):
                    needs.append((state, tids))
            if not live:
                break
            heappop(frontier)
            popped += 1

            if needs:
                block_tids, block_values = block_arrays(bid)
                if not whole_grid:
                    block_values = block_values[:, dim_index]
                state, tids = needs[0]
                if len(needs) == 1 or all(
                        taken is block_tids for _, taken in needs):
                    # One consumer, or every consumer takes the whole page:
                    # score the rows once straight into the accumulators —
                    # no union, no attribution mask; the first is charged.
                    if tids is not block_tids:
                        rows, tids = _rows_of(block_tids, tids)
                        block_values = block_values[rows]
                    scores = evaluate(block_values)
                    state.charged += len(tids)
                    for state, _ in needs:
                        state.topk.offer_many(tids, scores)
                        state.tuples += len(tids)
                else:
                    # The union of the needed rows is scored once; a
                    # consumer takes its rows' scores and is charged for
                    # the rows no earlier consumer was charged for.
                    wanted = np.zeros(len(block_tids), dtype=bool)
                    takers = []
                    for state, tids in needs:
                        rows, tids = _rows_of(block_tids, tids)
                        wanted[rows] = True
                        takers.append((state, rows, tids))
                    scores = np.empty(len(block_tids), dtype=np.float64)
                    scores[wanted] = evaluate(block_values[wanted])
                    charged = np.zeros(len(block_tids), dtype=bool)
                    for state, rows, tids in takers:
                        state.topk.offer_many(tids, scores[rows])
                        state.tuples += len(tids)
                        state.charged += (len(tids)
                                          - np.count_nonzero(charged[rows]))
                        charged[rows] = True

            for neighbor in neighbors_of(bid):
                if neighbor not in inserted:
                    inserted.add(neighbor)
                    heappush(frontier, (bound_of(neighbor), neighbor))

        elapsed = time.perf_counter() - start_time
        disk = sum(p.stats.physical_reads - io_before[key]
                   for key, p in pagers.items())
        results: List[QueryResult] = []
        for position, state in enumerate(states):
            if state.live:
                state.blocks, state.peak = popped, peak_frontier
            tids, scores = state.topk.ordered()
            results.append(QueryResult(
                tids=tuple(tids),
                scores=tuple(scores),
                disk_accesses=disk if position == 0 else 0,
                states_generated=state.blocks,
                peak_heap_size=state.peak,
                tuples_evaluated=state.charged,
                elapsed_seconds=elapsed,
                extra=({"tuples_evaluated": float(state.tuples)}
                       if len(states) > 1 else {}),
            ))
        return results

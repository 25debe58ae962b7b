"""The grid ranking cube and the ranking-fragments variant (Chapter 3).

A :class:`RankingCube` materializes one cuboid per requested combination of
selection dimensions over a shared geometry partition plus a base block
table.  The default full cube materializes every non-empty subset of the
selection dimensions (``2^S - 1`` cuboids); :func:`build_ranking_fragments`
instead materializes, per fragment of ``F`` selection dimensions, all
subsets within the fragment, which keeps the space linear in ``S``
(Lemma 2) and answers cross-fragment queries by intersecting tid lists
online (Section 3.4.2).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.cube.blocktable import BaseBlockTable
from repro.cube.model import Cuboid
from repro.cube.providers import (
    CellProvider,
    CuboidCellProvider,
    IntersectionCellProvider,
    UnfilteredCellProvider,
)
from repro.cube.query import GridTopKExecutor
from repro.errors import CubeError, QueryError
from repro.partition.equidepth import equidepth_partition
from repro.partition.grid import GridPartition
from repro.query import Predicate, QueryResult, TopKQuery
from repro.storage.pager import Pager
from repro.storage.table import Relation


def all_nonempty_subsets(dims: Sequence[str]) -> List[Tuple[str, ...]]:
    """Every non-empty subset of ``dims``, smallest first."""
    result: List[Tuple[str, ...]] = []
    for size in range(1, len(dims) + 1):
        result.extend(itertools.combinations(dims, size))
    return result


class RankingCube:
    """Grid-partition ranking cube with neighborhood-search query processing."""

    def __init__(
        self,
        relation: Relation,
        cuboid_dims: Optional[Sequence[Sequence[str]]] = None,
        block_size: int = 300,
        grid: Optional[GridPartition] = None,
        pager: Optional[Pager] = None,
        buffer_capacity: int = 256,
        bound_cache=None,
    ) -> None:
        self.relation = relation
        self.block_size = block_size
        self.buffer_capacity = buffer_capacity
        #: Rows the relation held when this cube (and its grid) was built.
        self.built_rows = relation.num_tuples
        self.grid = grid or equidepth_partition(relation, block_size=block_size)
        self.pager = pager or Pager()
        self.block_table = BaseBlockTable(relation, self.grid, pager=Pager(),
                                          buffer_capacity=buffer_capacity)
        if cuboid_dims is None:
            cuboid_dims = all_nonempty_subsets(relation.selection_dims)
        bids = self.block_table.bids
        self.cuboids: Dict[Tuple[str, ...], Cuboid] = {}
        for dims in cuboid_dims:
            key = tuple(dims)
            if not key:
                raise CubeError("cuboid dimension sets must be non-empty")
            self.cuboids[key] = Cuboid(key, relation, self.grid, bids, self.pager,
                                       buffer_capacity=buffer_capacity)
        self._executor = GridTopKExecutor(self.grid, self.block_table,
                                          bound_cache=bound_cache)
        self._cover_memo: Dict[Tuple[str, ...], List[Tuple[str, ...]]] = {}

    # ------------------------------------------------------------------
    # covering-cuboid selection (Section 3.4.2, minmax criterion)
    # ------------------------------------------------------------------
    def covering_cuboids(self, query_dims: Sequence[str]) -> List[Tuple[str, ...]]:
        """Choose materialized cuboids that together cover ``query_dims``.

        Only cuboids whose dimensions are a subset of the query dimensions
        are usable.  Among those, maximal ones are preferred and a greedy
        minimum cover is selected.  The materialized cuboid set is fixed
        after construction (inserts add pages, never cuboids), so covers
        are memoized per dimension set — the engine consults this several
        times per routed query (supports, plan details, execution) for the
        price of one computation.
        """
        memo_key = tuple(sorted(set(query_dims)))
        cached = self._cover_memo.get(memo_key)
        if cached is not None:
            return list(cached)
        target: Set[str] = set(query_dims)
        if not target:
            return []
        usable = [dims for dims in self.cuboids if set(dims) <= target]
        if not usable:
            raise QueryError(
                f"no materialized cuboid covers any of the query dimensions {sorted(target)}")
        # Maximal step: drop cuboids strictly contained in another usable one.
        maximal = [
            dims for dims in usable
            if not any(set(dims) < set(other) for other in usable)
        ]
        chosen: List[Tuple[str, ...]] = []
        uncovered = set(target)
        while uncovered:
            best = max(maximal, key=lambda dims: len(set(dims) & uncovered))
            gain = set(best) & uncovered
            if not gain:
                raise QueryError(
                    f"query dimensions {sorted(uncovered)} are not covered by any cuboid")
            chosen.append(best)
            uncovered -= gain
        self._cover_memo[memo_key] = chosen
        return list(chosen)

    def plan_for(self, predicate: Predicate
                 ) -> Tuple[CellProvider, List[Tuple[str, ...]]]:
        """Plan ``predicate`` access: the cell provider plus the chosen cuboids.

        The covering-cuboid selection runs exactly once; callers that also
        want the chosen cuboids (statistics, the engine planner) reuse the
        same plan instead of re-deriving it.
        """
        if predicate.is_empty():
            return UnfilteredCellProvider(self.block_table), []
        conditions = predicate.as_dict
        chosen = self.covering_cuboids(predicate.dims)
        providers: List[CellProvider] = []
        for dims in chosen:
            cuboid = self.cuboids[dims]
            cell = cuboid.cell_of_predicate(conditions)
            providers.append(CuboidCellProvider(cuboid, cell))
        if len(providers) == 1:
            return providers[0], chosen
        return IntersectionCellProvider(providers), chosen

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------
    def query(self, query: TopKQuery, on_progress=None) -> QueryResult:
        """Answer one top-k query: :meth:`query_batch` over a group of one.

        ``on_progress`` streams verified top-k prefixes during the sweep
        (see :meth:`~repro.cube.query.GridTopKExecutor.execute_fused`);
        the returned result is identical with or without it.
        """
        return self.query_batch([query], on_progress=[on_progress])[0]

    def query_batch(self, queries: Sequence[TopKQuery],
                    on_progress: Optional[Sequence] = None) -> List[QueryResult]:
        """Answer a same-function batch of top-k queries with one sweep.

        Every query must rank by the same function (by value — the engine
        layer groups batches by the function's canonical key before calling
        this); predicates and ``k`` may differ freely.  One frontier sweep
        serves the whole group (see
        :meth:`~repro.cube.query.GridTopKExecutor.execute_fused`), scoring
        each block's tuples once instead of once per query.  Results are
        bit-identical to running :meth:`query` per entry.
        """
        queries = list(queries)
        if not queries:
            return []
        requests = []
        chosen_counts = []
        for query in queries:
            query.validate(self.relation)
            provider, chosen = self.plan_for(query.predicate)
            requests.append((provider, query.k))
            chosen_counts.append(len(chosen) if chosen else 1)
        results = self._executor.execute_fused(queries[0].function, requests,
                                               on_progress)
        for result, covering in zip(results, chosen_counts):
            result.extra["covering_cuboids"] = float(covering)
        return results

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Tuples covered: the build's plus every :meth:`insert` since."""
        return len(self.block_table.bids)

    def insert(self, tid: int, row: Mapping[str, object]) -> None:
        """Absorb tuple ``tid`` of the relation in place (Section 3.2).

        A tuple belongs on exactly one base-block page and one page per
        cuboid, so an insert is ``1 + num_cuboids`` page writes.  The grid,
        and with it every cached block lower bound, is untouched.  Raises
        :class:`~repro.errors.CubeError` (before writing anything) when
        ``tid`` is not the next uncovered row or the point lies outside the
        grid domain; such rows need :meth:`rebuilt`.
        """
        bid = self.block_table.insert(
            tid, [float(row[dim]) for dim in self.grid.dims])
        for cuboid in self.cuboids.values():
            cuboid.insert(tid, bid, row)

    def rebuilt(self) -> "RankingCube":
        """A fresh cube over the relation as it is now, same shape.

        Same cuboids, block size, buffer capacity and bound cache; the
        grid is re-partitioned, so cached bounds of the old grid go cold.
        """
        return RankingCube(self.relation, cuboid_dims=list(self.cuboids),
                           block_size=self.block_size,
                           buffer_capacity=self.buffer_capacity,
                           bound_cache=self._executor.bound_cache)

    def attach_bound_cache(self, bound_cache) -> None:
        """Share a per-(function, block) lower-bound cache with the executor."""
        self._executor.bound_cache = bound_cache

    def top_k(self, predicate: Predicate, function, k: int) -> QueryResult:
        """Convenience wrapper building the :class:`TopKQuery` for the caller."""
        return self.query(TopKQuery(predicate=predicate, function=function, k=k))

    # ------------------------------------------------------------------
    # sizing
    # ------------------------------------------------------------------
    def size_in_bytes(self) -> int:
        """Materialized size: cuboid pages plus the base block table."""
        return self.pager.total_bytes() + self.block_table.size_in_bytes()

    def num_cuboids(self) -> int:
        """Number of materialized cuboids."""
        return len(self.cuboids)


def fragment_groups(selection_dims: Sequence[str], fragment_size: int) -> List[Tuple[str, ...]]:
    """Evenly partition the selection dimensions into fragments of size ``F``."""
    if fragment_size <= 0:
        raise CubeError("fragment size must be positive")
    dims = list(selection_dims)
    return [
        tuple(dims[start:start + fragment_size])
        for start in range(0, len(dims), fragment_size)
    ]


def build_ranking_fragments(
    relation: Relation,
    fragment_size: int = 2,
    block_size: int = 300,
    groups: Optional[Sequence[Sequence[str]]] = None,
    grid: Optional[GridPartition] = None,
    pager: Optional[Pager] = None,
    buffer_capacity: int = 256,
) -> RankingCube:
    """Build the ranking-fragments variant of the cube (Section 3.4).

    Every fragment materializes all non-empty subsets of its own selection
    dimensions; queries touching several fragments are answered by online
    intersection of the per-fragment tid lists.
    """
    if groups is None:
        groups = fragment_groups(relation.selection_dims, fragment_size)
    cuboid_dims: List[Tuple[str, ...]] = []
    seen: Set[Tuple[str, ...]] = set()
    for group in groups:
        for subset in all_nonempty_subsets(tuple(group)):
            if subset not in seen:
                seen.add(subset)
                cuboid_dims.append(subset)
    return RankingCube(
        relation,
        cuboid_dims=cuboid_dims,
        block_size=block_size,
        grid=grid,
        pager=pager,
        buffer_capacity=buffer_capacity,
    )

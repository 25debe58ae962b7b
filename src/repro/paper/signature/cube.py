"""The signature-based ranking cube (Sections 4.2.4–4.2.5).

Construction (Algorithm 1): partition the tuples with an R-tree over the
ranking dimensions, derive every tuple's path, and — per materialized cuboid
and per cell — build, compress, decompose and store a signature.  By default
only the *atomic* cuboids (one per boolean dimension) are materialized, as
the thesis suggests for high-dimensional data; signatures for arbitrary
conjunctive predicates are assembled on-line by intersection.

Algorithm 1 sorts the tuples by cell and path and emits each cell's
signature in one pass; here the sorts are array sorts.  The R-tree hands out
every path as one matrix, cells are dense ranks of the selection columns,
and level by level the distinct (cell, node, position) triples are the set
bits of one node matrix per cuboid, which the store sizes in one kernel call
and cuts into pages.  No Python runs per tuple.

Incremental maintenance (Algorithm 2): inserting a tuple updates the R-tree
(possibly splitting nodes), and only the signatures of the cells touched by
the changed tuple paths are loaded, patched (clear old paths, set new
paths) and written back.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CubeError, QueryError
from repro.query import Predicate
from repro.paper.signature.signature import Path
from repro.paper.signature.store import (
    CellSignatureReader,
    CombinedSignatureReader,
    SignatureStore,
    decompose_nodes,
)
from repro.storage.pager import Pager
from repro.paper.rtree import RTree
from repro.storage.table import Relation

CellKey = Tuple[int, ...]
CuboidKey = Tuple[str, ...]


@dataclass
class ConstructionStats:
    """Timing and size statistics of cube construction (Figures 4.8–4.9)."""

    rtree_seconds: float = 0.0
    cube_seconds: float = 0.0
    rtree_bytes: int = 0
    cube_bytes: int = 0
    num_signatures: int = 0
    num_partial_pages: int = 0


@dataclass
class MaintenanceReport:
    """Outcome of one incremental-maintenance batch (Figure 4.11)."""

    tuples_inserted: int = 0
    cells_updated: int = 0
    pages_written: int = 0
    node_splits: int = 0
    elapsed_seconds: float = 0.0


def _cuboid_nodes(node: np.ndarray, num_cells: int, paths: np.ndarray,
                  fanout: int) -> Tuple[List[Path], np.ndarray, np.ndarray]:
    """``(paths, bits, child_counts)`` of every cell's signature tree of a cuboid.

    ``node[t]`` is the cell rank of tuple ``t`` — cell ``c``'s root is row
    ``c`` — and ``paths[t]`` its R-tree path.  Level by level a tuple's node
    is the dense rank of its (parent node, position) pair, so a level's rows
    are ordered by parent row, then position (the breadth-first order of
    ``decompose_nodes``) and no key exceeds ``num_tuples * (fanout + 1)``.
    The distinct pairs of a level are its set bits; above the leaf level
    each is also a node of the next level.
    """
    height = paths.shape[1]
    node_paths = np.empty((num_cells, 0), dtype=np.int64)
    path_list: List[Path] = []
    set_bits: List[np.ndarray] = []
    for level in range(height):
        level_start = len(path_list)
        path_list.extend(map(tuple, node_paths.tolist()))
        keys = node * (fanout + 1) + paths[:, level]
        if level < height - 1:
            keys, node = np.unique(keys, return_inverse=True)
        parent, position = np.divmod(keys, fanout + 1)
        set_bits.append((level_start + parent) * fanout + position - 1)
        node_paths = np.column_stack([node_paths[parent], position])
    bits = np.zeros((len(path_list), fanout), dtype=bool)
    bits.reshape(-1)[np.concatenate(set_bits)] = True
    child_counts = bits.sum(axis=1)
    child_counts[level_start:] = 0  # a leaf-level bit is a tuple, not a node
    return path_list, bits, child_counts


class SignatureRankingCube:
    """Ranking cube whose measure is a signature per (cuboid cell)."""

    def __init__(
        self,
        relation: Relation,
        ranking_dims: Optional[Sequence[str]] = None,
        cuboid_dims: Optional[Sequence[Sequence[str]]] = None,
        rtree: Optional[RTree] = None,
        rtree_max_entries: Optional[int] = 32,
        pager: Optional[Pager] = None,
        alpha: float = 0.5,
        buffer_capacity: int = 512,
    ) -> None:
        self.relation = relation
        self.ranking_dims: Tuple[str, ...] = (
            tuple(ranking_dims) if ranking_dims else relation.ranking_dims)
        if cuboid_dims is None:
            cuboid_dims = [(dim,) for dim in relation.selection_dims]
        self.cuboid_dims: List[CuboidKey] = [tuple(d) for d in cuboid_dims]
        for dims in self.cuboid_dims:
            if not dims:
                raise CubeError("cuboid dimension sets must be non-empty")

        self.stats = ConstructionStats()
        start = time.perf_counter()
        if rtree is None:
            points = relation.ranking_values_bulk(
                np.arange(relation.num_tuples), self.ranking_dims)
            rtree = RTree.build(self.ranking_dims, points,
                                max_entries=rtree_max_entries)
        self.rtree = rtree
        self.stats.rtree_seconds = time.perf_counter() - start
        self.stats.rtree_bytes = self.rtree.size_in_bytes()

        # Leaf slots may hold up to max_entries tuples as well, so the
        # signature fanout equals the R-tree node capacity.
        self.store = SignatureStore(fanout=self.rtree.max_entries, pager=pager,
                                    alpha=alpha, buffer_capacity=buffer_capacity)
        start = time.perf_counter()
        self._build_signatures()
        self.stats.cube_seconds = time.perf_counter() - start
        self.stats.cube_bytes = self.store.total_size_bytes()
        self.stats.num_partial_pages = self.store.num_pages()

    # ------------------------------------------------------------------
    # construction (Algorithm 1)
    # ------------------------------------------------------------------
    def _build_signatures(self) -> None:
        tids, paths = self.rtree.tuple_paths()
        self.stats.num_signatures = 0
        for dims in self.cuboid_dims:
            columns = [self.relation.selection_column(d)[tids] for d in dims]
            # Dense cell ranks, column by column: no key exceeds len(tids) ** 2.
            rank = np.zeros(len(tids), dtype=np.int64)
            for column in columns:
                distinct, code = np.unique(column, return_inverse=True)
                _, first, rank = np.unique(rank * len(distinct) + code,
                                           return_index=True, return_inverse=True)
            cells = np.column_stack(columns)[first].tolist()
            trees = decompose_nodes(
                *_cuboid_nodes(rank, len(cells), paths, self.store.fanout),
                self.store.fanout, self.store.budget_bits)
            # Cells in first-seen order: the order their pages are allocated in.
            for root in np.argsort(first).tolist():
                self.store.put_partials(dims, tuple(cells[root]), trees[root])
            self.stats.num_signatures += len(cells)

    # ------------------------------------------------------------------
    # on-line signature assembly (Section 4.3.3)
    # ------------------------------------------------------------------
    def signature_reader(self, predicate: Predicate) -> Optional[CombinedSignatureReader]:
        """Reader answering boolean-pruning tests for ``predicate``.

        Returns ``None`` for the empty predicate (no boolean pruning).  A
        multi-dimensional cuboid is used when it exactly matches the
        predicate dimensions; otherwise the per-dimension atomic signatures
        are combined by intersection.
        """
        if predicate.is_empty():
            return None
        conditions = predicate.as_dict
        exact = tuple(sorted(conditions))
        for dims in self.cuboid_dims:
            if tuple(sorted(dims)) == exact:
                cell = tuple(int(conditions[d]) for d in dims)
                return CombinedSignatureReader([self.store.reader(dims, cell)])
        readers: List[CellSignatureReader] = []
        for dim, value in conditions.items():
            if (dim,) not in self.cuboid_dims:
                raise QueryError(
                    f"no materialized signature cuboid covers dimension {dim!r}")
            readers.append(self.store.reader((dim,), (int(value),)))
        return CombinedSignatureReader(readers)

    # ------------------------------------------------------------------
    # incremental maintenance (Algorithm 2)
    # ------------------------------------------------------------------
    def insert(self, rows: Sequence[Mapping[str, object]]) -> MaintenanceReport:
        """Insert new tuples and incrementally patch the affected signatures."""
        report = MaintenanceReport()
        start = time.perf_counter()
        writes_before = self.store.pager.stats.writes

        for row in rows:
            tid = self.relation.append(row)
            point = [float(row[d]) for d in self.ranking_dims]
            outcome = self.rtree.insert(point, tid)
            if outcome.split_occurred:
                report.node_splits += 1
            report.tuples_inserted += 1
            self._apply_path_changes(outcome.old_paths, outcome.new_paths, report)

        report.pages_written = self.store.pager.stats.writes - writes_before
        report.elapsed_seconds = time.perf_counter() - start
        return report

    def _apply_path_changes(self, old_paths: Mapping[int, Path],
                            new_paths: Mapping[int, Path],
                            report: MaintenanceReport) -> None:
        affected_tids = set(old_paths) | set(new_paths)
        for dims in self.cuboid_dims:
            cells: Dict[CellKey, List[int]] = {}
            for tid in affected_tids:
                values = self.relation.selection_values(tid)
                cell = tuple(int(values[d]) for d in dims)
                cells.setdefault(cell, []).append(tid)
            for cell, tids in cells.items():
                signature = self.store.load_signature(dims, cell)
                # Clear every old path before setting any new one: a split
                # can move one tuple into the slot another tuple of the same
                # cell just vacated, and clearing after setting would wipe
                # the bit that now belongs to the mover.
                for tid in tids:
                    if tid in old_paths:
                        signature.clear_path(old_paths[tid])
                for tid in tids:
                    if tid in new_paths:
                        signature.set_path(new_paths[tid])
                self.store.put(dims, cell, signature)
                report.cells_updated += 1

    # ------------------------------------------------------------------
    # rebuild-from-scratch reference (for the maintenance comparison)
    # ------------------------------------------------------------------
    def rebuild(self) -> float:
        """Recompute every signature from the current R-tree; returns seconds."""
        start = time.perf_counter()
        self._build_signatures()
        return time.perf_counter() - start

    # ------------------------------------------------------------------
    # sizing
    # ------------------------------------------------------------------
    def size_in_bytes(self) -> int:
        """Encoded size of all stored signatures."""
        return self.store.total_size_bytes()

"""Skyline queries with boolean predicates (Section 7.2.2), served by scan.

The boolean-first skyline filters the table through its posting lists,
then peels the skyline of the matches in numpy
(:func:`~repro.skyline.dominance.skyline_rows`).  It reports the paper's
block-nested-loop counts (every table page, a window of every match), so
the figures compare methods, not kernels.  Dynamic skylines map every
value to its distance from a query target before dominance is tested.

The signature-pruned BBS engine over the R-tree (Sections 7.2.2–7.2.4)
and its drill-down / roll-up sessions are figure subjects and live in
:mod:`repro.paper.skyline`; they return the same :class:`SkylineResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.query import SkylineQuery
from repro.skyline.dominance import mapped_corners, skyline_rows
from repro.storage.table import Relation
from repro.storage.table_scan import table_pages


@dataclass
class SkylineResult:
    """Skyline answer plus the statistics reported in Figures 7.3–7.5."""

    tids: Tuple[int, ...]
    disk_accesses: int = 0
    signature_accesses: int = 0
    peak_heap_size: int = 0
    nodes_expanded: int = 0
    elapsed_seconds: float = 0.0
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def backend(self) -> Optional[str]:
        """Name of the engine backend that produced this result, if planned."""
        value = self.extra.get("backend")
        return str(value) if value is not None else None

    @property
    def plan(self) -> Optional[str]:
        """The planner's explanation of how this query was routed, if planned."""
        value = self.extra.get("plan")
        return str(value) if value is not None else None

    def __len__(self) -> int:
        return len(self.tids)


def skyline_among(relation: Relation, tids: np.ndarray,
                  query: SkylineQuery) -> np.ndarray:
    """The tids of ascending ``tids`` no other of them dominates, ascending,
    in ``query``'s preference dims (mapped to its targets when dynamic)."""
    values = relation.ranking_values_bulk(tids, query.preference_dims)
    if query.targets is not None:
        values = mapped_corners(values, values,
                                np.array(query.targets, dtype=np.float64))
    return tids[skyline_rows(values)]


class BooleanFirstSkyline:
    """Baseline: filter by the boolean predicate, then the skyline of the matches."""

    def __init__(self, relation: Relation) -> None:
        self.relation = relation

    def query(self, query: SkylineQuery) -> SkylineResult:
        """Filter by posting lists, then peel the survivors' skyline in numpy.

        Counts what the paper's block-nested loop pays: a full table scan
        and a window that may hold every match.
        """
        start = time.perf_counter()
        tids = self.relation.tids_matching(query.predicate.as_dict)
        skyline = skyline_among(self.relation, tids, query)
        elapsed = time.perf_counter() - start
        return SkylineResult(
            tids=tuple(skyline.tolist()),
            disk_accesses=table_pages(self.relation),
            peak_heap_size=len(tids),
            nodes_expanded=len(tids),
            elapsed_seconds=elapsed,
        )

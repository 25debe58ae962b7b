"""Cell providers: where the query algorithm gets qualifying tids per block.

The retrieve step of the query algorithm (Section 3.3.2) asks a cuboid for
the tids of a base block's pseudo block, buffering pseudo blocks already
fetched.  When a query is answered by several ranking fragments (Section
3.4.2), the per-fragment tids for the same block are intersected.  Both
behaviours implement the same small interface so the executor does not care
which one it talks to.

Every provider answers with an ascending, duplicate-free ``int64`` array —
the order of the base-block page, so the sweep finds a consumer's rows with
one ``searchsorted``.  The arrays are views of immutable pages (see
:mod:`repro.cube.model`): read them, never write into them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Sequence

import numpy as np

from repro.cube.blocktable import BaseBlockTable
from repro.cube.model import CellKey, Cuboid, CuboidPage


class CellProvider(ABC):
    """Supplies, per base block, the tids that satisfy the boolean predicate."""

    @abstractmethod
    def tids_in_block(self, bid: int) -> np.ndarray:
        """Tids in base block ``bid`` that satisfy the provider's predicate:
        an ascending ``int64`` array without duplicates."""

    def reset(self) -> None:
        """Drop any per-query buffering (called between queries)."""


class CuboidCellProvider(CellProvider):
    """Reads one cuboid cell, pseudo block by pseudo block, with buffering."""

    def __init__(self, cuboid: Cuboid, cell: CellKey) -> None:
        self.cuboid = cuboid
        self.cell = tuple(cell)
        #: pid -> the fetched page regrouped by base block.
        self._fetched_pids: Dict[int, CuboidPage] = {}

    def tids_in_block(self, bid: int) -> np.ndarray:
        pid = self.cuboid.grid.pid_of_bid(bid, self.cuboid.scale_factor)
        fetched = self._fetched_pids.get(pid)
        if fetched is None:
            tids, bids = self.cuboid.get_pseudo_block(self.cell, pid)
            # Stable: inside one base block the page's tid order survives.
            order = np.argsort(bids, kind="stable")
            fetched = self._fetched_pids[pid] = (tids[order], bids[order])
        tids, bids = fetched
        return tids[bids.searchsorted(bid, "left"):
                    bids.searchsorted(bid, "right")]

    def reset(self) -> None:
        self._fetched_pids.clear()


class IntersectionCellProvider(CellProvider):
    """Intersects the tids of several providers (ranking fragments)."""

    def __init__(self, providers: Sequence[CellProvider]) -> None:
        if not providers:
            raise ValueError("at least one provider is required")
        self.providers = list(providers)

    def tids_in_block(self, bid: int) -> np.ndarray:
        result = self.providers[0].tids_in_block(bid)
        for provider in self.providers[1:]:
            # A later fragment's page is not fetched once nothing is left.
            if not len(result):
                break
            result = np.intersect1d(result, provider.tids_in_block(bid),
                                    assume_unique=True)
        return result

    def reset(self) -> None:
        for provider in self.providers:
            provider.reset()


class UnfilteredCellProvider(CellProvider):
    """Provider for the empty predicate: every tuple of the block qualifies."""

    def __init__(self, block_table: BaseBlockTable) -> None:
        self.block_table = block_table

    def tids_in_block(self, bid: int) -> np.ndarray:
        # The page's own array: the sweep recognises it by identity.
        return self.block_table.block_arrays(bid)[0]

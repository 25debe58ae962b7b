"""Backend adapters wrapping every served execution engine.

Each adapter implements the small :class:`repro.engine.registry.Backend`
interface over an already-built engine object: the grid ranking cube (or its
ranking-fragments variant), the table-scan fallback and the boolean-first
skyline.  ``supports`` checks are conservative and never raise — a backend
that cannot answer a query simply drops out of the candidate list.  The
signature cube's and BBS's adapters are :mod:`repro.paper.stack`'s.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import CubeError
from repro.query import Predicate, SkylineQuery, TopKQuery
from repro.storage.table import Relation

from repro.engine.plan import KIND_SKYLINE, KIND_TOPK
from repro.engine.registry import Backend


def _predicate_valid(predicate: Predicate, relation: Relation) -> bool:
    return all(relation.schema.is_selection(dim) for dim in predicate.dims)


def _function_valid(function, relation: Relation) -> bool:
    return all(relation.schema.is_ranking(dim) for dim in function.dims)


class RankingCubeBackend(Backend):
    """Grid ranking cube (Chapter 3) — also serves the fragments variant."""

    kind = KIND_TOPK
    supports_fusion = True
    maintains_inserts = True

    def __init__(self, cube, name: str = "ranking-cube", priority: int = 10) -> None:
        self.cube = cube
        self.name = name
        self.priority = priority

    @property
    def relation(self):
        return self.cube.relation

    def supports(self, query) -> bool:
        if not isinstance(query, TopKQuery):
            return False
        if not _predicate_valid(query.predicate, self.cube.relation):
            return False
        if not all(dim in self.cube.grid.dims for dim in query.function.dims):
            return False
        if query.predicate.is_empty():
            return True
        try:
            return bool(self.cube.covering_cuboids(query.predicate.dims))
        except Exception:
            return False

    def plan_details(self, query) -> Dict[str, object]:
        if query.predicate.is_empty():
            return {"covering_cuboids": "none (empty predicate)"}
        chosen = self.cube.covering_cuboids(query.predicate.dims)
        return {"covering_cuboids": ",".join("+".join(dims) for dims in chosen)}

    def cost_profile(self, query) -> Optional[Dict[str, object]]:
        covering = 1
        if not query.predicate.is_empty():
            try:
                covering = len(self.cube.covering_cuboids(query.predicate.dims))
            except Exception:
                return None
        return {"access": "grid", "granularity": self.cube.block_size,
                "covering": covering}

    def attach_bound_cache(self, bound_cache) -> None:
        self.cube.attach_bound_cache(bound_cache)

    def insert(self, tid: int, row) -> None:
        """Maintain the cube in place; rebuild it only when that is unsound.

        Rows appended to the relation behind the cube's back (everything
        between its coverage and ``tid``) are absorbed first.  A fresh
        build replaces :attr:`cube` when a row falls outside the grid
        domain — clamping it into an edge block would break that block's
        lower bound — or once the relation has doubled since the build,
        when the equi-depth blocks no longer hold what they were sized for.
        """
        cube = self.cube
        relation = cube.relation
        if relation.num_tuples >= 2 * cube.built_rows:
            self.cube = cube.rebuilt()
            return
        try:
            for missing in range(cube.num_rows, tid):
                cube.insert(missing, relation.tuple_dict(missing))
            cube.insert(tid, row)
        except CubeError:
            self.cube = cube.rebuilt()

    def run(self, query):
        """A group of one through the sweep of :meth:`execute_batch`."""
        return self.cube.query(query)

    def run_stream(self, query, on_progress):
        """:meth:`run`, streaming: verified prefixes emitted mid-sweep.

        Same answer; ``on_progress(start_rank, pairs)`` additionally fires
        as accumulator ranks become provably final (see
        :meth:`repro.cube.query.GridTopKExecutor.execute_fused`).
        """
        return self.cube.query(query, on_progress=on_progress)

    def execute_batch(self, queries) -> List:
        """One frontier sweep serves the whole group."""
        return self.cube.query_batch(list(queries))


class TableScanBackend(Backend):
    """Sequential-scan fallback (``TS``): always applicable, never fast."""

    kind = KIND_TOPK
    maintains_inserts = True  # scans the live relation

    def __init__(self, scanner, name: str = "table-scan", priority: int = 90) -> None:
        # ``scanner`` is a repro.storage.table_scan.TableScanTopK.
        self.scanner = scanner
        self.name = name
        self.priority = priority

    @property
    def relation(self):
        return self.scanner.relation

    def cost_profile(self, query) -> Optional[Dict[str, object]]:
        return {"access": "scan"}

    def supports(self, query) -> bool:
        return (isinstance(query, TopKQuery)
                and _predicate_valid(query.predicate, self.scanner.relation)
                and _function_valid(query.function, self.scanner.relation))

    def run(self, query):
        return self.scanner.query(query)


class SkylineScanBackend(Backend):
    """Boolean-first block-nested-loop skyline fallback."""

    kind = KIND_SKYLINE
    maintains_inserts = True  # scans the live relation

    def __init__(self, engine, name: str = "skyline-scan", priority: int = 90) -> None:
        # ``engine`` is a repro.skyline.BooleanFirstSkyline.
        self.engine = engine
        self.name = name
        self.priority = priority

    @property
    def relation(self):
        return self.engine.relation

    def cost_profile(self, query) -> Optional[Dict[str, object]]:
        return {"access": "scan-skyline"}

    def supports(self, query) -> bool:
        if not isinstance(query, SkylineQuery):
            return False
        if not _predicate_valid(query.predicate, self.engine.relation):
            return False
        return all(self.engine.relation.schema.is_ranking(dim)
                   for dim in query.preference_dims)

    def run(self, query):
        return self.engine.query(query)

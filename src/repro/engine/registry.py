"""The backend abstraction and the named-backend registry.

A *backend* wraps one of the library's execution engines behind a uniform
interface: it declares which query kind it serves (top-k, skyline, or
multi-relation join), whether it can answer a concrete query, and how to run
it.  The :class:`EngineRegistry` holds named backends; the planner consults
it to route queries, and operators can swap or extend backends without
touching the planner or the executor.

What a backend implements: :meth:`Backend.supports` and :meth:`Backend.run`,
always.  One that can share work across a same-function group also
overrides :meth:`Backend.execute_batch` and sets ``supports_fusion``; it
then owes one algorithm, not two — ``run(q)`` is ``execute_batch([q])[0]``
field for field (the grid and signature cubes run a lone query as a group
of one through the same sweep), so neither an answer nor its counters
depend on the batch the query arrived in.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Iterator, List, Mapping, Optional

from repro.errors import PlanningError
from repro.query import SkylineQuery, TopKQuery

from repro.engine.plan import KIND_JOIN, KIND_SKYLINE, KIND_TOPK


def kind_of(query) -> str:
    """Classify a query object into one of the routed kinds."""
    if isinstance(query, TopKQuery):
        return KIND_TOPK
    if isinstance(query, SkylineQuery):
        return KIND_SKYLINE
    # SPJRQuery lives in repro.paper.joins, which the served package never
    # imports: duck-type on its distinguishing fields.
    if hasattr(query, "terms") and hasattr(query, "joins"):
        return KIND_JOIN
    raise PlanningError(f"cannot route query of type {type(query).__name__}")


class Backend(ABC):
    """One named execution engine behind the registry interface.

    ``priority`` orders candidates during planning — lower wins.  Indexed
    engines sit low (preferred), scan fallbacks high.
    """

    #: Registry name; unique within one registry.
    name: str
    #: Query kind served (one of the ``KIND_*`` constants).
    kind: str
    #: Planning preference; lower values are chosen first.
    priority: int = 50
    #: The single relation this backend answers over, when there is one.
    #: The cost-based planner profiles it; ``None`` (multi-relation joins,
    #: custom adapters) makes the planner fall back to the static order.
    relation = None
    #: Whether :meth:`execute_batch` actually fuses shared work across a
    #: same-function group (one frontier sweep / one tree traversal) rather
    #: than falling back to the per-query loop.
    supports_fusion: bool = False
    #: Whether :meth:`insert` keeps this backend exact after a row is
    #: appended to :attr:`relation`.  ``False`` means its indexes only
    #: cover the rows they were built over, so a stack holding it has to
    #: be rebuilt to see a new row.
    maintains_inserts: bool = False
    #: Set when ``Executor.insert`` could not hand it a row: not routed.
    stale: bool = False

    @abstractmethod
    def supports(self, query) -> bool:
        """Whether this backend can answer ``query`` (must not raise)."""

    @abstractmethod
    def run(self, query):
        """Execute ``query`` and return its result object.

        On a backend with :attr:`supports_fusion` this is the group of one
        of :meth:`execute_batch`, equal to ``execute_batch([query])[0]`` in
        every field.
        """

    def execute_batch(self, queries) -> List:
        """Answer a group of queries sharing one ranking function (by value).

        The executor groups each batch by (backend, canonical function key)
        after planning and hands every group of two or more here (a lone
        query goes through :meth:`run`).  Backends that can share work
        across the group override this with a fused implementation and set
        :attr:`supports_fusion`; this default is the per-query fallback, so
        non-batchable backends keep exact per-query semantics.
        """
        return [self.run(query) for query in queries]

    def insert(self, tid: int, row: Mapping[str, object]) -> None:
        """Absorb row ``tid``, already appended to :attr:`relation`.

        Only called when :attr:`maintains_inserts` is true.  The default
        suits backends that read the live relation on every query.
        """

    def plan_details(self, query) -> Dict[str, object]:
        """Backend-specific plan properties (e.g. covering cuboids)."""
        return {}

    def cost_profile(self, query) -> Optional[Dict[str, object]]:
        """Structural inputs for the :class:`~repro.engine.cost.CostModel`.

        Returns the access kind plus its granularity (``{"access": "grid",
        "granularity": block_size, ...}``), or ``None`` when the backend
        cannot be costed — the planner then keeps the static priority
        order for the whole candidate list, so an unestimable custom
        backend can never be mis-ranked by a half-informed comparison.
        """
        return None

    def attach_bound_cache(self, bound_cache) -> None:
        """Adopt a shared lower-bound cache; default: not applicable."""

    def describe(self) -> str:
        """Short human-readable description for ``explain`` output."""
        return f"{self.name} ({self.kind}, priority {self.priority})"


class EngineRegistry:
    """Named collection of backends, ordered by registration."""

    def __init__(self) -> None:
        self._backends: "Dict[str, Backend]" = {}

    def register(self, backend: Backend, replace: bool = False) -> Backend:
        """Add ``backend`` under its name; ``replace`` allows re-binding."""
        if not replace and backend.name in self._backends:
            raise PlanningError(
                f"backend {backend.name!r} is already registered "
                f"(pass replace=True to re-bind)")
        self._backends[backend.name] = backend
        return backend

    def unregister(self, name: str) -> Backend:
        """Remove and return the backend registered under ``name``."""
        try:
            return self._backends.pop(name)
        except KeyError as exc:
            raise PlanningError(f"no backend registered under {name!r}") from exc

    def get(self, name: str) -> Backend:
        """Return the backend registered under ``name``."""
        try:
            return self._backends[name]
        except KeyError as exc:
            raise PlanningError(f"no backend registered under {name!r}") from exc

    def names(self) -> List[str]:
        """Registered backend names, in registration order."""
        return list(self._backends)

    def backends_for(self, kind: str) -> List[Backend]:
        """Backends serving ``kind``, stably sorted by ascending priority."""
        matching = [b for b in self._backends.values() if b.kind == kind]
        return sorted(matching, key=lambda b: b.priority)

    def __contains__(self, name: str) -> bool:
        return name in self._backends

    def __iter__(self) -> Iterator[Backend]:
        return iter(self._backends.values())

    def __len__(self) -> int:
        return len(self._backends)

"""Query model shared by every engine in the library.

A ranked OLAP query (thesis Section 1.2.1) is::

    select top k * from R
    where A'1 = a1 and ... A'i = ai
    order by f(N'1, ..., N'j)

i.e. a conjunction of equality predicates over selection dimensions plus an
ad-hoc ranking function over ranking dimensions.  Chapter 7 generalizes the
preference part to skylines; the boolean part stays the same, so the
predicate classes here are shared by the skyline engine as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import QueryError
from repro.functions.base import RankingFunction, finite
from repro.storage.table import Relation


@dataclass(frozen=True)
class Predicate:
    """A conjunction of equality conditions over selection dimensions.

    ``conditions`` maps dimension name to the required (coded) value.  The
    empty predicate matches every tuple.
    """

    conditions: Tuple[Tuple[str, int], ...] = ()

    @classmethod
    def of(cls, mapping: Optional[Mapping[str, int]] = None, **kwargs: int) -> "Predicate":
        """Build a predicate from a mapping and/or keyword conditions."""
        merged: Dict[str, int] = dict(mapping or {})
        merged.update({k: int(v) for k, v in kwargs.items()})
        return cls(tuple(sorted(merged.items())))

    @property
    def as_dict(self) -> Dict[str, int]:
        """The conditions as a plain ``{dim: value}`` dict."""
        return dict(self.conditions)

    @property
    def dims(self) -> Tuple[str, ...]:
        """Dimensions constrained by this predicate, sorted by name."""
        return tuple(dim for dim, _ in self.conditions)

    def is_empty(self) -> bool:
        """True when the predicate constrains nothing."""
        return not self.conditions

    def matches(self, relation: Relation, tid: int) -> bool:
        """Evaluate the predicate on a single tuple."""
        values = relation.selection_values(tid)
        return all(values.get(dim) == val for dim, val in self.conditions)

    def restricted_to(self, dims: Sequence[str]) -> "Predicate":
        """Return the sub-predicate over only ``dims``."""
        allowed = set(dims)
        return Predicate(tuple((d, v) for d, v in self.conditions if d in allowed))

    def validate(self, relation: Relation) -> None:
        """Raise :class:`QueryError` if a condition names a non-selection dim."""
        for dim, _ in self.conditions:
            if not relation.schema.is_selection(dim):
                raise QueryError(
                    f"predicate dimension {dim!r} is not a selection dimension of "
                    f"{relation.name}"
                )

    def __len__(self) -> int:
        return len(self.conditions)


def topk_order_key(tid: int, score: float) -> Tuple[float, int]:
    """Canonical total order of top-k answers: ``(score, tid)``.

    Every top-k engine ranks by ascending score and breaks score ties by
    ascending tuple id.  Centralizing the key makes the tie-break stable
    across backends — and across shards, whose per-shard answers are merged
    by exactly this key — so one query has one well-defined answer list no
    matter which execution path produced it.
    """
    return (float(score), int(tid))


@dataclass(frozen=True)
class TopKQuery:
    """A top-k query: boolean predicate + ranking function + k."""

    predicate: Predicate
    function: RankingFunction
    k: int

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise QueryError(f"k must be positive, got {self.k}")

    @property
    def ranking_dims(self) -> Tuple[str, ...]:
        """Ranking dimensions referenced by the ranking function."""
        return tuple(self.function.dims)

    @property
    def selection_dims(self) -> Tuple[str, ...]:
        """Selection dimensions constrained by the predicate."""
        return self.predicate.dims

    def validate(self, relation: Relation) -> None:
        """Check every referenced dimension against the relation schema."""
        self.predicate.validate(relation)
        for dim in self.function.dims:
            if not relation.schema.is_ranking(dim):
                raise QueryError(
                    f"ranking dimension {dim!r} is not a ranking dimension of "
                    f"{relation.name}"
                )


@dataclass(frozen=True)
class SkylineQuery:
    """A skyline query with boolean predicates (Chapter 7).

    ``preference_dims`` are minimized.  ``targets`` turns the query into a
    *dynamic* skyline: each preference value is replaced by its absolute
    distance to the target before dominance is evaluated (Section 7.2.3).
    """

    predicate: Predicate
    preference_dims: Tuple[str, ...]
    targets: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if not self.preference_dims:
            raise QueryError("a skyline query needs at least one preference dimension")
        if self.targets is not None and len(self.targets) != len(self.preference_dims):
            raise QueryError("targets must align with preference_dims")
        if self.targets is not None:
            finite(self.targets, "skyline targets", QueryError)

    @property
    def is_dynamic(self) -> bool:
        """True when the query is a dynamic (target-relative) skyline."""
        return self.targets is not None


@dataclass
class QueryResult:
    """Result of a top-k query plus the execution statistics the paper reports.

    ``extra`` carries engine-specific statistics (floats) and, when the
    query went through :class:`repro.engine.Executor`, the chosen backend
    name under ``"backend"`` and the planner's
    :class:`~repro.engine.plan.QueryPlan` under ``"plan"`` (a string once
    decoded off the wire, or from a scatter; :attr:`plan` renders either).
    """

    tids: Tuple[int, ...]
    scores: Tuple[float, ...]
    disk_accesses: int = 0
    states_generated: int = 0
    peak_heap_size: int = 0
    tuples_evaluated: int = 0
    elapsed_seconds: float = 0.0
    extra: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.tids) != len(self.scores):
            raise QueryError("tids and scores must have the same length")

    def as_pairs(self) -> Tuple[Tuple[int, float], ...]:
        """Return ``((tid, score), ...)`` pairs in rank order."""
        return tuple(zip(self.tids, self.scores))

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

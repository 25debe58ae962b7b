"""SPJR query optimizer (Section 6.2).

The optimizer makes two decisions:

* **Per relation** (Section 6.2.1): whether the relation should be accessed
  rank-aware (through its ranking cube, streaming tuples in score order) or
  boolean-first (the predicate is so selective that fetching the few
  qualifying tuples outright is cheaper).  The decision compares the
  estimated qualifying cardinality against a rank-access budget derived from
  ``k``.
* **Across relations** (Section 6.2.2): the pull order of the rank-join —
  the relation expected to produce the fewest qualifying tuples drives the
  join, so hash tables of the other relations stay small and the threshold
  tightens quickly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.paper.joins.query_model import SPJRQuery
from repro.storage.table import Relation


@dataclass
class RelationStats:
    """Summary statistics used by the SPJR query optimizer (Chapter 6)."""

    num_tuples: int
    cardinalities: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def of(cls, relation: Relation) -> "RelationStats":
        """Compute statistics for ``relation``."""
        cards = {dim: relation.cardinality(dim) for dim in relation.selection_dims}
        return cls(num_tuples=relation.num_tuples, cardinalities=cards)

    def selectivity(self, conditions: Mapping[str, int]) -> float:
        """Estimated fraction of tuples surviving the equality conditions."""
        estimate = 1.0
        for dim in conditions:
            card = max(1, self.cardinalities.get(dim, 1))
            estimate /= card
        return estimate


@dataclass(frozen=True)
class RelationPlan:
    """Access decision for one relation."""

    relation_name: str
    access: str  # "rank" or "boolean"
    estimated_qualifying: float


@dataclass(frozen=True)
class JoinPlan:
    """Complete plan: per-relation access methods plus the join pull order."""

    relation_plans: Tuple[RelationPlan, ...]
    order: Tuple[str, ...]

    def plan_for(self, relation_name: str) -> RelationPlan:
        """Access plan of one relation."""
        for plan in self.relation_plans:
            if plan.relation_name == relation_name:
                return plan
        raise KeyError(relation_name)


class SPJROptimizer:
    """Cost-based planner for SPJR queries."""

    def __init__(self, rank_access_multiplier: float = 20.0) -> None:
        # A rank stream is preferred while the expected qualifying tuples
        # exceed roughly this multiple of k (pulling a few ordered tuples is
        # then cheaper than materializing the whole boolean filter result).
        self.rank_access_multiplier = rank_access_multiplier

    def plan(self, query: SPJRQuery) -> JoinPlan:
        """Choose per-relation access methods and the join pull order."""
        query.validate()
        relation_plans: List[RelationPlan] = []
        estimates: Dict[str, float] = {}
        for term in query.terms:
            stats = RelationStats.of(term.relation)
            selectivity = stats.selectivity(term.predicate.as_dict)
            qualifying = selectivity * stats.num_tuples
            estimates[term.relation.name] = qualifying
            if term.function is None:
                access = "boolean"
            elif qualifying <= self.rank_access_multiplier * query.k:
                access = "boolean"
            else:
                access = "rank"
            relation_plans.append(RelationPlan(
                relation_name=term.relation.name,
                access=access,
                estimated_qualifying=qualifying,
            ))
        order = tuple(sorted(estimates, key=estimates.get))
        return JoinPlan(relation_plans=tuple(relation_plans), order=order)

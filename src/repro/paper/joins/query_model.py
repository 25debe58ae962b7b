"""SPJR query model: selection, projection, join and ranking (Section 6.1.1).

A multi-relational ranked query names, for every participating relation, a
boolean predicate over its selection dimensions and a ranking sub-function
over its ranking dimensions; relations are connected by equi-join conditions
on selection attributes; and the overall score of a join result is the sum
of the per-relation sub-scores (a monotone combination, as in rank-join
systems), minimized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import QueryError
from repro.functions.base import RankingFunction
from repro.query import Predicate
from repro.storage.table import Relation


@dataclass(frozen=True)
class RelationTerm:
    """One relation's share of an SPJR query."""

    relation: Relation
    predicate: Predicate
    function: Optional[RankingFunction] = None

    def validate(self) -> None:
        """Check the predicate and sub-function against the relation schema."""
        self.predicate.validate(self.relation)
        if self.function is not None:
            for dim in self.function.dims:
                if not self.relation.schema.is_ranking(dim):
                    raise QueryError(
                        f"ranking dimension {dim!r} is not part of relation "
                        f"{self.relation.name}")

    def score(self, tid: int) -> float:
        """Sub-score of one tuple (0 when the relation contributes no ranking)."""
        if self.function is None:
            return 0.0
        return self.function.evaluate_tuple(self.relation, tid)


@dataclass(frozen=True)
class JoinCondition:
    """Equi-join between a selection attribute of two relations."""

    left_relation: str
    left_dim: str
    right_relation: str
    right_dim: str


@dataclass(frozen=True)
class SPJRQuery:
    """A complete select-project-join-rank query."""

    terms: Tuple[RelationTerm, ...]
    joins: Tuple[JoinCondition, ...]
    k: int

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise QueryError("k must be positive")
        if not self.terms:
            raise QueryError("an SPJR query needs at least one relation term")
        names = [term.relation.name for term in self.terms]
        if len(set(names)) != len(names):
            raise QueryError("relation names must be unique within an SPJR query")

    def validate(self) -> None:
        """Validate every term and join condition."""
        by_name = {term.relation.name: term for term in self.terms}
        for term in self.terms:
            term.validate()
        for join in self.joins:
            for rel_name, dim in ((join.left_relation, join.left_dim),
                                  (join.right_relation, join.right_dim)):
                term = by_name.get(rel_name)
                if term is None:
                    raise QueryError(f"join references unknown relation {rel_name!r}")
                if not term.relation.schema.is_selection(dim):
                    raise QueryError(
                        f"join attribute {dim!r} is not a selection dimension of {rel_name}")

    def term_for(self, relation_name: str) -> RelationTerm:
        """Look up one relation's term by name."""
        for term in self.terms:
            if term.relation.name == relation_name:
                return term
        raise QueryError(f"no term for relation {relation_name!r}")


@dataclass
class JoinResult:
    """One joined answer: the per-relation tids and the combined score."""

    tids: Dict[str, int]
    score: float

    def key(self) -> Tuple[Tuple[str, int], ...]:
        """Hashable identity of the join combination."""
        return tuple(sorted(self.tids.items()))

"""The ranking-cube join system (Figure 6.1): cubes + optimizer + executor.

One :class:`SignatureRankingCube` is built per registered relation; an SPJR
query is planned by the optimizer and executed by the rank-join executor
pulling from per-relation rank streams (or boolean-filtered streams when the
optimizer decides the predicate is selective enough).

:func:`register_joins` puts the system on an existing
:class:`~repro.engine.Executor`, which imports nothing from here.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence

from repro.engine.executor import Executor
from repro.engine.plan import KIND_JOIN
from repro.engine.registry import Backend
from repro.errors import QueryError
from repro.paper.joins.executor import RankJoinExecutor
from repro.paper.joins.optimizer import JoinPlan, SPJROptimizer
from repro.paper.joins.query_model import JoinResult, SPJRQuery
from repro.paper.joins.rank_stream import RankStream, StreamEntry
from repro.query import QueryResult
from repro.paper.signature.cube import SignatureRankingCube
from repro.storage.table import Relation


class BooleanStream(RankStream):
    """Stream for boolean-access relations: filter first, then sort by score."""

    def __init__(self, cube: SignatureRankingCube, predicate, function) -> None:
        super().__init__(cube, predicate, function)

    def _generate(self) -> Iterator[StreamEntry]:
        relation = self.relation
        tids = relation.tids_matching(self.predicate.as_dict)
        scored = [
            (self.function.evaluate_tuple(relation, int(tid)), int(tid)) for tid in tids
        ]
        scored.sort()
        for score, tid in scored:
            self.pulled += 1
            yield StreamEntry(tid=tid, score=float(score))


class RankingCubeJoinSystem:
    """End-to-end SPJR processing over ranking cubes."""

    def __init__(self, relations: Sequence[Relation],
                 rtree_max_entries: int = 32) -> None:
        self.relations: Dict[str, Relation] = {}
        self.cubes: Dict[str, SignatureRankingCube] = {}
        for relation in relations:
            if relation.name in self.relations:
                raise QueryError(f"duplicate relation name {relation.name!r}")
            self.relations[relation.name] = relation
            self.cubes[relation.name] = SignatureRankingCube(
                relation, rtree_max_entries=rtree_max_entries)
        self.optimizer = SPJROptimizer()

    def plan(self, query: SPJRQuery) -> JoinPlan:
        """Expose the optimizer's plan (used by the tests and examples)."""
        return self.optimizer.plan(query)

    def query(self, query: SPJRQuery) -> QueryResult:
        """Plan and execute an SPJR query."""
        query.validate()
        plan = self.optimizer.plan(query)
        streams: Dict[str, RankStream] = {}
        for term in query.terms:
            name = term.relation.name
            cube = self.cubes.get(name)
            if cube is None:
                raise QueryError(f"relation {name!r} is not registered with the system")
            relation_plan = plan.plan_for(name)
            if relation_plan.access == "rank":
                streams[name] = RankStream(cube, term.predicate, term.function)
            else:
                streams[name] = BooleanStream(cube, term.predicate, term.function)
        executor = RankJoinExecutor(query, streams, order=plan.order)
        result = executor.execute()
        result.extra["plan_order"] = float(len(plan.order))
        self.last_detailed: List[JoinResult] = executor.last_results
        return result

    def query_detailed(self, query: SPJRQuery) -> List[JoinResult]:
        """Execute and return full per-relation tid mappings."""
        self.query(query)
        return list(self.last_detailed)


class IndexMergeBackend(Backend):
    """Multi-relation ranked joins via index merging (Chapters 5–6)."""

    kind = KIND_JOIN

    def __init__(self, system, name: str = "index-merge", priority: int = 10) -> None:
        self.system = system
        self.name = name
        self.priority = priority

    def supports(self, query) -> bool:
        if not (hasattr(query, "terms") and hasattr(query, "joins")):
            return False
        return all(term.relation.name in self.system.relations
                   for term in query.terms)

    def plan_details(self, query) -> Dict[str, object]:
        try:
            plan = self.system.plan(query)
        except Exception:
            return {}
        access = ",".join(
            f"{name}:{plan.plan_for(name).access}" for name in plan.order)
        return {"join_order": "->".join(plan.order), "access": access}

    def run(self, query):
        return self.system.query(query)


def register_join_system(executor: Executor, system: RankingCubeJoinSystem,
                         name: str = "index-merge") -> Backend:
    """Register a multi-relation join system as the ``join`` backend."""
    return executor.register(IndexMergeBackend(system, name=name))


def register_joins(executor: Executor, relations: Sequence[Relation], *,
                   rtree_max_entries: int = 32) -> Backend:
    """Build the join system over ``relations``, register it, watch them."""
    system = RankingCubeJoinSystem(relations, rtree_max_entries=rtree_max_entries)
    for relation in relations:
        executor.watch_relation(relation)
    return register_join_system(executor, system)

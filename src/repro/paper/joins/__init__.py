"""Chapter 6: SPJR (select-project-join-rank) queries over multiple relations."""

from repro.paper.joins.executor import RankJoinExecutor
from repro.paper.joins.optimizer import JoinPlan, RelationPlan, SPJROptimizer
from repro.paper.joins.query_model import (
    JoinCondition,
    JoinResult,
    RelationTerm,
    SPJRQuery,
)
from repro.paper.joins.rank_stream import RankStream, StreamEntry
from repro.paper.joins.system import (
    BooleanStream,
    IndexMergeBackend,
    RankingCubeJoinSystem,
    register_join_system,
    register_joins,
)

__all__ = [
    "RankJoinExecutor",
    "JoinPlan",
    "RelationPlan",
    "SPJROptimizer",
    "JoinCondition",
    "JoinResult",
    "RelationTerm",
    "SPJRQuery",
    "RankStream",
    "StreamEntry",
    "BooleanStream",
    "IndexMergeBackend",
    "RankingCubeJoinSystem",
    "register_join_system",
    "register_joins",
]

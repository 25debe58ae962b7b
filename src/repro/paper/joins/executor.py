"""Rank-join execution: multi-way join with list pruning (Sections 6.3.2–6.3.3).

The executor pulls from per-relation rank streams in round-robin, joins new
arrivals against hash tables of everything already seen from the other
relations (the multi-way join), and stops once k complete results score no
worse than the rank-join threshold — the best score any future combination
could reach, given the last scores pulled from each stream.  List pruning
discards seen tuples that can no longer contribute a result better than the
current k-th answer.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import QueryError
from repro.paper.joins.query_model import JoinResult, SPJRQuery
from repro.paper.joins.rank_stream import RankStream, StreamEntry
from repro.query import QueryResult


class RankJoinExecutor:
    """HRJN-style rank join over an ordered list of rank streams."""

    def __init__(self, query: SPJRQuery, streams: Dict[str, RankStream],
                 order: Optional[Sequence[str]] = None) -> None:
        query.validate()
        self.query = query
        self.streams = dict(streams)
        self.order: List[str] = list(order) if order else [
            term.relation.name for term in query.terms]
        missing = [name for name in self.order if name not in self.streams]
        if missing:
            raise QueryError(f"no rank stream supplied for relations {missing}")
        self._join_dims = self._resolve_join_dims()

    def _resolve_join_dims(self) -> Dict[str, List[Tuple[str, str, str]]]:
        """Per relation: (own join dim, other relation, other join dim)."""
        result: Dict[str, List[Tuple[str, str, str]]] = {name: [] for name in self.order}
        for join in self.query.joins:
            result[join.left_relation].append(
                (join.left_dim, join.right_relation, join.right_dim))
            result[join.right_relation].append(
                (join.right_dim, join.left_relation, join.left_dim))
        return result

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def execute(self) -> QueryResult:
        """Run the rank join until the top-k results are guaranteed."""
        start = time.perf_counter()
        iterators = {name: iter(self.streams[name]) for name in self.order}
        exhausted: Set[str] = set()
        # Seen tuples per relation: tid -> score.
        seen: Dict[str, Dict[int, float]] = {name: {} for name in self.order}
        last_score: Dict[str, float] = {name: 0.0 for name in self.order}
        first_score: Dict[str, float] = {}
        results: List[Tuple[float, Tuple[Tuple[str, int], ...]]] = []
        result_keys: Set[Tuple[Tuple[str, int], ...]] = set()
        pulls = 0

        def kth_score() -> float:
            if len(results) < self.query.k:
                return float("inf")
            return results[self.query.k - 1][0]

        def threshold() -> float:
            # Best possible future score: one stream at its last seen score,
            # the others at their first (best) scores.
            if any(name not in first_score for name in self.order):
                return -float("inf")
            best = float("inf")
            for name in self.order:
                if name in exhausted:
                    continue
                candidate = last_score[name] + sum(
                    first_score[other] for other in self.order if other != name)
                best = min(best, candidate)
            if all(name in exhausted for name in self.order):
                return float("inf")
            return best

        def try_join(name: str, entry: StreamEntry) -> None:
            """Join a new arrival against seen tuples of every other relation."""
            partner_lists: List[List[Tuple[int, float]]] = []
            for other in self.order:
                if other == name:
                    continue
                candidates = self._join_partners(name, entry.tid, other, seen[other])
                if not candidates:
                    return
                partner_lists.append([(other, tid, score) for tid, score in candidates])
            for combo in itertools.product(*partner_lists) if partner_lists else [()]:
                tids = {name: entry.tid}
                score = entry.score
                valid = True
                for other, tid, other_score in combo:
                    tids[other] = tid
                    score += other_score
                if len(self.order) > 2 and not self._combo_joins(tids):
                    valid = False
                if not valid:
                    continue
                key = tuple(sorted(tids.items()))
                if key in result_keys:
                    continue
                result_keys.add(key)
                results.append((score, key))
                results.sort(key=lambda pair: pair[0])
                del results[self.query.k:]

        while True:
            progressed = False
            for name in self.order:
                if name in exhausted:
                    continue
                try:
                    entry = next(iterators[name])
                except StopIteration:
                    exhausted.add(name)
                    continue
                progressed = True
                pulls += 1
                seen[name][entry.tid] = entry.score
                last_score[name] = entry.score
                first_score.setdefault(name, entry.score)
                try_join(name, entry)
            if not progressed:
                break
            # Strict halt: a join result tying the k-th score may still win
            # the canonical (score, tid) tie-break.
            if len(results) >= self.query.k and kth_score() < threshold():
                break

        elapsed = time.perf_counter() - start
        top = results[: self.query.k]
        self.last_results = [
            JoinResult(tids=dict(key), score=score) for score, key in top
        ]
        flat_tids = tuple(dict(key)[self.order[0]] for _, key in top)
        return QueryResult(
            tids=flat_tids,
            scores=tuple(score for score, _ in top),
            tuples_evaluated=pulls,
            elapsed_seconds=elapsed,
            extra={"stream_pulls": float(pulls),
                   **{f"pulled_{name}": float(self.streams[name].pulled)
                      for name in self.order}},
        )

    def execute_detailed(self) -> List[JoinResult]:
        """Run the rank join and return full per-relation tid mappings."""
        self.execute()
        return list(self.last_results)

    def brute_force_results(self, limit: int) -> List[Tuple[float, Tuple[Tuple[str, int], ...]]]:
        """Exhaustive nested-loop join oracle (used by the tests)."""
        all_matches: List[Tuple[float, Tuple[Tuple[str, int], ...]]] = []
        per_relation: Dict[str, List[Tuple[int, float]]] = {}
        for term in self.query.terms:
            name = term.relation.name
            tids = term.relation.tids_matching(term.predicate.as_dict)
            per_relation[name] = [(int(t), term.score(int(t))) for t in tids]
        names = [term.relation.name for term in self.query.terms]
        for combo in itertools.product(*(per_relation[n] for n in names)):
            tids = {name: tid for name, (tid, _) in zip(names, combo)}
            if not self._combo_joins(tids):
                continue
            score = sum(score for _, score in combo)
            all_matches.append((score, tuple(sorted(tids.items()))))
        all_matches.sort(key=lambda pair: pair[0])
        return all_matches[:limit]

    # ------------------------------------------------------------------
    # join predicates
    # ------------------------------------------------------------------
    def _join_partners(self, name: str, tid: int, other: str,
                       candidates: Dict[int, float]) -> List[Tuple[int, float]]:
        """Seen tuples of ``other`` that join with tuple ``tid`` of ``name``."""
        conditions = [
            (own_dim, other_dim)
            for own_dim, other_name, other_dim in self._join_dims.get(name, [])
            if other_name == other
        ]
        own_relation = self.query.term_for(name).relation
        other_relation = self.query.term_for(other).relation
        if not conditions:
            return list(candidates.items())
        own_values = own_relation.selection_values(tid)
        matches: List[Tuple[int, float]] = []
        for other_tid, score in candidates.items():
            other_values = other_relation.selection_values(other_tid)
            if all(own_values[a] == other_values[b] for a, b in conditions):
                matches.append((other_tid, score))
        return matches

    def _combo_joins(self, tids: Dict[str, int]) -> bool:
        """Whether a full combination satisfies every join condition."""
        for join in self.query.joins:
            left = self.query.term_for(join.left_relation).relation
            right = self.query.term_for(join.right_relation).relation
            lval = left.selection_values(tids[join.left_relation])[join.left_dim]
            rval = right.selection_values(tids[join.right_relation])[join.right_dim]
            if lval != rval:
                return False
        return True

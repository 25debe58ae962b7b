"""Tests for SPJR queries: model, optimizer, rank streams, rank join."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import QueryError
from repro.functions import LinearFunction, SquaredDistanceFunction
from repro.paper.joins import (
    BooleanStream,
    JoinCondition,
    RankJoinExecutor,
    RankStream,
    RankingCubeJoinSystem,
    RelationTerm,
    SPJROptimizer,
    SPJRQuery,
)
from repro.query import Predicate
from repro.paper.signature import SignatureRankingCube
from repro.storage.table import Relation, Schema
from repro.workloads import SyntheticSpec, generate_relation


@pytest.fixture(scope="module")
def relations():
    r1 = generate_relation(SyntheticSpec(num_tuples=600, num_selection_dims=2,
                                         num_ranking_dims=2, cardinality=4, seed=91),
                           name="R1")
    r2 = generate_relation(SyntheticSpec(num_tuples=500, num_selection_dims=2,
                                         num_ranking_dims=2, cardinality=4, seed=92),
                           name="R2")
    return r1, r2


@pytest.fixture(scope="module")
def system(relations):
    return RankingCubeJoinSystem(list(relations), rtree_max_entries=16)


def make_query(r1, r2, k=5):
    return SPJRQuery(
        terms=(
            RelationTerm(r1, Predicate.of(A2=1), LinearFunction(["N1", "N2"], [1, 1])),
            RelationTerm(r2, Predicate.of(A2=2), LinearFunction(["N1"], [1.0])),
        ),
        joins=(JoinCondition("R1", "A1", "R2", "A1"),),
        k=k,
    )


class TestQueryModel:
    def test_validation(self, relations):
        r1, r2 = relations
        with pytest.raises(QueryError):
            SPJRQuery(terms=(), joins=(), k=5)
        with pytest.raises(QueryError):
            make_query(r1, r2, k=0)
        with pytest.raises(QueryError):
            SPJRQuery(terms=(RelationTerm(r1, Predicate.of()),
                             RelationTerm(r1, Predicate.of())), joins=(), k=1)
        query = make_query(r1, r2)
        query.validate()
        assert query.term_for("R1").relation is r1
        with pytest.raises(QueryError):
            query.term_for("R9")

    def test_join_condition_validation(self, relations):
        r1, r2 = relations
        bad = SPJRQuery(
            terms=(RelationTerm(r1, Predicate.of()), RelationTerm(r2, Predicate.of())),
            joins=(JoinCondition("R1", "N1", "R2", "A1"),), k=1)
        with pytest.raises(QueryError):
            bad.validate()
        unknown = SPJRQuery(
            terms=(RelationTerm(r1, Predicate.of()), RelationTerm(r2, Predicate.of())),
            joins=(JoinCondition("R9", "A1", "R2", "A1"),), k=1)
        with pytest.raises(QueryError):
            unknown.validate()

    def test_relation_term_score(self, relations):
        r1, _ = relations
        term = RelationTerm(r1, Predicate.of(), LinearFunction(["N1"], [2.0]))
        assert term.score(0) == pytest.approx(2 * r1.ranking_values(0, ["N1"])[0])
        assert RelationTerm(r1, Predicate.of()).score(0) == 0.0


class TestOptimizer:
    def test_order_prefers_selective_relation(self, relations):
        r1, r2 = relations
        query = SPJRQuery(
            terms=(
                RelationTerm(r1, Predicate.of(A1=1, A2=1),
                             LinearFunction(["N1"], [1.0])),
                RelationTerm(r2, Predicate.of(), LinearFunction(["N1"], [1.0])),
            ),
            joins=(JoinCondition("R1", "A1", "R2", "A1"),), k=5)
        plan = SPJROptimizer().plan(query)
        assert plan.order[0] == "R1"
        assert plan.plan_for("R1").estimated_qualifying < \
            plan.plan_for("R2").estimated_qualifying

    def test_access_method_selection(self, relations):
        r1, r2 = relations
        query = SPJRQuery(
            terms=(
                RelationTerm(r1, Predicate.of(A1=0, A2=0),
                             LinearFunction(["N1"], [1.0])),
                RelationTerm(r2, Predicate.of(), LinearFunction(["N1"], [1.0])),
            ),
            joins=(), k=5)
        plan = SPJROptimizer().plan(query)
        assert plan.plan_for("R1").access == "boolean"   # very selective
        assert plan.plan_for("R2").access == "rank"      # unselective
        with pytest.raises(KeyError):
            plan.plan_for("R9")

    def test_no_ranking_contribution_uses_boolean(self, relations):
        r1, r2 = relations
        query = SPJRQuery(
            terms=(RelationTerm(r1, Predicate.of()),
                   RelationTerm(r2, Predicate.of(), LinearFunction(["N1"], [1.0]))),
            joins=(), k=1)
        plan = SPJROptimizer().plan(query)
        assert plan.plan_for("R1").access == "boolean"


class TestRankStream:
    def test_stream_is_sorted_and_filtered(self, relations, system):
        r1, _ = relations
        cube = system.cubes["R1"]
        predicate = Predicate.of(A1=1)
        function = LinearFunction(["N1", "N2"], [1.0, 1.0])
        stream = RankStream(cube, predicate, function)
        entries = list(stream)
        scores = [e.score for e in entries]
        assert scores == sorted(scores)
        expected_tids = set(r1.tids_matching(predicate.as_dict))
        assert {e.tid for e in entries} == expected_tids

    def test_boolean_stream_matches_rank_stream(self, relations, system):
        cube = system.cubes["R2"]
        predicate = Predicate.of(A2=2)
        function = LinearFunction(["N1"], [1.0])
        rank_entries = [(e.tid, round(e.score, 9)) for e in
                        RankStream(cube, predicate, function)]
        bool_entries = [(e.tid, round(e.score, 9)) for e in
                        BooleanStream(cube, predicate, function)]
        assert sorted(rank_entries) == sorted(bool_entries)
        assert [s for _, s in bool_entries] == sorted(s for _, s in bool_entries)

    def test_stream_without_function(self, system):
        cube = system.cubes["R1"]
        stream = RankStream(cube, Predicate.of(A1=0), None)
        entries = list(stream)
        assert all(e.score == 0.0 for e in entries)


class TestRankJoin:
    def test_matches_brute_force(self, relations, system):
        r1, r2 = relations
        query = make_query(r1, r2, k=5)
        result = system.query(query)
        executor = RankJoinExecutor(query, {
            "R1": RankStream(system.cubes["R1"], query.terms[0].predicate,
                             query.terms[0].function),
            "R2": RankStream(system.cubes["R2"], query.terms[1].predicate,
                             query.terms[1].function),
        })
        expected = executor.brute_force_results(5)
        assert list(result.scores) == pytest.approx([s for s, _ in expected])

    def test_detailed_results_satisfy_join_and_predicates(self, relations, system):
        r1, r2 = relations
        query = make_query(r1, r2, k=5)
        detailed = system.query_detailed(query)
        assert len(detailed) == 5
        for res in detailed:
            t1, t2 = res.tids["R1"], res.tids["R2"]
            assert r1.selection_values(t1)["A1"] == r2.selection_values(t2)["A1"]
            assert r1.selection_values(t1)["A2"] == 1
            assert r2.selection_values(t2)["A2"] == 2
            expected_score = (query.terms[0].score(t1) + query.terms[1].score(t2))
            assert res.score == pytest.approx(expected_score)

    def test_scores_are_sorted(self, relations, system):
        query = make_query(*relations, k=10)
        result = system.query(query)
        assert list(result.scores) == sorted(result.scores)

    def test_join_pulls_less_than_full_relations(self, relations, system):
        r1, r2 = relations
        query = make_query(r1, r2, k=3)
        result = system.query(query)
        qualifying = (len(r1.tids_matching({"A2": 1}))
                      + len(r2.tids_matching({"A2": 2})))
        assert result.extra["stream_pulls"] <= qualifying

    def test_missing_stream_rejected(self, relations, system):
        query = make_query(*relations)
        with pytest.raises(QueryError):
            RankJoinExecutor(query, {})

    def test_unregistered_relation_rejected(self, relations):
        r1, r2 = relations
        system = RankingCubeJoinSystem([r1], rtree_max_entries=16)
        with pytest.raises(QueryError):
            system.query(make_query(r1, r2))

    def test_duplicate_relation_names_rejected(self, relations):
        r1, _ = relations
        with pytest.raises(QueryError):
            RankingCubeJoinSystem([r1, r1])


class TestWorkedExample:
    """The spirit of thesis Table 6.1 / Figure 6.2: a tiny two-relation join."""

    def test_two_relation_top2(self):
        schema = Schema(("J",), ("P",))
        r1 = Relation.from_rows(schema, [
            {"J": 1, "P": 0.1}, {"J": 1, "P": 0.4}, {"J": 2, "P": 0.2},
            {"J": 3, "P": 0.9},
        ], name="L")
        r2 = Relation.from_rows(schema, [
            {"J": 1, "P": 0.3}, {"J": 2, "P": 0.1}, {"J": 2, "P": 0.8},
            {"J": 4, "P": 0.05},
        ], name="R")
        system = RankingCubeJoinSystem([r1, r2], rtree_max_entries=4)
        query = SPJRQuery(
            terms=(RelationTerm(r1, Predicate.of(), LinearFunction(["P"], [1.0])),
                   RelationTerm(r2, Predicate.of(), LinearFunction(["P"], [1.0]))),
            joins=(JoinCondition("L", "J", "R", "J"),), k=2)
        detailed = system.query_detailed(query)
        assert len(detailed) == 2
        # Best combination: L tid 2 (J=2, 0.2) with R tid 1 (J=2, 0.1) = 0.3,
        # then L tid 0 (J=1, 0.1) with R tid 0 (J=1, 0.3) = 0.4.
        assert detailed[0].tids == {"L": 2, "R": 1}
        assert detailed[0].score == pytest.approx(0.3)
        assert detailed[1].tids == {"L": 0, "R": 0}
        assert detailed[1].score == pytest.approx(0.4)

"""Tests for the statistics-driven cost-based planner and its plumbing."""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest

from repro.engine import (
    CostModel,
    Executor,
    MODE_COST,
    MODE_STATIC,
    Planner,
    RelationStatistics,
    StatisticsCatalog,
)
from repro.engine.cost import CostEstimate
from repro.errors import PlanningError
from repro.functions import LinearFunction
from repro.functions.linear import skewed_linear_function, sum_function
from repro.query import Predicate, SkylineQuery, TopKQuery
from repro.storage.table import Relation
from repro.workloads import (
    QuerySpec,
    SyntheticSpec,
    generate_queries,
    generate_relation,
)


def skewed_planner_workload(relation: Relation, seed: int = 29,
                            count: int = 36) -> List[TopKQuery]:
    """A routing-sensitive top-k mix for planner-quality comparisons.

    The workload deliberately skews toward the query shapes where the
    right access method depends on the data, cycling three families:

    * *broad* — empty or single-dimension predicates with small ``k``,
      where a branch-and-bound index touches far fewer tuples than a
      block-granular cube;
    * *selective* — two-dimension predicates with moderate selectivity,
      the grid cube's home turf;
    * *absent* — predicate values provably outside every dimension's value
      set, where statistics alone answer the query.

    Functions are skewed linear (skewness 3), so weight mass concentrates
    on one dimension — the paper's hard case for uniform partitions.
    Deterministic in ``seed``.
    """
    rng = np.random.default_rng(seed)
    sel_dims = list(relation.selection_dims)
    rank_dims = list(relation.ranking_dims)
    queries: List[TopKQuery] = []
    ks = (1, 5, 10)
    for i in range(count):
        # Decorrelated from the family cycle below, so every family runs
        # under every k.
        k = ks[(i // 3) % len(ks)]
        function = skewed_linear_function(
            list(rng.permutation(rank_dims)), 3.0, rng=rng)
        family = i % 3
        if family == 0:  # broad
            conditions: Dict[str, int] = {}
            if i % 6 == 3 and sel_dims:
                dim = sel_dims[int(rng.integers(0, len(sel_dims)))]
                column = relation.selection_column(dim)
                conditions[dim] = int(column[rng.integers(0, len(column))])
        elif family == 1:  # selective
            dims = list(rng.choice(sel_dims, size=min(2, len(sel_dims)),
                                   replace=False))
            tid = int(rng.integers(0, relation.num_tuples))
            values = relation.selection_values(tid)
            conditions = {dim: values[dim] for dim in dims}
        else:  # absent: values no tuple carries
            dim = sel_dims[i % len(sel_dims)]
            absent = int(relation.selection_column(dim).max()) + 1 + i
            conditions = {dim: absent}
        queries.append(TopKQuery(Predicate.of(conditions), function, k))
    return queries



@pytest.fixture(scope="module")
def relation():
    return generate_relation(SyntheticSpec(num_tuples=3000, num_selection_dims=3,
                                           num_ranking_dims=2, cardinality=8,
                                           seed=111))


@pytest.fixture(scope="module")
def executor(relation):
    return Executor.for_relation(relation, block_size=200, rtree_max_entries=16)


@pytest.fixture(scope="module")
def paper_executor(relation):
    """The module stack under the first cost model's hand-set constants,
    for the tests that pin its routing."""
    return Executor.for_relation(relation, block_size=200, rtree_max_entries=16,
                                 cost_model=CostModel(**CostModel.PAPER))


@pytest.fixture(scope="module")
def static_executor(relation):
    return Executor.for_relation(relation, block_size=200, rtree_max_entries=16,
                                 planner_mode=MODE_STATIC)


def _workload(relation):
    queries = generate_queries(
        relation, QuerySpec(k=10, num_selection_conditions=2,
                            num_ranking_dims=2, skewness=2.0, seed=5), count=6)
    queries += skewed_planner_workload(relation, seed=8, count=12)
    queries.append(SkylineQuery(Predicate.of(A1=1), ("N1", "N2")))
    queries.append(SkylineQuery(Predicate.of(), ("N1", "N2"),
                                targets=(0.5, 0.5)))
    return queries


class TestRelationStatistics:
    def test_profile_matches_relation(self, relation):
        stats = RelationStatistics.of(relation)
        assert stats.num_tuples == relation.num_tuples
        for dim in relation.selection_dims:
            assert stats.selection_cardinalities[dim] == relation.cardinality(dim)
            column = relation.selection_column(dim)
            assert stats.selection_values[dim] == {int(v) for v in column}
        for dim in relation.ranking_dims:
            column = relation.ranking_column(dim)
            assert stats.ranking_ranges[dim] == (float(column.min()),
                                                 float(column.max()))

    def test_selectivity_product_and_absent_value(self, relation):
        stats = RelationStatistics.of(relation)
        single = stats.selectivity(Predicate.of(A1=1))
        assert single == pytest.approx(1.0 / relation.cardinality("A1"))
        double = stats.selectivity(Predicate.of(A1=1, A2=2))
        assert double == pytest.approx(
            single / relation.cardinality("A2"))
        assert stats.selectivity(Predicate.of(A1=999)) == 0.0
        assert stats.expected_matches(Predicate.of(A1=999)) == 0.0
        ok, reason = stats.can_match(Predicate.of(A1=999))
        assert not ok and "outside relation values" in reason

    def test_score_floor_is_sound(self, relation):
        stats = RelationStatistics.of(relation)
        function = sum_function(["N1", "N2"])
        floor = stats.score_floor(function)
        scores = (relation.ranking_column("N1") + relation.ranking_column("N2"))
        assert floor <= scores.min()

    def test_catalog_caches_until_version_changes(self):
        rel = generate_relation(SyntheticSpec(num_tuples=200,
                                              num_selection_dims=2,
                                              num_ranking_dims=2,
                                              cardinality=4, seed=3))
        catalog = StatisticsCatalog()
        first = catalog.of(rel)
        assert catalog.of(rel) is first  # cached, not recomputed
        rel.append({"A1": 77, "A2": 0, "N1": 2.0, "N2": -1.0})
        refreshed = catalog.of(rel)
        assert refreshed is not first
        assert refreshed.num_tuples == 201
        assert 77 in refreshed.selection_values["A1"]
        assert refreshed.ranking_ranges["N1"][1] == 2.0
        catalog.invalidate()
        assert len(catalog) == 0


class TestCostBasedSelection:
    def test_candidate_sets_agree_across_modes(self, relation, executor,
                                               static_executor):
        """Cost mode re-ranks the same supported-candidate set, never edits it."""
        for query in _workload(relation):
            cost_plan = executor.plan(query)
            static_plan = static_executor.plan(query)
            assert cost_plan.candidates == static_plan.candidates
            assert cost_plan.mode == MODE_COST
            assert static_plan.mode == MODE_STATIC
            assert static_plan.backend == static_plan.candidates[0]

    def test_costs_and_inputs_recorded_in_details(self, executor):
        query = TopKQuery(Predicate.of(A1=1),
                          LinearFunction(["N1", "N2"], [1.0, 2.0]), 5)
        plan = executor.plan(query)
        estimates = plan.details["cost_estimates"]
        for name in plan.candidates:
            assert f"{name}:" in estimates
        assert plan.details["estimated_cost"] > 0
        inputs = plan.details["cost_inputs"]
        assert "selectivity=0.125" in inputs
        assert "expected_matches=375" in inputs
        assert "k=5" in inputs
        assert "shape=monotone" in inputs
        assert "mode=cost" in plan.describe()
        assert plan.as_dict()["mode"] == MODE_COST

    def test_selective_query_prefers_grid_cube(self, paper_executor):
        query = TopKQuery(Predicate.of(A1=1, A2=2),
                          LinearFunction(["N1", "N2"], [1.0, 2.0]), 5)
        assert paper_executor.plan(query).backend == "ranking-cube"

    def test_broad_small_k_prefers_signature_cube(self, paper_executor,
                                                  static_executor, relation):
        """An unselective predicate with small k favours node granularity."""
        query = TopKQuery(Predicate.of(), sum_function(["N1", "N2"]), 5)
        cost_plan = paper_executor.plan(query)
        assert cost_plan.backend == "signature-cube"
        assert static_executor.plan(query).backend == "ranking-cube"
        # The cheaper routing really is cheaper on the execution metric.
        cube = paper_executor.registry.get("ranking-cube").run(query)
        signature = paper_executor.registry.get("signature-cube").run(query)
        assert signature.tuples_evaluated < cube.tuples_evaluated
        assert signature.tids == cube.tids
        assert signature.scores == cube.scores

    def test_equal_costs_fall_back_to_static_tie_break(self, relation):
        from repro.storage.table_scan import TableScanTopK
        from repro.engine.backends import TableScanBackend

        scanner = TableScanTopK(relation)
        query = TopKQuery(Predicate.of(), LinearFunction(["N1"], [1.0]), 3)
        # Two identical scans cost exactly the same; the static
        # (priority, name) order must decide, independent of registration
        # order, and the plan still reports cost mode.
        for names in (("b-scan", "a-scan"), ("a-scan", "b-scan")):
            executor = Executor()
            for name in names:
                executor.register(TableScanBackend(scanner, name=name,
                                                   priority=50))
            plan = executor.plan(query)
            assert plan.backend == "a-scan"
            assert plan.mode == MODE_COST

    def test_unestimable_candidate_forces_static_fallback(self, relation):
        from repro.storage.table_scan import TableScanTopK
        from repro.engine.backends import TableScanBackend

        class OpaqueBackend(TableScanBackend):
            """A scan without a cost profile (e.g. a custom adapter)."""

            def cost_profile(self, query):
                return None

        executor = Executor()
        executor.register(TableScanBackend(TableScanTopK(relation),
                                           name="plain", priority=50))
        executor.register(OpaqueBackend(TableScanTopK(relation),
                                        name="opaque", priority=10))
        plan = executor.plan(TopKQuery(Predicate.of(),
                                       LinearFunction(["N1"], [1.0]), 3))
        assert plan.mode == MODE_STATIC
        assert plan.backend == "opaque"  # static order: lowest priority wins
        assert "cost_fallback" in plan.details

    def test_invalid_mode_rejected(self, executor):
        with pytest.raises(PlanningError):
            Planner(executor.registry, mode="oracle")

    def test_skyline_costing_keeps_bbs_first(self, executor):
        plan = executor.plan(SkylineQuery(Predicate.of(A1=1), ("N1", "N2")))
        assert plan.mode == MODE_COST
        assert plan.backend == "skyline"
        assert "preference_dims=2" in plan.details["cost_inputs"]

    def test_absent_value_routes_to_statistics_shortcut(self, executor):
        """A provably-absent value is answered for (near) free."""
        query = TopKQuery(Predicate.of(A1=999), sum_function(["N1", "N2"]), 5)
        plan = executor.plan(query)
        assert plan.mode == MODE_COST
        assert "selectivity=0" in plan.details["cost_inputs"]
        result = executor.registry.get(plan.backend).run(query)
        assert result.tids == ()
        assert result.tuples_evaluated == 0

    def test_subclassed_estimator_override_is_honoured(self, relation,
                                                       executor):
        class TunedModel(CostModel):
            """Overrides a whole estimator, not just the constants."""

            def _scan_topk(self, profile, query, stats, selectivity, matches):
                return 0.5, {"access": "scan-tuned"}

        backend = executor.registry.get("table-scan")
        stats = RelationStatistics.of(relation)
        query = TopKQuery(Predicate.of(A1=1), sum_function(["N1", "N2"]), 5)
        estimate = TunedModel().estimate(backend, query, stats)
        assert estimate.cost == 0.5
        assert estimate.inputs["access"] == "scan-tuned"
        assert CostModel().estimate(backend, query, stats).cost != 0.5

    def test_estimates_are_deterministic(self, relation, executor):
        model = CostModel()
        stats = RelationStatistics.of(relation)
        query = TopKQuery(Predicate.of(A1=1), sum_function(["N1", "N2"]), 5)
        backend = executor.registry.get("ranking-cube")
        first = model.estimate(backend, query, stats)
        second = model.estimate(backend, query, stats)
        assert isinstance(first, CostEstimate)
        assert first.cost == second.cost
        assert first.describe_inputs() == second.describe_inputs()


class TestCostVsStaticAnswers:
    def test_routings_agree_on_answers(self, relation, executor,
                                       static_executor):
        """Different routing, identical answers — cost is purely about speed."""
        for query in _workload(relation):
            if not isinstance(query, TopKQuery):
                continue
            cost_result = executor.execute(query)
            static_result = static_executor.execute(query)
            assert cost_result.tids == static_result.tids
            assert cost_result.scores == static_result.scores

    def test_cost_choice_scores_no_more_tuples_than_the_static_choice(self):
        """The routing-quality gate at its benchmark size, in counts: per
        query the cost-chosen backend answers as the statically chosen one
        does and scores at most its tuples; strictly fewer in aggregate."""
        relation = generate_relation(SyntheticSpec(
            num_tuples=8000, num_selection_dims=3, num_ranking_dims=2,
            cardinality=12, seed=17))
        executor = Executor.for_relation(
            relation, block_size=250, with_skyline=False,
            cost_model=CostModel(**CostModel.PAPER))
        static_planner = Planner(executor.registry, mode=MODE_STATIC)
        cost_total = static_total = 0
        for query in skewed_planner_workload(relation, seed=29, count=24):
            by_cost, by_priority = (
                executor.registry.get(planner.plan(query).backend).run(query)
                for planner in (executor.planner, static_planner))
            assert by_cost.tids == by_priority.tids
            assert by_cost.scores == by_priority.scores
            assert by_cost.tuples_evaluated <= by_priority.tuples_evaluated
            cost_total += by_cost.tuples_evaluated
            static_total += by_priority.tuples_evaluated
        assert cost_total < static_total

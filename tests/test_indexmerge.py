"""Tests for index merging: joint states, expanders, join-signatures, engines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import QueryError
from repro.functions import (
    ConstrainedFunction,
    ExpressionFunction,
    LinearFunction,
    SquaredDistanceFunction,
    Var,
)
from repro.paper.indexmerge import (
    MODE_BASELINE,
    MODE_PROGRESSIVE,
    MODE_SELECTIVE,
    IndexMergeTopK,
    JoinSignature,
    JoinSignatureSet,
    JointState,
    MergeContext,
    choose_expander,
)
from repro.paper.indexmerge.expansion import (
    FullExpander,
    NeighborhoodExpander,
    ThresholdExpander,
)
from repro.paper.indexmerge.join_signature import leaf_paths
from repro.paper.btree import BPlusTree
from repro.paper.rtree import RTree
from repro.workloads import SyntheticSpec, generate_relation


@pytest.fixture(scope="module")
def relation():
    return generate_relation(SyntheticSpec(num_tuples=1500, num_selection_dims=2,
                                           num_ranking_dims=3, cardinality=4, seed=61))


@pytest.fixture(scope="module")
def btrees(relation):
    return {
        dim: BPlusTree.build(dim, relation.ranking_column(dim), fanout=12)
        for dim in relation.ranking_dims
    }


@pytest.fixture(scope="module")
def pair_signature(btrees):
    return JoinSignatureSet.full([btrees["N1"], btrees["N2"]])


def oracle_scores(relation, function, k):
    values = relation.ranking_values_bulk(np.arange(relation.num_tuples), function.dims)
    scores = sorted(function.evaluate(row) for row in values)
    return [pytest.approx(s) for s in scores[:k]]


FUNCTIONS = {
    "semi_monotone": SquaredDistanceFunction(["N1", "N2"], [0.25, 0.75]),
    "general": ExpressionFunction((Var("N1") - Var("N2") ** 2) ** 2),
    "constrained": ConstrainedFunction(
        LinearFunction(["N1", "N2"], [1.0, 1.0]), "N2", 0.3, 0.5),
    "monotone": LinearFunction(["N1", "N2"], [1.0, 2.0]),
}


class TestJointState:
    def test_root_state_and_box(self, relation, btrees):
        context = MergeContext([btrees["N1"], btrees["N2"]], FUNCTIONS["monotone"])
        root = context.root_state()
        assert not root.is_leaf
        box = root.box()
        assert set(box.dims) == {"N1", "N2"}
        assert root.lower_bound(FUNCTIONS["monotone"]) <= 0.1
        assert root.key == ((), ())

    def test_child_coordinates(self, btrees):
        context = MergeContext([btrees["N1"], btrees["N2"]], FUNCTIONS["monotone"])
        root = context.root_state()
        children_lists = context.all_member_children(root)
        child = JointState((children_lists[0][0], children_lists[1][1]))
        assert root.child_coordinates(child) == (1, 2)

    def test_merge_requires_leaf(self, btrees):
        context = MergeContext([btrees["N1"], btrees["N2"]], FUNCTIONS["monotone"])
        with pytest.raises(QueryError):
            context.merge_leaf_state(context.root_state())

    def test_uncovered_dims_rejected(self, btrees):
        with pytest.raises(QueryError):
            MergeContext([btrees["N1"]], FUNCTIONS["monotone"])
        with pytest.raises(QueryError):
            MergeContext([], FUNCTIONS["monotone"])


class TestExpanders:
    @pytest.mark.parametrize("factory", [FullExpander, ThresholdExpander])
    def test_expanders_emit_children_in_bound_order(self, btrees, factory):
        function = FUNCTIONS["general"]
        context = MergeContext([btrees["N1"], btrees["N2"]], function)
        expander = factory(context, context.root_state())
        bounds = []
        for _ in range(10):
            state = expander.get_next()
            if state is None:
                break
            bounds.append(state.lower_bound(function))
        assert bounds == sorted(bounds)

    def test_neighborhood_expander_matches_threshold_front(self, btrees):
        function = FUNCTIONS["semi_monotone"]
        context = MergeContext([btrees["N1"], btrees["N2"]], function)
        neighborhood = NeighborhoodExpander(context, context.root_state())
        threshold = ThresholdExpander(context, context.root_state())
        n_first = [neighborhood.get_next().lower_bound(function) for _ in range(5)]
        t_first = [threshold.get_next().lower_bound(function) for _ in range(5)]
        assert n_first == pytest.approx(t_first)

    def test_peek_matches_next(self, btrees):
        function = FUNCTIONS["monotone"]
        context = MergeContext([btrees["N1"], btrees["N2"]], function)
        expander = ThresholdExpander(context, context.root_state())
        peeked = expander.peek_bound()
        state = expander.get_next()
        assert state.lower_bound(function) == pytest.approx(peeked)

    def test_choose_expander_strategy(self, relation, btrees):
        context = MergeContext([btrees["N1"], btrees["N2"]], FUNCTIONS["monotone"])
        root = context.root_state()
        assert isinstance(choose_expander(context, root, progressive=False), FullExpander)
        assert isinstance(choose_expander(context, root), NeighborhoodExpander)
        general = MergeContext([btrees["N1"], btrees["N2"]], FUNCTIONS["general"])
        assert isinstance(choose_expander(general, general.root_state()),
                          ThresholdExpander)
        points = relation.ranking_values_bulk(np.arange(relation.num_tuples),
                                              ["N1", "N2"])
        rtree = RTree.build(["N1", "N2"], points, max_entries=16)
        rtree_context = MergeContext([rtree, btrees["N3"]],
                                     SquaredDistanceFunction(["N1", "N3"], [0.5, 0.5]))
        assert isinstance(choose_expander(rtree_context, rtree_context.root_state()),
                          ThresholdExpander)


class TestJoinSignature:
    def test_requires_two_indexes(self, btrees):
        from repro.errors import SignatureError
        with pytest.raises(SignatureError):
            JoinSignature([btrees["N1"]])

    def test_nonempty_states_recorded(self, btrees, pair_signature):
        signature = next(iter(pair_signature.signatures.values()))
        assert signature.num_states() > 0
        assert signature.size_in_bytes() > 0
        assert signature.has_state(((), ()))
        assert signature.stats.build_seconds >= 0

    def test_child_pruning_is_sound(self, relation, btrees, pair_signature):
        """Every child declared empty really contains no tuple."""
        t1, t2 = btrees["N1"], btrees["N2"]
        leaf_paths_1 = leaf_paths(t1)
        leaf_paths_2 = leaf_paths(t2)
        function = FUNCTIONS["monotone"]
        context = MergeContext([t1, t2], function)
        root = context.root_state()
        children = context.all_member_children(root)
        for c1 in children[0][:4]:
            for c2 in children[1][:4]:
                child = JointState((c1, c2))
                declared = pair_signature.child_is_nonempty(
                    root.key, root.child_coordinates(child))
                truly = any(
                    leaf_paths_1[tid][: len(c1.path)] == c1.path
                    and leaf_paths_2[tid][: len(c2.path)] == c2.path
                    for tid in range(relation.num_tuples)
                )
                if truly:
                    assert declared, "a non-empty child must never be pruned"

    def test_unknown_parent_means_empty(self, pair_signature):
        fake_key = ((9, 9, 9), (9, 9, 9))
        assert not pair_signature.child_is_nonempty(fake_key, (1, 1))
        assert not pair_signature.state_is_known(fake_key)

    def test_pairwise_set_for_three_indexes(self, btrees):
        trio = [btrees["N1"], btrees["N2"], btrees["N3"]]
        pairwise = JoinSignatureSet.pairwise(trio)
        assert len(pairwise.signatures) == 3
        assert pairwise.size_in_bytes() > 0
        assert pairwise.build_seconds() >= 0


class TestEngines:
    @pytest.mark.parametrize("name", list(FUNCTIONS))
    @pytest.mark.parametrize("mode", [MODE_BASELINE, MODE_PROGRESSIVE, MODE_SELECTIVE])
    def test_all_modes_match_oracle(self, relation, btrees, pair_signature, name, mode):
        function = FUNCTIONS[name]
        engine = IndexMergeTopK(
            [btrees["N1"], btrees["N2"]], mode=mode,
            join_signatures=pair_signature if mode == MODE_SELECTIVE else None)
        result = engine.query(function, 10)
        finite_expected = [s for s in oracle_scores(relation, function, 10)]
        assert list(result.scores) == finite_expected[: len(result.scores)]

    def test_mode_validation(self, btrees):
        with pytest.raises(ValueError):
            IndexMergeTopK([btrees["N1"], btrees["N2"]], mode="??")
        with pytest.raises(ValueError):
            IndexMergeTopK([btrees["N1"], btrees["N2"]], mode=MODE_SELECTIVE)

    def test_progressive_generates_fewer_states_than_baseline(self, relation, btrees):
        function = FUNCTIONS["general"]
        baseline = IndexMergeTopK([btrees["N1"], btrees["N2"]], mode=MODE_BASELINE)
        progressive = IndexMergeTopK([btrees["N1"], btrees["N2"]], mode=MODE_PROGRESSIVE)
        r_bl = baseline.query(function, 20)
        r_pe = progressive.query(function, 20)
        assert r_pe.states_generated < r_bl.states_generated
        assert r_pe.peak_heap_size < r_bl.peak_heap_size

    def test_signature_prunes_further(self, relation, btrees, pair_signature):
        function = FUNCTIONS["general"]
        progressive = IndexMergeTopK([btrees["N1"], btrees["N2"]], mode=MODE_PROGRESSIVE)
        selective = IndexMergeTopK([btrees["N1"], btrees["N2"]], mode=MODE_SELECTIVE,
                                   join_signatures=pair_signature)
        r_pe = progressive.query(function, 20)
        r_sig = selective.query(function, 20)
        assert r_sig.states_generated <= r_pe.states_generated
        assert list(r_sig.scores) == list(r_pe.scores)

    def test_three_way_merge_with_pairwise_signatures(self, relation, btrees):
        trio = [btrees["N1"], btrees["N2"], btrees["N3"]]
        function = SquaredDistanceFunction(["N1", "N2", "N3"], [0.3, 0.6, 0.1])
        pairwise = JoinSignatureSet.pairwise(trio)
        engine = IndexMergeTopK(trio, mode=MODE_SELECTIVE, join_signatures=pairwise)
        result = engine.query(function, 10)
        assert list(result.scores) == oracle_scores(relation, function, 10)

    def test_rtree_merge(self, relation, btrees):
        points = relation.ranking_values_bulk(np.arange(relation.num_tuples),
                                              ["N1", "N2"])
        rtree = RTree.build(["N1", "N2"], points, max_entries=16)
        function = SquaredDistanceFunction(["N1", "N2", "N3"], [0.2, 0.4, 0.9])
        engine = IndexMergeTopK([rtree, btrees["N3"]], mode=MODE_PROGRESSIVE)
        result = engine.query(function, 10)
        assert list(result.scores) == oracle_scores(relation, function, 10)

    def test_partial_attribute_ranking(self, relation, btrees):
        # Only a subset of the indexed attributes participates in ranking
        # (Figure 5.18): merging still returns correct results.
        function = LinearFunction(["N1"], [1.0])
        engine = IndexMergeTopK([btrees["N1"], btrees["N2"]], mode=MODE_PROGRESSIVE)
        result = engine.query(function, 5)
        assert list(result.scores) == oracle_scores(relation, function, 5)

"""Integration tests for the grid ranking cube, fragments, and providers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cube import (
    RankingCube,
    TopKAccumulator,
    all_nonempty_subsets,
    build_ranking_fragments,
    find_start_block,
    fragment_groups,
)
from repro.errors import CubeError, QueryError
from repro.functions import (
    ConstrainedFunction,
    ExpressionFunction,
    LinearFunction,
    SquaredDistanceFunction,
    Var,
)
from repro.partition.grid import GridPartition
from repro.query import Predicate, TopKQuery
from repro.workloads import SyntheticSpec, generate_relation
from tests.conftest import brute_force_topk


@pytest.fixture(scope="module")
def relation():
    return generate_relation(SyntheticSpec(num_tuples=4000, num_selection_dims=4,
                                           num_ranking_dims=2, cardinality=6, seed=31))


@pytest.fixture(scope="module")
def cube(relation):
    return RankingCube(relation, block_size=150)


@pytest.fixture(scope="module")
def fragments(relation):
    return build_ranking_fragments(relation, fragment_size=2, block_size=150)


class TestTopKAccumulator:
    def test_keeps_best_k(self):
        acc = TopKAccumulator(3)
        for tid, score in enumerate([5.0, 1.0, 3.0, 0.5, 4.0]):
            acc.offer(tid, score)
        assert acc.ranked() == [(3, 0.5), (1, 1.0), (2, 3.0)]
        assert acc.kth_score == 3.0
        assert acc.is_full()
        assert len(acc) == 3

    def test_kth_score_before_full(self):
        acc = TopKAccumulator(2)
        acc.offer(0, 1.0)
        assert acc.kth_score == float("inf")
        assert not acc.is_full()

    def test_invalid_k(self):
        with pytest.raises(QueryError):
            TopKAccumulator(0)


# Few distinct scores, so ties (under distinct tids) at the k-th position
# are the common case; -0.0 and 0.0 tie and must keep their own bits.
SPECIAL_SCORES = st.sampled_from(
    [-np.inf, -1.5, -0.0, 0.0, 0.5, 0.5, 2.0, np.inf])
offered_tuples = st.lists(st.integers(0, 99), unique=True, max_size=40).flatmap(
    lambda tids: st.tuples(st.just(tids), st.lists(
        SPECIAL_SCORES, min_size=len(tids), max_size=len(tids))))


def _assert_is_the_lexsort_oracle(topk, tids, scores):
    """Every reader of ``topk`` against a lexsort of everything offered."""
    order = np.lexsort((np.array(tids, dtype=np.int64),
                        np.array(scores, dtype=np.float64)))[:topk.k]
    expected = ([tids[i] for i in order], [scores[i] for i in order])
    got = topk.ordered()
    assert got[0] == expected[0]
    assert (np.array(got[1]).tobytes()
            == np.array(expected[1], dtype=np.float64).tobytes())
    assert all(type(tid) is int for tid in got[0])
    assert all(type(score) is float for score in got[1])
    assert len(topk) == len(order)
    assert topk.is_full() == (len(order) == topk.k)
    assert topk.kth_score == (expected[1][-1] if topk.is_full()
                              else float("inf"))
    for bound in (-np.inf, -1.5, 0.0, 0.5, 1.0, np.inf):
        assert topk.verified_count(bound) == sum(
            score < bound for score in expected[1])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(offered_tuples, st.sampled_from([1, 2, 3, 5, 8, 40, 200]),
       st.lists(st.tuples(st.integers(0, 9), st.booleans()),
                min_size=1, max_size=6))
def test_any_offers_read_as_a_lexsort_of_everything_offered(scored, k, steps):
    """Scalar offers and bulk chunks (empty ones included) in any order:
    after every call the accumulator reads as the first k of a lexsort
    over all pairs offered so far, ``-0.0`` / ``0.0`` and ``±inf`` too."""
    tids, scores = scored
    topk = TopKAccumulator(k)
    start = 0
    for number in range(2 * len(tids) + 2):
        size, bulk = steps[number % len(steps)]
        chunk = slice(start, start + size)
        start += size
        if bulk:
            topk.offer_many(np.array(tids[chunk], dtype=np.int64),
                            np.array(scores[chunk], dtype=np.float64))
            _assert_is_the_lexsort_oracle(topk, tids[:start], scores[:start])
            continue
        for position, (tid, score) in enumerate(
                zip(tids[chunk], scores[chunk]), start=chunk.start + 1):
            topk.offer(tid, score)
            _assert_is_the_lexsort_oracle(
                topk, tids[:position], scores[:position])


def _corner_walk_start(grid, function):
    """The start block as the sweep derived it before the grid kept its
    corners and bisected its edges: ``Box`` corners, ``evaluate_mapping``
    and one ``np.searchsorted`` per coordinate — the reference."""
    domain = grid.domain()

    def bid_of(point):
        coords = []
        for dim in grid.dims:
            bounds = grid.boundaries[dim]
            idx = int(np.searchsorted(bounds, point[dim], side="right")) - 1
            coords.append(min(max(idx, 0), len(bounds) - 2))
        return grid.bid_of_coords(coords)

    minimum = function.minimum_point()
    if minimum is not None:
        return bid_of({dim: domain.interval(dim).clamp(
            minimum.get(dim, domain.interval(dim).low)) for dim in grid.dims})
    best_corner, best_score = None, float("inf")
    for corner in domain.project(function.dims).corners():
        score = function.evaluate_mapping(corner)
        if score < best_score:
            best_corner, best_score = corner, score
    if best_corner is None:
        return 0
    return bid_of({dim: best_corner.get(dim, domain.interval(dim).low)
                   for dim in grid.dims})


START_DIMS = ("N1", "N2", "N3")
start_grids = st.lists(
    st.lists(st.integers(-40, 40), min_size=2, max_size=7, unique=True).map(
        lambda cuts: np.array(sorted(c / 8 for c in cuts))),
    min_size=3, max_size=3)
# Every function reads a permutation of some of the grid's dims.
start_dims = st.permutations(START_DIMS).flatmap(
    lambda dims: st.integers(1, 3).map(lambda n: list(dims[:n])))
# Targets inside, on the edges of and outside the cuts' [-5, 5] range.
start_values = st.sampled_from([-9.0, -5.0, -1.25, 0.0, -0.0, 0.5, 3.0, 5.0, 9.0])


@st.composite
def start_functions(draw):
    dims = draw(start_dims)

    def per_dim(strategy):
        return [draw(strategy) for _ in dims]

    kind = draw(st.sampled_from(["linear", "squared", "expression", "constrained"]))
    if kind == "linear":  # mixed signs, zeros and ties between corners
        return LinearFunction(dims, per_dim(st.sampled_from(
            [-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0])), draw(start_values))
    if kind == "squared":
        return SquaredDistanceFunction(dims, per_dim(start_values),
                                       per_dim(st.sampled_from([0.0, 1.0, 2.5])))
    first = Var(dims[0])
    if kind == "expression":  # no minimum point: the corner walk decides
        return ExpressionFunction((first - draw(start_values)) ** 2 * -1.0
                                  + 0.5 * first, dims=dims)
    window = sorted([draw(start_values), draw(start_values)])
    return ConstrainedFunction(LinearFunction(dims, per_dim(st.sampled_from(
        [-1.0, 1.0]))), dims[0], *window)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(start_grids, start_functions())
def test_the_start_block_is_the_corner_walks(cuts, function):
    """``find_start_block`` over the grid's kept corner bids and bisected
    edges picks the bid the old per-query corner walk picked — a different
    start would reorder ties and so move the sweep's counts.  Asked twice:
    once deriving the corner bids, once reading them kept."""
    grid = GridPartition(START_DIMS, dict(zip(START_DIMS, cuts)))
    assert find_start_block(grid, function) == _corner_walk_start(grid, function)
    assert find_start_block(grid, function) == _corner_walk_start(grid, function)


class TestCubeStructure:
    def test_all_subsets_materialized(self, relation, cube):
        assert cube.num_cuboids() == 2 ** len(relation.selection_dims) - 1
        assert len(all_nonempty_subsets(["a", "b"])) == 3
        names = [cuboid.name for cuboid in cube.cuboids.values()]
        assert any(name.startswith("A1_") for name in names)

    def test_cuboid_dim_validation(self, relation):
        with pytest.raises(CubeError):
            RankingCube(relation, cuboid_dims=[()])

    def test_covering_cuboids_full_cube(self, cube):
        assert cube.covering_cuboids(["A1", "A3"]) == [("A1", "A3")]
        assert cube.covering_cuboids([]) == []

    def test_covering_cuboids_fragments(self, fragments):
        # Fragments are (A1,A2) and (A3,A4): a cross-fragment query needs two.
        chosen = fragments.covering_cuboids(["A1", "A3"])
        assert len(chosen) == 2
        assert {dim for dims in chosen for dim in dims} == {"A1", "A3"}
        within = fragments.covering_cuboids(["A3", "A4"])
        assert within == [("A3", "A4")]

    def test_fragment_groups_helper(self):
        assert fragment_groups(["a", "b", "c"], 2) == [("a", "b"), ("c",)]
        with pytest.raises(CubeError):
            fragment_groups(["a"], 0)

    def test_fragment_space_grows_linearly(self, relation):
        small = build_ranking_fragments(relation.project(relation.selection_dims[:2],
                                                         relation.ranking_dims),
                                        fragment_size=2, block_size=150)
        large = build_ranking_fragments(relation, fragment_size=2, block_size=150)
        # 4 selection dims hold twice as many fragment cuboids as 2 dims.
        assert large.num_cuboids() == 2 * small.num_cuboids()

    def test_size_accounting(self, cube):
        assert cube.size_in_bytes() > 0


class TestCubeQueries:
    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_matches_oracle_linear(self, relation, cube, k):
        query = TopKQuery(Predicate.of(A1=2, A2=3),
                          LinearFunction(["N1", "N2"], [1.0, 2.0]), k)
        expected_tids, expected_scores = brute_force_topk(relation, query)
        result = cube.query(query)
        assert result.scores == pytest.approx(expected_scores)

    def test_matches_oracle_distance(self, relation, cube):
        query = TopKQuery(Predicate.of(A3=1),
                          SquaredDistanceFunction(["N1", "N2"], [0.7, 0.1]), 10)
        _, expected_scores = brute_force_topk(relation, query)
        assert cube.query(query).scores == pytest.approx(expected_scores)

    def test_negative_weight_linear(self, relation, cube):
        query = TopKQuery(Predicate.of(A1=0),
                          LinearFunction(["N1", "N2"], [1.0, -1.0]), 5)
        _, expected_scores = brute_force_topk(relation, query)
        assert cube.query(query).scores == pytest.approx(expected_scores)

    def test_empty_predicate(self, relation, cube):
        query = TopKQuery(Predicate.of(), LinearFunction(["N1"], [1.0]), 5)
        _, expected_scores = brute_force_topk(relation, query)
        assert cube.query(query).scores == pytest.approx(expected_scores)

    def test_selective_predicate_with_few_matches(self, relation, cube):
        predicate = Predicate.of(A1=0, A2=0, A3=0, A4=0)
        query = TopKQuery(predicate, LinearFunction(["N1", "N2"], [1, 1]), 50)
        expected_tids, expected_scores = brute_force_topk(relation, query)
        result = cube.query(query)
        assert result.scores == pytest.approx(expected_scores)
        assert len(result) == len(expected_tids)

    def test_no_matching_tuples(self, relation, cube):
        query = TopKQuery(Predicate.of(A1=999), LinearFunction(["N1"], [1.0]), 5)
        result = cube.query(query)
        assert result.tids == ()

    def test_fragments_match_full_cube(self, relation, cube, fragments):
        query = TopKQuery(Predicate.of(A1=1, A3=2),
                          LinearFunction(["N1", "N2"], [2.0, 1.0]), 10)
        full = cube.query(query)
        frag = fragments.query(query)
        assert frag.scores == pytest.approx(full.scores)
        assert frag.extra["covering_cuboids"] == 2.0

    def test_unknown_dimension_rejected(self, cube):
        query = TopKQuery(Predicate.of(Z9=1), LinearFunction(["N1"], [1.0]), 5)
        with pytest.raises(QueryError):
            cube.query(query)

    def test_disk_accesses_reported(self, relation, cube):
        query = TopKQuery(Predicate.of(A1=2), LinearFunction(["N1", "N2"], [1, 1]), 10)
        result = cube.query(query)
        assert result.disk_accesses >= 0
        assert result.states_generated > 0
        assert result.peak_heap_size > 0

    def test_top_k_convenience(self, relation, cube):
        result = cube.top_k(Predicate.of(A2=1), LinearFunction(["N1"], [1.0]), 3)
        assert len(result) == 3


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5),
       st.integers(min_value=1, max_value=15),
       st.floats(min_value=0.1, max_value=5, allow_nan=False),
       st.floats(min_value=0.1, max_value=5, allow_nan=False))
def test_cube_always_matches_oracle(a1, a2, k, w1, w2):
    """Random predicates and weights: cube scores equal the scan's scores."""
    relation = generate_relation(SyntheticSpec(num_tuples=1200, num_selection_dims=2,
                                               num_ranking_dims=2, cardinality=6,
                                               seed=77))
    cube = test_cube_always_matches_oracle.cube
    if cube is None or cube.relation is not relation:
        # Build once per hypothesis session over the deterministic relation.
        cube = RankingCube(relation, block_size=100)
        test_cube_always_matches_oracle.cube = cube
        test_cube_always_matches_oracle.relation = relation
    relation = test_cube_always_matches_oracle.relation
    cube = test_cube_always_matches_oracle.cube
    query = TopKQuery(Predicate.of(A1=a1, A2=a2),
                      LinearFunction(["N1", "N2"], [w1, w2]), k)
    _, expected_scores = brute_force_topk(relation, query)
    assert cube.query(query).scores == pytest.approx(expected_scores)


test_cube_always_matches_oracle.cube = None
test_cube_always_matches_oracle.relation = None

"""Tests for skyline queries with boolean predicates (Chapter 7)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.query import Predicate, SkylineQuery
from repro.paper.signature import SignatureRankingCube
from repro.paper.skyline import SkylineEngine, SkylineSession
from repro.skyline import (
    BooleanFirstSkyline,
    dominated_by_any,
    dominates,
    skyline_rows,
)
from repro.skyline.dominance import mapped_corners
from repro.storage.table import Relation, Schema
from repro.workloads import SyntheticSpec, generate_relation, make_sharded_engine
from tests.conftest import paper_stack


@pytest.fixture(scope="module")
def relation():
    return generate_relation(SyntheticSpec(num_tuples=2000, num_selection_dims=3,
                                           num_ranking_dims=3, cardinality=5, seed=81))


@pytest.fixture(scope="module")
def cube(relation):
    return SignatureRankingCube(relation, rtree_max_entries=16)


@pytest.fixture(scope="module")
def engine(cube):
    return SkylineEngine(cube)


class TestDominance:
    def test_dominates(self):
        assert dominates((1, 2), (2, 3))
        assert dominates((1, 2), (1, 3))
        assert not dominates((1, 2), (1, 2))
        assert not dominates((1, 4), (2, 3))

    def test_dominated_by_any(self):
        assert dominated_by_any((2, 2), [(1, 1), (5, 5)])
        assert not dominated_by_any((0, 0), [(1, 1)])

    def test_equal_points_do_not_dominate_each_other(self):
        assert not dominates((0.5, 0.25, 1.0), (0.5, 0.25, 1.0))
        assert not dominated_by_any((0.5, 0.25), [(0.5, 0.25), (0.5, 0.25)])

    def test_signed_zeros_are_ties(self):
        assert not dominates((-0.0, 1.0), (0.0, 1.0))
        assert not dominates((0.0, 1.0), (-0.0, 1.0))
        assert dominates((-0.0, 0.5), (0.0, 1.0))
        assert dominates((0.0, 0.5), (-0.0, 1.0))

    def test_one_dimension(self):
        assert dominates((0.25,), (0.5,))
        assert not dominates((0.5,), (0.25,))
        assert not dominates((0.5,), (0.5,))
        assert dominated_by_any((0.5,), [(0.75,), (0.25,)])

    def test_no_others_dominate_nothing(self):
        assert not dominated_by_any((0.5, 0.5), [])
        assert not dominated_by_any((0.5, 0.5), ())

    def test_dominated_by_any_on_the_points_found_since_a_push(self):
        """The engine's pop test: the skyline as a list of float tuples,
        sliced at how many points the item was pushed against."""
        skyline = [(0.1, 0.9), (0.9, 0.1), (0.4, 0.4)]
        assert dominated_by_any((0.5, 0.5), skyline[2:])
        assert not dominated_by_any((0.5, 0.5), skyline[:2])
        assert not dominated_by_any((0.5, 0.5), skyline[3:])
        assert not dominated_by_any((0.4, 0.4), skyline[2:])

    def test_skyline_of_small_set(self):
        points = np.array([(1.0, 5.0), (2.0, 2.0), (5.0, 1.0), (3.0, 3.0)])
        assert skyline_rows(points).tolist() == [0, 1, 2]

    def test_transform_dynamic(self):
        values = np.array([(1.0, 2.0)])
        assert mapped_corners(values, values, None).tolist() == [[1.0, 2.0]]
        assert mapped_corners(values, values,
                              np.array([2.0, 2.0])).tolist() == [[1.0, 0.0]]

    def test_box_min_corner(self):
        lows, highs = np.array([(0.2, 0.4)]), np.array([(0.6, 0.8)])
        assert mapped_corners(lows, highs, None).tolist() == [[0.2, 0.4]]
        assert mapped_corners(lows, highs,
                              np.array([0.5, 0.0])).tolist() == [[0.0, 0.4]]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), min_size=1, max_size=40))
    def test_skyline_points_are_mutually_non_dominating(self, raw):
        points = np.array(raw)
        values = [tuple(row) for row in points[skyline_rows(points)].tolist()]
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                if i != j:
                    assert not dominates(a, b)
        # Every excluded point is dominated by some skyline point.
        excluded = [vals for vals in raw if vals not in values]
        for vals in excluded:
            assert dominated_by_any(vals, values)


# A five-point grid: coordinate ties, float-sum ties and exact duplicates
# are common.
grid = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@settings(max_examples=300, deadline=None)
@example((2, [(1.0, 1e-17), (1.0, 0.0)], None))  # a float-sum tie: 1.0 + 1e-17 == 1.0
@given(st.integers(1, 4).flatmap(lambda d: st.tuples(
    st.just(d),
    st.lists(st.tuples(*[grid] * d), min_size=0, max_size=60),
    st.one_of(st.none(), st.tuples(*[grid] * d)))))
def test_skyline_rows_is_the_definition(case):
    """Whether peeled, settled all-pairs or both, the kernel keeps exactly
    the rows no other row dominates, duplicates of a kept point included."""
    d, raw, targets = case
    points = np.array(raw, dtype=np.float64).reshape(len(raw), d)
    if targets is not None:
        points = mapped_corners(points, points, np.array(targets))
    rows = points.tolist()
    expected = [i for i, row in enumerate(rows)
                if not dominated_by_any(row, rows)]
    for window in (0, 5, 64):
        assert skyline_rows(points, window=window).tolist() == expected


def test_a_tie_heavy_relation_has_one_skyline_on_every_path():
    """BBS, the scan skyline, the planned path and a 3-shard scatter return
    the same tids on ranking values quantised to a five-point grid."""
    base = generate_relation(SyntheticSpec(num_tuples=1500, num_selection_dims=3,
                                           num_ranking_dims=3, cardinality=4,
                                           seed=83))
    relation = Relation(base.schema, base.selection_matrix(),
                        np.round(base.ranking_matrix() * 4) / 4)
    executor = paper_stack(relation, block_size=100, rtree_max_entries=16)
    _, scatter = make_sharded_engine(relation, 3, block_size=100)
    rng = np.random.default_rng(83)
    for conditions in ({}, {"A1": 2}, {"A2": 1, "A3": 0}):
        for dims in (("N1", "N2"), ("N1", "N2", "N3")):
            for targets in (None, tuple((np.round(rng.random(len(dims)) * 4) / 4).tolist())):
                query = SkylineQuery(Predicate.of(conditions), dims, targets)
                values = relation.ranking_values_bulk(
                    relation.tids_matching(conditions), dims)
                if targets is not None:
                    values = np.abs(values - np.array(targets))
                rows = values.tolist()
                tids = relation.tids_matching(conditions).tolist()
                expected = tuple(tid for tid, row in zip(tids, rows)
                                 if not dominated_by_any(row, rows))
                assert executor.registry.get("skyline").run(query).tids == expected
                assert executor.registry.get("skyline-scan").run(query).tids == expected
                assert executor.execute(query).tids == expected
                assert scatter.execute(query).tids == expected


class TestSkylineEngine:
    def test_static_skyline_matches_baseline(self, relation, engine):
        query = SkylineQuery(Predicate.of(A1=2), ("N1", "N2"))
        assert engine.query(query).tids == BooleanFirstSkyline(relation).query(query).tids

    def test_three_dim_skyline(self, relation, engine):
        query = SkylineQuery(Predicate.of(A2=1), ("N1", "N2", "N3"))
        assert engine.query(query).tids == BooleanFirstSkyline(relation).query(query).tids

    def test_dynamic_skyline_matches_baseline(self, relation, engine):
        query = SkylineQuery(Predicate.of(A1=1), ("N1", "N2"), (0.5, 0.5))
        assert engine.query(query).tids == BooleanFirstSkyline(relation).query(query).tids

    def test_multiple_predicates(self, relation, engine):
        query = SkylineQuery(Predicate.of(A1=3, A3=0), ("N1", "N2"))
        assert engine.query(query).tids == BooleanFirstSkyline(relation).query(query).tids

    def test_empty_predicate(self, relation, engine):
        query = SkylineQuery(Predicate.of(), ("N1", "N2"))
        assert engine.query(query).tids == BooleanFirstSkyline(relation).query(query).tids

    def test_unsatisfiable_predicate(self, relation, engine):
        query = SkylineQuery(Predicate.of(A1=999), ("N1", "N2"))
        assert engine.query(query).tids == ()

    def test_a_failed_root_test_reports_the_page_it_loaded(self, relation):
        """``(present, absent)``: the present value's reader loads its first
        page before the absent one fails the root test, and the early
        return counts that page."""
        cube = SignatureRankingCube(relation, rtree_max_entries=16)
        cube.store.buffer.invalidate()
        cube.rtree.buffer.invalidate()
        before = cube.store.pager.stats.physical_reads
        rtree_before = cube.rtree.pager.stats.physical_reads
        result = SkylineEngine(cube).query(
            SkylineQuery(Predicate.of(A1=2, A3=999), ("N1", "N2")))
        loaded = cube.store.pager.stats.physical_reads - before
        assert result.tids == ()
        assert loaded > 0
        assert result.signature_accesses == loaded
        assert result.disk_accesses == loaded
        assert cube.rtree.pager.stats.physical_reads == rtree_before

    def test_a_mindist_tie_admits_no_dominated_point(self):
        relation = Relation(Schema(("A1",), ("N1", "N2")), np.zeros((2, 1)),
                            np.array([(1.0, 1e-17), (1.0, 0.0)]))
        query = SkylineQuery(Predicate.of(), ("N1", "N2"))
        engine = SkylineEngine(SignatureRankingCube(relation, rtree_max_entries=4))
        assert BooleanFirstSkyline(relation).query(query).tids == (1,)
        assert engine.query(query).tids == (1,)

    def test_engine_without_signature_verifies(self, relation, cube):
        unsigned = SkylineEngine(cube, use_signature=False)
        query = SkylineQuery(Predicate.of(A1=2), ("N1", "N2"))
        assert unsigned.query(query).tids == \
            BooleanFirstSkyline(relation).query(query).tids

    def test_statistics_reported(self, engine):
        query = SkylineQuery(Predicate.of(A1=2), ("N1", "N2"))
        result = engine.query(query)
        assert result.nodes_expanded > 0
        assert result.peak_heap_size > 0
        assert result.disk_accesses >= 0
        assert len(result) == len(result.tids)

    def test_signature_engine_expands_fewer_nodes(self, relation, cube):
        signed = SkylineEngine(cube, use_signature=True)
        unsigned = SkylineEngine(cube, use_signature=False)
        query = SkylineQuery(Predicate.of(A1=0, A2=0), ("N1", "N2"))
        assert signed.query(query).nodes_expanded <= unsigned.query(query).nodes_expanded


class TestSkylineSession:
    def test_drill_down_and_roll_up(self, relation, engine):
        session = SkylineSession(engine)
        base_query = SkylineQuery(Predicate.of(A1=1), ("N1", "N2"))
        session.fresh(base_query)
        drilled = session.drill_down({"A2": 2})
        expected = BooleanFirstSkyline(relation).query(
            SkylineQuery(Predicate.of(A1=1, A2=2), ("N1", "N2")))
        assert drilled.tids == expected.tids
        rolled = session.roll_up(["A2"])
        expected_up = BooleanFirstSkyline(relation).query(base_query)
        assert rolled.tids == expected_up.tids

    def test_navigation_requires_previous_query(self, engine):
        from repro.errors import QueryError
        session = SkylineSession(engine)
        with pytest.raises(QueryError):
            session.drill_down({"A1": 1})
        with pytest.raises(QueryError):
            session.roll_up(["A1"])

    def test_drill_down_reuses_buffers(self, relation, engine):
        session = SkylineSession(engine)
        fresh = session.fresh(SkylineQuery(Predicate.of(A1=1), ("N1", "N2", "N3")))
        drilled = session.drill_down({"A2": 1})
        assert drilled.disk_accesses <= fresh.disk_accesses

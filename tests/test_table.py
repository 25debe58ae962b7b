"""Tests for Schema / Relation / RelationStats and the query model."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import QueryError, SchemaError
from repro.functions import LinearFunction
from repro.query import Predicate, QueryResult, SkylineQuery, TopKQuery
from repro.paper.joins.optimizer import RelationStats
from repro.storage.table import Relation, Schema


@pytest.fixture()
def relation() -> Relation:
    schema = Schema(("A", "B"), ("X", "Y"))
    selection = np.array([[0, 1], [1, 1], [0, 2], [1, 2]])
    ranking = np.array([[0.1, 0.9], [0.2, 0.8], [0.3, 0.7], [0.4, 0.6]])
    return Relation(schema, selection, ranking, name="T")


class TestSchema:
    def test_overlapping_dims_rejected(self):
        with pytest.raises(SchemaError):
            Schema(("A",), ("A",))

    def test_duplicate_dims_rejected(self):
        with pytest.raises(SchemaError):
            Schema(("A", "A"), ("X",))
        with pytest.raises(SchemaError):
            Schema(("A",), ("X", "X"))

    def test_lookups(self):
        schema = Schema(("A", "B"), ("X",))
        assert schema.selection_index("B") == 1
        assert schema.ranking_index("X") == 0
        assert schema.is_selection("A") and not schema.is_selection("X")
        with pytest.raises(SchemaError):
            schema.selection_index("Z")
        with pytest.raises(SchemaError):
            schema.ranking_index("Z")


class TestRelation:
    def test_shape_validation(self):
        schema = Schema(("A",), ("X",))
        with pytest.raises(SchemaError):
            Relation(schema, np.zeros((3, 2)), np.zeros((3, 1)))
        with pytest.raises(SchemaError):
            Relation(schema, np.zeros((3, 1)), np.zeros((2, 1)))
        with pytest.raises(SchemaError):
            Relation(schema, np.zeros(3), np.zeros((3, 1)))

    def test_columns_and_values(self, relation):
        assert relation.num_tuples == 4
        assert len(relation) == 4
        assert list(relation.selection_column("A")) == [0, 1, 0, 1]
        assert relation.cardinality("B") == 2
        assert relation.selection_values(1) == {"A": 1, "B": 1}
        assert relation.ranking_values(2, ["Y"])[0] == pytest.approx(0.7)
        assert relation.tuple_dict(0) == {"A": 0, "B": 1, "X": 0.1, "Y": 0.9}

    def test_bulk_values_and_masks(self, relation):
        block = relation.ranking_values_bulk([0, 3], ["Y", "X"])
        assert block.shape == (2, 2)
        assert block[1, 0] == pytest.approx(0.6)
        assert list(relation.tids_matching({"A": 0})) == [0, 2]
        assert list(relation.tids_matching({"A": 1, "B": 2})) == [3]

    def test_from_rows_and_append(self):
        schema = Schema(("A",), ("X",))
        relation = Relation.from_rows(schema, [{"A": 1, "X": 0.5}])
        tid = relation.append({"A": 2, "X": 0.25})
        assert tid == 1
        assert relation.num_tuples == 2
        assert relation.selection_values(1)["A"] == 2

    def test_project(self, relation):
        projected = relation.project(["B"], ["X"])
        assert projected.selection_dims == ("B",)
        assert projected.ranking_dims == ("X",)
        assert projected.num_tuples == 4

    def test_every_accessor_is_read_only(self, relation):
        relation.append({"A": 1, "B": 1, "X": 0.5, "Y": 0.5})
        writes = [
            lambda: relation.selection_matrix().__setitem__(0, [7, 7]),
            lambda: relation.ranking_matrix().__setitem__(1, [-5.0, -5.0]),
            lambda: relation.selection_column("B").__setitem__(2, 7),
            lambda: relation.ranking_column("Y").__setitem__(3, -5.0),
        ]
        for write in writes:
            with pytest.raises(ValueError):
                write()
        assert relation.tuple_dict(1) == {"A": 1, "B": 1, "X": 0.2, "Y": 0.8}

    def test_a_callers_array_keeps_its_flags(self):
        selection = np.asfortranarray([[0], [1]], dtype=np.int64)
        Relation(Schema(("A",), ("X",)), selection, np.zeros((2, 1)))
        assert selection.flags.writeable

    def test_stats_and_selectivity(self, relation):
        stats = RelationStats.of(relation)
        assert stats.num_tuples == 4
        assert stats.cardinalities == {"A": 2, "B": 2}
        assert stats.selectivity({"A": 0}) == pytest.approx(0.5)
        assert stats.selectivity({"A": 0, "B": 1}) == pytest.approx(0.25)


class TestQueryModel:
    def test_predicate_construction(self):
        pred = Predicate.of({"A": 1}, B=2)
        assert pred.as_dict == {"A": 1, "B": 2}
        assert pred.dims == ("A", "B")
        assert not pred.is_empty()
        assert len(pred) == 2
        assert Predicate.of().is_empty()

    def test_predicate_matching(self, relation):
        pred = Predicate.of(A=1, B=2)
        assert pred.matches(relation, 3)
        assert not pred.matches(relation, 0)

    def test_predicate_validation(self, relation):
        with pytest.raises(QueryError):
            Predicate.of(X=1).validate(relation)
        Predicate.of(A=0).validate(relation)

    def test_topk_query_validation(self, relation):
        fn = LinearFunction(["X"], [1.0])
        with pytest.raises(QueryError):
            TopKQuery(Predicate.of(), fn, 0)
        query = TopKQuery(Predicate.of(A=0), fn, 2)
        query.validate(relation)
        assert query.ranking_dims == ("X",)
        assert query.selection_dims == ("A",)
        bad = TopKQuery(Predicate.of(A=0), LinearFunction(["A"], [1.0]), 2)
        with pytest.raises(QueryError):
            bad.validate(relation)

    def test_skyline_query_validation(self):
        with pytest.raises(QueryError):
            SkylineQuery(Predicate.of(), ())
        with pytest.raises(QueryError):
            SkylineQuery(Predicate.of(), ("X", "Y"), (1.0,))
        dynamic = SkylineQuery(Predicate.of(), ("X",), (0.5,))
        assert dynamic.is_dynamic
        static = SkylineQuery(Predicate.of(), ("X",))
        assert not static.is_dynamic

    def test_query_result_invariants(self):
        with pytest.raises(QueryError):
            QueryResult(tids=(1,), scores=())
        result = QueryResult(tids=(1, 2), scores=(0.1, 0.2))
        assert result.as_pairs() == ((1, 0.1), (2, 0.2))
        assert len(result) == 2


def bits(values) -> list:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


@st.composite
def relations_and_reads(draw):
    selection_dims = tuple(f"A{i}" for i in range(draw(st.integers(1, 3))))
    ranking_dims = tuple(f"N{i}" for i in range(draw(st.integers(1, 3))))
    rows = draw(st.integers(0, 50))
    codes = st.integers(0, 3)
    floats = st.floats(width=64, allow_nan=False)
    selection = np.array(draw(st.lists(codes, min_size=rows * len(selection_dims),
                                       max_size=rows * len(selection_dims))),
                         dtype=np.int64).reshape(rows, len(selection_dims))
    ranking = np.array(draw(st.lists(floats, min_size=rows * len(ranking_dims),
                                     max_size=rows * len(ranking_dims))),
                       dtype=np.float64).reshape(rows, len(ranking_dims))
    appends = draw(st.lists(st.fixed_dictionaries(
        {**{d: codes for d in selection_dims}, **{d: floats for d in ranking_dims}}),
        max_size=5))
    total = rows + len(appends)
    tids = draw(st.lists(st.integers(0, total - 1), max_size=20)) if total else []
    dims = draw(st.one_of(st.none(), st.lists(st.sampled_from(ranking_dims),
                                              min_size=1, max_size=3)))
    conditions = draw(st.dictionaries(st.sampled_from(selection_dims), codes))
    column_major = draw(st.booleans())
    return (Schema(selection_dims, ranking_dims), selection, ranking, appends,
            tids, dims, conditions, column_major)


@settings(max_examples=200, deadline=None)
@given(relations_and_reads())
def test_the_column_major_layout_is_invisible(case):
    schema, selection, ranking, appends, tids, dims, conditions, column_major = case
    rows = selection.shape[0]
    given_selection = np.asfortranarray(selection) if column_major else selection
    given_ranking = np.asfortranarray(ranking) if column_major else ranking
    relation = Relation(schema, given_selection, given_ranking)
    if column_major and rows:
        assert np.shares_memory(relation.selection_matrix(), given_selection)
        assert np.shares_memory(relation.ranking_matrix(), given_ranking)
    # The row-major reference grows the way the relation did before.
    for row in appends:
        relation.append(row)
        selection = np.vstack([selection, [[row[d] for d in schema.selection_dims]]])
        ranking = np.vstack([ranking, [[row[d] for d in schema.ranking_dims]]])
    assert relation.num_tuples == selection.shape[0]

    for j, dim in enumerate(schema.selection_dims):
        column = relation.selection_column(dim)
        assert column.flags.c_contiguous
        assert column.tolist() == selection[:, j].tolist()
    for j, dim in enumerate(schema.ranking_dims):
        column = relation.ranking_column(dim)
        assert column.flags.c_contiguous
        assert bits(column) == bits(ranking[:, j])

    block = ranking[np.asarray(tids, dtype=np.int64)]
    if dims is not None:
        block = block[:, [schema.ranking_index(d) for d in dims]]
    bulk = relation.ranking_values_bulk(tids, dims)
    assert bulk.shape == block.shape
    assert bits(bulk) == bits(block)

    mask = np.ones(selection.shape[0], dtype=bool)
    for dim, value in conditions.items():
        mask &= selection[:, schema.selection_index(dim)] == value
    assert relation.tids_matching(conditions).tolist() == np.nonzero(mask)[0].tolist()

    for tid in range(selection.shape[0]):
        expected = {d: int(selection[tid, j]) for j, d in enumerate(schema.selection_dims)}
        expected.update({d: float(ranking[tid, j])
                         for j, d in enumerate(schema.ranking_dims)})
        actual = relation.tuple_dict(tid)
        assert list(actual) == list(expected)
        assert bits(list(actual.values())) == bits(list(expected.values()))

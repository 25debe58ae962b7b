"""Equality selections read per-value posting lists.

``Relation.tids_matching`` starts from the shortest ``{value: ascending
tids}`` list of a condition column and checks its entries against the
other condition columns; the lists are built on a column's first use and
extended in place by ``append``.  The answer must be the full filter's,
``flatnonzero(mask_equal(...))``, bit for bit, whatever was appended since
the lists were built, and nobody may write into it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.table import Relation, Schema
from tests.conftest import mask_equal

#: Condition values as callers hand them in: Python and numpy ints, bools.
VALUE_TYPES = (int, np.int64, np.int32, bool)


@st.composite
def relations_and_steps(draw):
    dims = tuple(f"A{i}" for i in range(draw(st.integers(1, 3))))
    rows = draw(st.integers(0, 30))
    # One value at most on the first column, so single-valued columns occur.
    high = draw(st.sampled_from((0, 3)))
    selection = np.array(draw(st.lists(st.integers(0, high),
                                       min_size=rows * len(dims),
                                       max_size=rows * len(dims))),
                         dtype=np.int64).reshape(rows, len(dims))
    # Appended rows and conditions reach values 4-6, which no column holds
    # at first: an absent value, then one that an append brings in.
    value = st.integers(0, 6)
    condition = st.tuples(st.integers(0, len(dims) - 1), value,
                          st.sampled_from(VALUE_TYPES))
    step = st.one_of(
        st.lists(value, min_size=len(dims), max_size=len(dims)).map(
            lambda values: ("append", values)),
        st.lists(condition, max_size=3).map(lambda conds: ("query", conds)))
    return dims, selection, draw(st.lists(step, min_size=1, max_size=12))


def typed(value: int, kind):
    return kind(value % 2) if kind is bool else kind(value)


@settings(max_examples=300, deadline=None)
@given(relations_and_steps())
def test_tids_matching_is_the_full_filter_across_appends(case):
    dims, selection, steps = case
    schema = Schema(dims, ("N",))
    relation = Relation(schema, selection, np.zeros((len(selection), 1)))
    for kind, payload in steps:
        if kind == "append":
            row = dict(zip(dims, payload), N=0.0)
            assert relation.append(row) == relation.num_tuples - 1
            continue
        conditions = {dims[column]: typed(value, kind_of)
                      for column, value, kind_of in payload}
        tids = relation.tids_matching(conditions)
        expected = np.flatnonzero(mask_equal(relation, conditions))
        assert tids.dtype == expected.dtype
        assert tids.tolist() == expected.tolist()
        assert not tids.flags.writeable
        if tids.size:
            with pytest.raises(ValueError, match="read-only"):
                tids[0] = -1


def test_lists_are_built_on_first_use_and_extended_by_append():
    relation = Relation(Schema(("A", "B"), ("N",)),
                        np.array([[0, 1], [1, 1], [0, 0]]), np.zeros((3, 1)))
    assert not relation._postings
    held = relation.tids_matching({"A": 0})
    assert held.tolist() == [0, 2]
    relation.append({"A": 0, "B": 2, "N": 0.0})
    assert set(relation._postings) == {0}
    relation.append({"A": 5, "B": 1, "N": 0.0})
    # A list handed out before the append is not changed by it.
    assert held.tolist() == [0, 2]
    assert relation.tids_matching({"A": 0}).tolist() == [0, 2, 3]
    assert relation.tids_matching({"A": 5}).tolist() == [4]
    assert relation.tids_matching({"B": 1, "A": 5}).tolist() == [4]
    assert relation.tids_matching({"A": 7}).tolist() == []
    assert relation.tids_matching({}).tolist() == [0, 1, 2, 3, 4]


"""The table scan's cut to k is its full stable sort, bit for bit.

``TableScanTopK.query`` keeps only the rows scoring at most the k-th
smallest score (found by ``np.partition``) before it sorts.  Scores here
are drawn from a pool of one to three values, so ties straddle the k-th
score most of the time; NaN (a NaN k-th score keeps the full sort),
infinities, k >= matches and empty match sets are all in the draw.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.functions.linear import LinearFunction
from repro.query import Predicate, TopKQuery
from repro.storage.table import Relation, Schema
from repro.storage.table_scan import TableScanTopK
from tests.conftest import mask_equal

VALUES = (-1.0, 0.0, 0.5, 1.0, np.inf, -np.inf, np.nan)


def bits(scores) -> list:
    return np.asarray(scores, dtype=np.float64).view(np.int64).tolist()


@st.composite
def scans(draw):
    rows = draw(st.integers(0, 60))
    pool = draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=3))
    values = draw(st.lists(st.sampled_from(pool), min_size=rows,
                           max_size=rows))
    codes = draw(st.lists(st.integers(0, 2), min_size=rows, max_size=rows))
    k = draw(st.integers(1, rows + 5))
    value = draw(st.sampled_from([None, 0, 1, 2, 3]))  # 3: no row matches
    return values, codes, k, value


@settings(max_examples=200, deadline=None)
@given(scans())
def test_the_cut_is_the_full_stable_sort(case):
    values, codes, k, value = case
    relation = Relation(Schema(("A1",), ("N1",)),
                        np.array(codes, dtype=np.int64).reshape(-1, 1),
                        np.array(values, dtype=np.float64).reshape(-1, 1))
    predicate = Predicate.of() if value is None else Predicate.of(A1=value)
    query = TopKQuery(predicate, LinearFunction(["N1"], [1.0]), k)
    result = TableScanTopK(relation).query(query)

    tids = np.nonzero(mask_equal(relation, predicate.as_dict))[0]
    scores = query.function.evaluate_batch(
        relation.ranking_values_bulk(tids, ["N1"]))
    order = np.argsort(scores, kind="stable")[:k]
    assert list(result.tids) == tids[order].tolist()
    assert bits(result.scores) == bits(scores[order])
    assert result.tuples_evaluated == tids.size

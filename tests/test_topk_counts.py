"""The paper's top-k metrics are pinned: how a block or a node is processed
may change, what the sweep reads, pops, holds and scores may not.

``PINNED`` was generated at the commit *before* the solo and the fused loop
of each index became one (``python tests/test_topk_counts.py`` prints it) and
is checked in as a literal.  Per index — the grid cube, a fragments cube
(``fragment_size=1``, so multi-dimension predicates intersect tid lists) and
the signature cube — every query runs solo in one fixed order and then the
fused groups run in order, over small buffers: the pools are warm the way a
query stream leaves them, so ``disk_accesses`` pins the read *order*, not
just the set.

Two rows were regenerated at that change, both on purpose: the solo
signature-cube runs of ``A1=1, A3=ABSENT`` and ``A1=2, A2=ABSENT, A3=0``
(rows 61 and 62 of ``PINNED["signature"]``) read ``disk_accesses`` 1 where
the parent's solo loop reported 0 — the failing root signature test loads a
signature page, and the old early return dropped it from the result.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from repro.cube import RankingCube, build_ranking_fragments
from repro.functions import Add, Const, ExpressionFunction, Mul, Var
from repro.functions.distance import SquaredDistanceFunction
from repro.functions.linear import LinearFunction
from repro.query import Predicate, TopKQuery
from repro.paper.signature import SignatureRankingCube, SignatureTopKExecutor
from repro.storage.pager import Pager
from repro.paper.rtree import RTree
from repro.workloads import SyntheticSpec, generate_relation
from tests.conftest import brute_force_topk

SELECTION = ("A1", "A2", "A3")
RANKING = ("N1", "N2", "N3")
ABSENT = 9  # the generated codes are 0..4
KS = (1, 10, 200)
INDEXES = ("grid", "fragments", "signature")

#: (disk_accesses, states_generated, peak_heap_size, tuples_evaluated,
#: extra["tuples_evaluated"] — the solo-equivalent count a fused member
#: records, ``None`` on a solo run)
Counts = Tuple[int, int, int, int, Optional[float]]

#: Linear, squared-distance and expression functions over the whole grid,
#: then two over a subset of its dimensions (the ``dim_index`` slice).
FUNCTIONS = (
    LinearFunction(RANKING, [1.0, 2.0, 0.5]),
    SquaredDistanceFunction(RANKING, [0.3, 0.6, 0.5]),
    ExpressionFunction(Add(Mul(Var("N1"), Var("N1")),
                           Add(Var("N2"), Mul(Const(2.0), Var("N3")))), dims=RANKING),
    LinearFunction(("N1", "N3"), [1.0, 3.0]),
    SquaredDistanceFunction(("N2",), [0.45]),
)


def build_relation():
    return generate_relation(SyntheticSpec(
        num_tuples=3000, num_selection_dims=3, num_ranking_dims=3,
        cardinality=5, seed=16))


def build_workload() -> Tuple[List[TopKQuery], List[List[TopKQuery]]]:
    """``(solo queries, fused groups)`` in the order they are run."""
    rng = np.random.default_rng(1601)

    def predicate(count: int) -> Predicate:
        dims = rng.choice(len(SELECTION), size=count, replace=False)
        return Predicate.of({SELECTION[int(d)]: int(rng.integers(0, 5))
                             for d in dims})

    absent = [Predicate.of(A2=ABSENT), Predicate.of(A1=1, A3=ABSENT),
              Predicate.of(A1=2, A2=ABSENT, A3=0)]
    solo = [TopKQuery(predicate(count), function, k)
            for function in FUNCTIONS for count in (0, 1, 2, 3) for k in KS]
    solo += [TopKQuery(p, FUNCTIONS[0], 10) for p in absent]
    groups = [[TopKQuery(predicate(count), function, int(rng.choice(KS)))
               for count in (0, 1, 1, 2, 2, 3)]
              for function in FUNCTIONS]
    groups.append([TopKQuery(p, FUNCTIONS[1], k)
                   for p, k in zip(absent + [predicate(0), predicate(2)],
                                   (10, 1, 200, 10, 200))])
    return solo, groups


def build_indexes(relation) -> Dict[str, object]:
    """Small buffers everywhere: no pool holds its whole structure, so
    evictions and re-reads show in ``disk_accesses``."""
    points = relation.ranking_values_bulk(np.arange(relation.num_tuples), RANKING)
    rtree = RTree.build(RANKING, points, max_entries=16, buffer_capacity=24)
    signature = SignatureRankingCube(relation, rtree=rtree,
                                     pager=Pager(page_size=512), buffer_capacity=6)
    return {
        "grid": RankingCube(relation, block_size=40, buffer_capacity=8),
        "fragments": build_ranking_fragments(relation, fragment_size=1,
                                             block_size=40, buffer_capacity=8),
        "signature": SignatureTopKExecutor(signature),
    }


def counts_of(result) -> Counts:
    return (result.disk_accesses, result.states_generated,
            result.peak_heap_size, result.tuples_evaluated,
            result.extra.get("tuples_evaluated"))


def measure():
    """``{index: [(query, result)]}``: every solo run, then every fused member."""
    relation = build_relation()
    solo, groups = build_workload()
    out = {}
    for name, index in build_indexes(relation).items():
        runs = [(query, index.query(query)) for query in solo]
        for group in groups:
            runs.extend(zip(group, index.query_batch(group)))
        out[name] = runs
    return relation, out


PINNED: Dict[str, List[Counts]] = {'fragments': [(2, 2, 5, 93, None), (2, 4, 8, 179, None),
               (10, 14, 15, 636, None), (4, 2, 5, 9, None),
               (10, 6, 10, 69, None), (62, 34, 16, 325, None),
               (16, 6, 10, 14, None), (42, 18, 16, 29, None),
               (182, 64, 16, 129, None), (52, 16, 15, 6, None),
               (92, 28, 16, 18, None), (211, 64, 16, 36, None),
               (2, 2, 10, 83, None), (2, 4, 14, 189, None),
               (15, 19, 28, 885, None), (8, 4, 14, 32, None),
               (12, 8, 20, 77, None), (84, 46, 28, 442, None),
               (12, 4, 14, 9, None), (42, 16, 28, 43, None),
               (177, 64, 28, 112, None), (43, 16, 28, 3, None),
               (174, 54, 28, 23, None), (213, 64, 28, 31, None),
               (2, 2, 5, 85, None), (0, 2, 5, 85, None),
               (13, 15, 15, 697, None), (4, 2, 5, 20, None),
               (20, 11, 13, 95, None), (80, 40, 16, 362, None),
               (20, 7, 11, 14, None), (47, 18, 15, 42, None),
               (187, 64, 16, 116, None), (34, 11, 13, 5, None),
               (86, 26, 16, 16, None), (203, 64, 16, 25, None),
               (4, 4, 8, 165, None), (0, 4, 8, 165, None),
               (8, 12, 16, 564, None), (8, 4, 8, 34, None),
               (12, 8, 12, 53, None), (48, 28, 16, 286, None),
               (19, 8, 12, 17, None), (29, 12, 16, 26, None),
               (182, 64, 16, 116, None), (29, 12, 16, 3, None),
               (97, 28, 16, 19, None), (202, 64, 16, 20, None),
               (16, 16, 32, 750, None), (16, 16, 32, 750, None),
               (16, 16, 32, 750, None), (32, 16, 32, 147, None),
               (32, 16, 32, 160, None), (64, 32, 32, 304, None),
               (46, 16, 32, 35, None), (48, 16, 32, 43, None),
               (186, 64, 32, 134, None), (50, 16, 32, 5, None),
               (150, 48, 32, 22, None), (212, 64, 32, 29, None),
               (0, 64, 16, 0, None), (64, 64, 16, 0, None),
               (64, 64, 16, 0, None), (315, 4, 8, 179, 179.0),
               (0, 6, 10, 17, 52.0), (0, 32, 16, 257, 313.0),
               (0, 16, 15, 21, 29.0), (0, 18, 16, 21, 29.0),
               (0, 64, 16, 26, 28.0), (77, 19, 28, 885, 885.0),
               (0, 8, 20, 0, 85.0), (0, 4, 14, 0, 31.0), (0, 4, 14, 0, 7.0),
               (0, 12, 22, 0, 19.0), (0, 12, 22, 0, 6.0),
               (254, 2, 5, 85, 85.0), (0, 5, 9, 26, 53.0), (0, 2, 5, 0, 20.0),
               (0, 18, 15, 28, 31.0), (0, 15, 15, 23, 28.0),
               (0, 64, 16, 16, 16.0), (495, 12, 16, 564, 564.0),
               (0, 28, 16, 167, 278.0), (0, 28, 16, 171, 284.0),
               (0, 64, 16, 90, 112.0), (0, 64, 16, 85, 110.0),
               (0, 64, 16, 22, 25.0), (380, 16, 32, 750, 750.0),
               (0, 16, 32, 0, 147.0), (0, 16, 32, 0, 166.0),
               (0, 64, 32, 97, 126.0), (0, 64, 32, 94, 127.0),
               (0, 16, 32, 0, 5.0), (316, 64, 28, 0, 0.0), (0, 64, 28, 0, 0.0),
               (0, 64, 28, 0, 0.0), (0, 4, 14, 189, 189.0),
               (0, 64, 28, 128, 130.0)],
 'grid': [(2, 2, 5, 93, None), (2, 4, 8, 179, None), (10, 14, 15, 636, None),
          (4, 2, 5, 9, None), (10, 6, 10, 69, None), (62, 34, 16, 325, None),
          (6, 6, 10, 14, None), (16, 18, 16, 29, None),
          (62, 64, 16, 129, None), (6, 16, 15, 6, None),
          (11, 28, 16, 18, None), (29, 64, 16, 36, None), (2, 2, 10, 83, None),
          (2, 4, 14, 189, None), (15, 19, 28, 885, None), (8, 4, 14, 32, None),
          (12, 8, 20, 77, None), (84, 46, 28, 442, None), (6, 4, 14, 9, None),
          (18, 16, 28, 43, None), (57, 64, 28, 112, None),
          (4, 16, 28, 3, None), (20, 54, 28, 23, None), (28, 64, 28, 31, None),
          (2, 2, 5, 85, None), (0, 2, 5, 85, None), (13, 15, 15, 697, None),
          (4, 2, 5, 20, None), (18, 11, 13, 95, None), (80, 40, 16, 362, None),
          (8, 7, 11, 14, None), (15, 18, 15, 42, None),
          (67, 64, 16, 116, None), (5, 11, 13, 5, None),
          (11, 26, 16, 16, None), (21, 64, 16, 25, None), (4, 4, 8, 165, None),
          (0, 4, 8, 165, None), (8, 12, 16, 564, None), (8, 4, 8, 34, None),
          (12, 8, 12, 53, None), (46, 28, 16, 286, None), (9, 8, 12, 17, None),
          (9, 12, 16, 26, None), (62, 64, 16, 116, None), (2, 12, 16, 3, None),
          (16, 28, 16, 19, None), (18, 64, 16, 20, None),
          (16, 16, 32, 750, None), (16, 16, 32, 750, None),
          (16, 16, 32, 750, None), (32, 16, 32, 147, None),
          (32, 16, 32, 160, None), (64, 32, 32, 304, None),
          (18, 16, 32, 35, None), (20, 16, 32, 43, None),
          (62, 64, 32, 134, None), (6, 16, 32, 5, None),
          (17, 48, 32, 22, None), (27, 64, 32, 29, None), (0, 64, 16, 0, None),
          (0, 64, 16, 0, None), (0, 64, 16, 0, None), (91, 4, 8, 179, 179.0),
          (0, 6, 10, 17, 52.0), (0, 32, 16, 257, 313.0), (0, 16, 15, 21, 29.0),
          (0, 18, 16, 21, 29.0), (0, 64, 16, 26, 28.0),
          (37, 19, 28, 885, 885.0), (0, 8, 20, 0, 85.0), (0, 4, 14, 0, 31.0),
          (0, 4, 14, 0, 7.0), (0, 12, 22, 0, 19.0), (0, 12, 22, 0, 6.0),
          (41, 2, 5, 85, 85.0), (0, 5, 9, 26, 53.0), (0, 2, 5, 0, 20.0),
          (0, 18, 15, 28, 31.0), (0, 15, 15, 23, 28.0), (0, 64, 16, 16, 16.0),
          (137, 12, 16, 564, 564.0), (0, 28, 16, 167, 278.0),
          (0, 28, 16, 171, 284.0), (0, 64, 16, 90, 112.0),
          (0, 64, 16, 85, 110.0), (0, 64, 16, 22, 25.0),
          (112, 16, 32, 750, 750.0), (0, 16, 32, 0, 147.0),
          (0, 16, 32, 0, 166.0), (0, 64, 32, 97, 126.0),
          (0, 64, 32, 94, 127.0), (0, 16, 32, 0, 5.0), (68, 64, 28, 0, 0.0),
          (0, 64, 28, 0, 0.0), (0, 64, 28, 0, 0.0), (0, 4, 14, 189, 189.0),
          (0, 64, 28, 128, 130.0)],
 'signature': [(5, 5, 44, 5, None), (3, 8, 44, 8, None),
               (32, 40, 77, 40, None), (7, 6, 42, 6, None),
               (10, 14, 41, 14, None), (137, 101, 148, 101, None),
               (14, 12, 40, 12, None), (72, 50, 68, 50, None),
               (439, 194, 133, 194, None), (84, 45, 66, 45, None),
               (158, 74, 124, 74, None), (495, 191, 130, 191, None),
               (9, 9, 59, 9, None), (2, 11, 59, 11, None),
               (38, 49, 94, 49, None), (12, 10, 57, 10, None),
               (13, 18, 80, 18, None), (156, 114, 114, 114, None),
               (17, 11, 53, 11, None), (61, 41, 76, 41, None),
               (444, 194, 105, 194, None), (60, 36, 75, 36, None),
               (309, 130, 98, 130, None), (494, 189, 101, 189, None),
               (6, 6, 59, 6, None), (3, 9, 59, 9, None),
               (32, 41, 170, 41, None), (11, 9, 57, 9, None),
               (30, 30, 79, 30, None), (165, 108, 155, 108, None),
               (42, 26, 64, 26, None), (97, 53, 147, 53, None),
               (447, 198, 149, 198, None), (58, 31, 73, 31, None),
               (148, 69, 143, 69, None), (474, 186, 138, 186, None),
               (7, 7, 29, 7, None), (3, 10, 30, 10, None),
               (26, 36, 107, 36, None), (10, 9, 30, 9, None),
               (20, 24, 53, 24, None), (131, 100, 150, 100, None),
               (20, 17, 30, 17, None), (58, 43, 93, 43, None),
               (454, 198, 138, 198, None), (56, 31, 69, 31, None),
               (186, 83, 131, 83, None), (496, 189, 131, 189, None),
               (49, 49, 209, 49, None), (49, 49, 209, 49, None),
               (49, 49, 209, 49, None), (68, 45, 188, 45, None),
               (71, 47, 195, 47, None), (184, 115, 194, 115, None),
               (84, 44, 184, 44, None), (86, 44, 183, 44, None),
               (454, 199, 183, 199, None), (89, 42, 180, 42, None),
               (245, 96, 169, 96, None), (498, 188, 172, 188, None),
               (0, 0, 0, 0, None), (1, 0, 0, 0, None), (1, 0, 0, 0, None),
               (584, 8, 57, 8, 8.0), (0, 16, 67, 8, 16.0),
               (0, 94, 153, 78, 94.0), (0, 46, 138, 2, 46.0),
               (0, 50, 153, 1, 50.0), (0, 184, 153, 99, 184.0),
               (88, 49, 94, 49, 49.0), (0, 21, 94, 0, 21.0),
               (0, 9, 87, 0, 9.0), (0, 10, 87, 0, 10.0), (0, 27, 94, 0, 27.0),
               (0, 22, 94, 0, 22.0), (528, 6, 59, 6, 6.0),
               (0, 14, 96, 8, 14.0), (0, 9, 71, 0, 9.0),
               (0, 45, 163, 31, 45.0), (0, 44, 163, 0, 44.0),
               (0, 189, 163, 146, 189.0), (1015, 36, 130, 36, 36.0),
               (0, 97, 163, 61, 97.0), (0, 98, 163, 1, 98.0),
               (0, 200, 163, 106, 200.0), (0, 192, 163, 9, 192.0),
               (0, 193, 163, 3, 193.0), (793, 49, 209, 49, 49.0),
               (0, 45, 209, 0, 45.0), (0, 46, 209, 0, 46.0),
               (0, 188, 209, 146, 188.0), (0, 206, 209, 23, 206.0),
               (0, 40, 209, 0, 40.0), (472, 0, 0, 0, 0.0), (0, 0, 0, 0, 0.0),
               (0, 0, 0, 0, 0.0), (0, 11, 85, 11, 11.0),
               (0, 206, 116, 196, 206.0)]}


@pytest.fixture(scope="module")
def measured():
    return measure()


def test_workload_is_the_one_the_table_was_generated_for():
    solo, groups = build_workload()
    assert len(solo) >= 60 and len(groups) >= 6
    assert all(len(PINNED[name]) == len(solo) + sum(map(len, groups))
               for name in INDEXES)
    for queries in (solo, [q for group in groups for q in group]):
        assert {len(q.predicate.as_dict) for q in queries} == {0, 1, 2, 3}
        assert {q.k for q in queries} == set(KS)
        assert any(ABSENT in q.predicate.as_dict.values() for q in queries)
    assert {type(q.function) for q in solo} == {
        LinearFunction, SquaredDistanceFunction, ExpressionFunction}
    assert any(len(q.function.dims) < len(RANKING) for q in solo)
    for group in groups:
        assert len({id(q.function) for q in group}) == 1
        assert len({(q.predicate, q.k) for q in group}) > 1


@pytest.mark.parametrize("name", INDEXES)
def test_answers_equal_brute_force(measured, name):
    relation, runs = measured
    for query, result in runs[name]:
        assert (result.tids, result.scores) == brute_force_topk(relation, query), query


@pytest.mark.parametrize("name", INDEXES)
def test_counts_equal_the_pinned_table(measured, name):
    _, runs = measured
    assert [counts_of(result) for _, result in runs[name]] == PINNED[name]


if __name__ == "__main__":
    import pprint

    print("PINNED: Dict[str, List[Counts]] =", pprint.pformat(
        {name: [counts_of(result) for _, result in runs]
         for name, runs in measure()[1].items()}, width=79, compact=True))

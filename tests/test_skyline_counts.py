"""The paper's skyline metrics are pinned: how a node is processed may change,
what BBS reads, expands and holds on its heap may not.

``PINNED`` and ``PINNED_SESSION`` were generated at the commit *before* the
R-tree and signature pages became columnar (``python tests/test_skyline_counts.py``
prints both) and are checked in as literals.  The queries run in one fixed
order over one cube, so the buffer pools are warm the way a query stream
leaves them and ``disk_accesses`` pins the read *order*, not just the set.

One row moved since: ``PINNED[57]``, the ``(A1=2, A3=9)`` query, was
``(0, 0, 0, 0)`` and is ``(1, 1, 0, 0)``.  Its root signature test fails on
the absent ``A3=9``, but only after the ``A1=2`` reader loaded its first page;
the early return used to drop that counted page and now reports it.

Keying the heap ``(mindist, corner, counter)`` instead of ``(mindist,
counter)``, so a float ``mindist`` tie pops the dominating entry first, moved
no row of either table: on this continuous data no two heap entries with
different corners tie on ``mindist``.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest

from repro.query import Predicate, SkylineQuery
from repro.paper.signature import SignatureRankingCube
from repro.paper.skyline import SkylineEngine, SkylineSession
from repro.skyline import BooleanFirstSkyline
from repro.storage.pager import Pager
from repro.paper.rtree import RTree
from repro.workloads import SyntheticSpec, generate_relation

SELECTION = ("A1", "A2", "A3")
RANKING = ("N1", "N2", "N3")
ABSENT = 9  # the generated codes are 0..4

Counts = Tuple[int, int, int, int]


def build_relation():
    return generate_relation(SyntheticSpec(
        num_tuples=3000, num_selection_dims=3, num_ranking_dims=3,
        cardinality=5, seed=15))


def build_queries() -> List[Tuple[bool, SkylineQuery]]:
    """``(use_signature, query)`` in the order they are run."""
    rng = np.random.default_rng(1507)

    def predicate(count: int) -> Predicate:
        dims = rng.choice(len(SELECTION), size=count, replace=False)
        return Predicate.of({SELECTION[int(d)]: int(rng.integers(0, 5))
                             for d in dims})

    def targets(dims):
        return tuple(float(v) for v in rng.random(len(dims)))

    queries: List[Tuple[bool, SkylineQuery]] = []
    for count in (0, 1, 2, 3):
        for _ in range(6):
            queries.append((True, SkylineQuery(predicate(count), RANKING)))
            queries.append((True, SkylineQuery(predicate(count), RANKING,
                                               targets=targets(RANKING))))
    for dims in (("N1", "N2"), ("N2", "N3"), ("N3", "N1"), ("N2",)):
        queries.append((True, SkylineQuery(predicate(1), dims)))
        queries.append((True, SkylineQuery(predicate(2), dims,
                                           targets=targets(dims))))
    queries.append((True, SkylineQuery(Predicate.of(A2=ABSENT), RANKING)))
    queries.append((True, SkylineQuery(Predicate.of(A1=2, A3=ABSENT), RANKING,
                                       targets=targets(RANKING))))
    for count in (1, 2, 3, 1):
        queries.append((False, SkylineQuery(predicate(count), RANKING)))
        queries.append((False, SkylineQuery(predicate(count), ("N1", "N3"),
                                            targets=targets(("N1", "N3")))))
    return queries


def build_cube(relation) -> SignatureRankingCube:
    """Small buffers and small signature pages: neither pool holds its whole
    structure, so evictions, re-reads and partial-page loads all show."""
    points = relation.ranking_values_bulk(np.arange(relation.num_tuples), RANKING)
    rtree = RTree.build(RANKING, points, max_entries=16, buffer_capacity=24)
    return SignatureRankingCube(relation, rtree=rtree, pager=Pager(page_size=512),
                                buffer_capacity=6)


def counts_of(result) -> Counts:
    return (result.disk_accesses, result.signature_accesses,
            result.peak_heap_size, result.nodes_expanded)


def measure():
    """Run every query in order; returns ``[(tids, counts)]``."""
    relation = build_relation()
    cube = build_cube(relation)
    engines = {True: SkylineEngine(cube), False: SkylineEngine(cube, use_signature=False)}
    out = []
    for use_signature, query in build_queries():
        result = engines[use_signature].query(query)
        out.append((result.tids, counts_of(result)))
    return relation, out


def measure_session() -> List[Counts]:
    """``fresh -> drill_down -> roll_up`` twice, from cold buffers."""
    cube = build_cube(build_relation())
    session = SkylineSession(SkylineEngine(cube))
    out = []
    for base, extra in ((SkylineQuery(Predicate.of(A1=1), RANKING), {"A2": 3}),
                        (SkylineQuery(Predicate.of(A3=0), ("N1", "N2"),
                                      targets=(0.4, 0.7)), {"A1": 2})):
        out.append(counts_of(session.fresh(base)))
        out.append(counts_of(session.drill_down(extra)))
        out.append(counts_of(session.roll_up(list(extra))))
    return out


# (disk_accesses, signature_accesses, peak_heap_size, nodes_expanded)
PINNED: List[Counts] = [
    (33, 0, 67, 33), (76, 0, 140, 79), (29, 0, 67, 33), (88, 0, 117, 90),
    (30, 0, 67, 33), (91, 0, 164, 94), (32, 0, 67, 33), (98, 0, 110, 100),
    (32, 0, 67, 33), (94, 0, 125, 95), (33, 0, 67, 33), (99, 0, 138, 100),
    (94, 26, 81, 68), (134, 42, 97, 92), (63, 10, 71, 53), (136, 52, 70, 84),
    (68, 15, 67, 55), (173, 71, 113, 102), (65, 15, 63, 51), (160, 66, 124, 94),
    (93, 26, 81, 68), (151, 60, 97, 91), (59, 12, 67, 47), (148, 61, 69, 90),
    (140, 64, 82, 77), (207, 118, 86, 90), (136, 55, 94, 83), (276, 160, 85, 117),
    (128, 54, 82, 75), (259, 151, 133, 109), (109, 46, 68, 66), (190, 91, 79, 101),
    (125, 54, 82, 75), (209, 118, 81, 91), (146, 67, 73, 82), (186, 86, 65, 100),
    (184, 96, 63, 88), (322, 207, 88, 115), (200, 101, 85, 101), (298, 175, 88, 123),
    (199, 104, 77, 95), (356, 222, 93, 136), (157, 73, 103, 85), (354, 227, 106, 127),
    (208, 103, 85, 107), (339, 214, 129, 125), (206, 109, 106, 97), (251, 150, 79, 101),
    (27, 5, 46, 23), (163, 96, 78, 70), (28, 8, 116, 22), (168, 95, 151, 86),
    (40, 7, 65, 34), (184, 108, 52, 77), (12, 4, 79, 9), (60, 32, 132, 35),
    (0, 0, 0, 0), (1, 1, 0, 0), (720, 0, 70, 56), (1038, 0, 74, 78),
    (1175, 0, 79, 86), (1004, 0, 62, 74), (1629, 0, 106, 115), (1246, 0, 78, 90),
    (701, 0, 61, 53), (1075, 0, 82, 81),
]

PINNED_SESSION: List[Counts] = [
    (58, 8, 58, 50), (68, 16, 53, 52), (58, 8, 58, 50), (114, 48, 66, 66),
    (159, 94, 52, 65), (114, 48, 66, 66),
]


@pytest.fixture(scope="module")
def measured():
    return measure()


def test_query_mix_is_the_one_the_table_was_generated_for():
    queries = build_queries()
    assert len(queries) == len(PINNED) >= 60
    sizes = {len(q.predicate.as_dict) for _, q in queries}
    assert sizes == {0, 1, 2, 3}
    assert any(q.targets is None for _, q in queries)
    assert any(q.targets is not None for _, q in queries)
    assert any(len(q.preference_dims) < len(RANKING) for _, q in queries)
    assert any(ABSENT in q.predicate.as_dict.values() for _, q in queries)
    assert any(not use_signature for use_signature, _ in queries)


def test_answers_equal_boolean_first(measured):
    relation, results = measured
    oracle = BooleanFirstSkyline(relation)
    for (_, query), (tids, _) in zip(build_queries(), results):
        assert tids == oracle.query(query).tids, query


def test_counts_equal_the_pinned_table(measured):
    _, results = measured
    assert [counts for _, counts in results] == PINNED


def test_session_keeps_its_warm_buffer_page_counts():
    assert measure_session() == PINNED_SESSION


if __name__ == "__main__":
    import pprint

    print("PINNED =", pprint.pformat([c for _, c in measure()[1]], width=76))
    print("PINNED_SESSION =", pprint.pformat(measure_session(), width=76))

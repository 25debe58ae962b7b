"""The default stack is what the planner routes, and every part of it
absorbs an insert.

``Executor.for_relation`` builds the grid ranking cube, the table scan and
the boolean-first skyline; the signature cube and BBS are
``repro.paper.stack``'s to register.  Counts only: what is registered,
what each backend declares, and the answers after a write.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import Executor
from repro.functions.distance import SquaredDistanceFunction
from repro.functions.linear import LinearFunction
from repro.paper.stack import register_paper_backends
from repro.query import Predicate, SkylineQuery, TopKQuery
from repro.workloads import SyntheticSpec, generate_relation
from tests.conftest import brute_force_topk
from tests.test_parity_oracle import brute_force_skyline

SPEC = SyntheticSpec(num_tuples=600, num_selection_dims=2, num_ranking_dims=2,
                     cardinality=4, seed=404)


def queries():
    function = LinearFunction(["N1", "N2"], [1.0, 2.0])
    distance = SquaredDistanceFunction(["N1", "N2"], [0.3, 0.6])
    return [TopKQuery(Predicate.of(), function, 5),
            TopKQuery(Predicate.of(A1=1), distance, 8),
            TopKQuery(Predicate.of(A1=2, A2=0), function, 3),
            SkylineQuery(Predicate.of(), ("N1", "N2")),
            SkylineQuery(Predicate.of(A2=1), ("N1", "N2"), (0.5, 0.5))]


def assert_routed_answers_are_the_oracles(executor, relation):
    for query in queries():
        result = executor.execute(query)
        if isinstance(query, TopKQuery):
            assert (result.tids, result.scores) == brute_force_topk(
                relation, query)
        else:
            assert result.tids == brute_force_skyline(relation, query)


def test_the_default_stack_registers_the_grid_and_the_scans_only():
    relation = generate_relation(SPEC)
    executor = Executor.for_relation(relation)
    assert executor.registry.names() == ["ranking-cube", "table-scan",
                                         "skyline-scan"]
    slim = Executor.for_relation(relation, with_signature=False,
                                 with_skyline=False)
    assert slim.registry.names() == ["ranking-cube", "table-scan"]


def test_every_default_backend_absorbs_an_insert():
    relation = generate_relation(SPEC)
    executor = Executor.for_relation(relation, block_size=50)
    assert all(backend.maintains_inserts for backend in executor.registry)
    assert_routed_answers_are_the_oracles(executor, relation)
    rng = np.random.default_rng(405)
    rows = [{"A1": 1, "A2": 0, "N1": -0.5, "N2": -0.5},  # outside the grid
            {"A1": 3, "A2": 1, "N1": 0.0, "N2": 0.0}]
    rows += [{"A1": int(rng.integers(0, 4)), "A2": int(rng.integers(0, 4)),
              "N1": float(rng.random()), "N2": float(rng.random())}
             for _ in range(4)]
    for row in rows:
        tid = relation.append(row)
        assert executor.insert(relation, tid, row) is True
        assert not any(backend.stale for backend in executor.registry)
        assert_routed_answers_are_the_oracles(executor, relation)
    cube = executor.registry.get("ranking-cube").cube
    assert cube.num_rows == relation.num_tuples == SPEC.num_tuples + len(rows)


def test_the_signature_cube_is_refused_by_name():
    relation = generate_relation(SPEC)
    with pytest.raises(ValueError, match="register_paper_backends"):
        Executor.for_relation(relation, with_signature=True)
    with pytest.raises(TypeError):
        Executor.for_relation(relation, rtree_max_entries=16)


def test_the_paper_builder_adds_what_cannot_absorb_an_insert():
    relation = generate_relation(SPEC)
    executor = Executor.for_relation(relation, block_size=50)
    cube = register_paper_backends(executor, relation, rtree_max_entries=8)
    assert executor.registry.names() == ["ranking-cube", "table-scan",
                                         "skyline-scan", "signature-cube",
                                         "skyline"]
    assert executor.registry.get("signature-cube").cube is cube
    assert executor.registry.get("skyline").engine.cube is cube
    assert_routed_answers_are_the_oracles(executor, relation)
    row = {"A1": 0, "A2": 0, "N1": 0.01, "N2": 0.01}
    assert executor.insert(relation, relation.append(row), row) is False
    assert sorted(b.name for b in executor.registry if b.stale) == [
        "signature-cube", "skyline"]
    assert_routed_answers_are_the_oracles(executor, relation)

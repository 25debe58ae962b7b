"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import Executor
from repro.paper.stack import register_paper_backends
from repro.query import Predicate, TopKQuery
from repro.storage.table import Relation, Schema
from repro.workloads import SyntheticSpec, generate_relation


@pytest.fixture(scope="session")
def small_relation() -> Relation:
    """A small synthetic relation shared by read-only tests."""
    spec = SyntheticSpec(num_tuples=2000, num_selection_dims=3,
                         num_ranking_dims=2, cardinality=6, seed=101)
    return generate_relation(spec)


@pytest.fixture(scope="session")
def three_dim_relation() -> Relation:
    """A relation with three ranking dimensions (index-merge / skyline tests)."""
    spec = SyntheticSpec(num_tuples=1500, num_selection_dims=3,
                         num_ranking_dims=3, cardinality=5, seed=202)
    return generate_relation(spec)


@pytest.fixture()
def tiny_relation() -> Relation:
    """The 8-tuple example database of thesis Table 4.1 (values rescaled)."""
    schema = Schema(("A", "B"), ("X", "Y"))
    rows = [
        {"A": 1, "B": 1, "X": 0.00, "Y": 0.40},
        {"A": 2, "B": 2, "X": 0.20, "Y": 0.60},
        {"A": 1, "B": 1, "X": 0.30, "Y": 0.70},
        {"A": 3, "B": 3, "X": 0.50, "Y": 0.40},
        {"A": 4, "B": 1, "X": 0.60, "Y": 0.00},
        {"A": 2, "B": 3, "X": 0.72, "Y": 0.30},
        {"A": 4, "B": 2, "X": 0.72, "Y": 0.36},
        {"A": 3, "B": 3, "X": 0.85, "Y": 0.62},
    ]
    return Relation.from_rows(schema, rows, name="sample")


def mask_equal(relation: Relation, conditions) -> np.ndarray:
    """Boolean mask of the tuples matching every ``dim == value`` condition,
    one full pass per condition: the reference for posting-list lookups."""
    mask = np.ones(relation.num_tuples, dtype=bool)
    for dim, value in conditions.items():
        mask &= relation.selection_column(dim) == int(value)
    return mask


def paper_stack(relation: Relation, *, rtree_max_entries: int = 32,
                **kwargs) -> Executor:
    """The served stack plus ``repro.paper``'s signature cube and BBS: the
    stack ``Executor.for_relation`` built before they left it."""
    executor = Executor.for_relation(relation, **kwargs)
    register_paper_backends(executor, relation,
                            rtree_max_entries=rtree_max_entries)
    return executor


def brute_force_topk(relation: Relation, query: TopKQuery):
    """Reference implementation every engine must agree with."""
    mask = mask_equal(relation, query.predicate.as_dict)
    tids = np.nonzero(mask)[0]
    scored = []
    for tid in tids:
        score = query.function.evaluate_tuple(relation, int(tid))
        scored.append((float(score), int(tid)))
    scored.sort()
    top = scored[: query.k]
    return tuple(t for _, t in top), tuple(s for s, _ in top)


@pytest.fixture(scope="session")
def oracle():
    """Expose the brute-force oracle as a fixture-callable."""
    return brute_force_topk

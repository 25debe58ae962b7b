"""Dataset and structure builders shared by the benchmark experiments.

Building a ranking cube over tens of thousands of tuples takes a couple of
seconds; the builders below memoize on their parameters so that benchmark
files exercising the same configuration do not rebuild identical structures.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.cube import RankingCube, build_ranking_fragments
from repro.paper.signature import SignatureRankingCube
from repro.paper.bitmap import SelectionIndex
from repro.paper.btree import BPlusTree
from repro.paper.rtree import RTree
from repro.storage.table import Relation
from repro.workloads import SyntheticSpec, generate_relation, make_covertype_like


@lru_cache(maxsize=16)
def synthetic_relation(num_tuples: int, num_selection_dims: int, num_ranking_dims: int,
                       cardinality: int, distribution: str = "E",
                       seed: int = 7) -> Relation:
    """Memoized synthetic relation."""
    spec = SyntheticSpec(num_tuples=num_tuples, num_selection_dims=num_selection_dims,
                         num_ranking_dims=num_ranking_dims, cardinality=cardinality,
                         distribution=distribution, seed=seed)
    return generate_relation(spec)


@lru_cache(maxsize=4)
def covertype_relation(num_tuples: int, seed: int = 42) -> Relation:
    """Memoized CoverType-like surrogate."""
    return make_covertype_like(num_tuples=num_tuples, seed=seed)


_CUBE_CACHE: Dict[Tuple, object] = {}


def grid_cube(relation: Relation, block_size: int = 300) -> RankingCube:
    """Memoized grid ranking cube (full materialization)."""
    key = ("grid", id(relation), block_size)
    if key not in _CUBE_CACHE:
        _CUBE_CACHE[key] = RankingCube(relation, block_size=block_size)
    return _CUBE_CACHE[key]  # type: ignore[return-value]


def fragment_cube(relation: Relation, fragment_size: int = 2,
                  block_size: int = 300) -> RankingCube:
    """Memoized ranking-fragments cube."""
    key = ("fragments", id(relation), fragment_size, block_size)
    if key not in _CUBE_CACHE:
        _CUBE_CACHE[key] = build_ranking_fragments(
            relation, fragment_size=fragment_size, block_size=block_size)
    return _CUBE_CACHE[key]  # type: ignore[return-value]


def signature_cube(relation: Relation, rtree_max_entries: int = 32) -> SignatureRankingCube:
    """Memoized signature ranking cube with atomic cuboids."""
    key = ("signature", id(relation), rtree_max_entries)
    if key not in _CUBE_CACHE:
        _CUBE_CACHE[key] = SignatureRankingCube(
            relation, rtree_max_entries=rtree_max_entries)
    return _CUBE_CACHE[key]  # type: ignore[return-value]


def selection_index(relation: Relation) -> SelectionIndex:
    """Memoized per-dimension selection indexes."""
    key = ("selindex", id(relation))
    if key not in _CUBE_CACHE:
        _CUBE_CACHE[key] = SelectionIndex(relation)
    return _CUBE_CACHE[key]  # type: ignore[return-value]


def dimension_btree(relation: Relation, dim: str, fanout: int = 32) -> BPlusTree:
    """Memoized single-dimension B+-tree."""
    key = ("btree", id(relation), dim, fanout)
    if key not in _CUBE_CACHE:
        _CUBE_CACHE[key] = BPlusTree.build(dim, relation.ranking_column(dim),
                                           fanout=fanout)
    return _CUBE_CACHE[key]  # type: ignore[return-value]


def ranking_rtree(relation: Relation, dims: Optional[Sequence[str]] = None,
                  max_entries: int = 32) -> RTree:
    """Memoized R-tree over a subset of the ranking dimensions."""
    dims = tuple(dims) if dims else relation.ranking_dims
    key = ("rtree", id(relation), dims, max_entries)
    if key not in _CUBE_CACHE:
        points = relation.ranking_values_bulk(np.arange(relation.num_tuples), dims)
        _CUBE_CACHE[key] = RTree.build(dims, points, max_entries=max_entries)
    return _CUBE_CACHE[key]  # type: ignore[return-value]


def clear_cache() -> None:
    """Drop every memoized structure (used by tests)."""
    _CUBE_CACHE.clear()
    synthetic_relation.cache_clear()
    covertype_relation.cache_clear()

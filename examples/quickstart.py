"""Quickstart: build a ranking cube and answer top-k queries with selections.

Run with ``python examples/quickstart.py`` from the repository root.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.storage.table_scan import TableScanTopK
from repro.cube import RankingCube
from repro.functions import LinearFunction, SquaredDistanceFunction
from repro.query import Predicate, TopKQuery
from repro.workloads import SyntheticSpec, generate_relation


def main() -> None:
    # 1. A relation with 3 categorical selection dimensions (A1..A3) and two
    #    real-valued ranking dimensions (N1, N2).
    relation = generate_relation(SyntheticSpec(
        num_tuples=20000, num_selection_dims=3, num_ranking_dims=2,
        cardinality=20, seed=1))
    print(f"relation: {relation!r}")

    # 2. Semi off-line materialization: equi-depth partition the ranking
    #    dimensions into base blocks and materialize one cuboid per subset of
    #    selection dimensions.
    cube = RankingCube(relation, block_size=300)
    print(f"materialized {cube.num_cuboids()} cuboids, "
          f"{cube.size_in_bytes() / 1e6:.2f} MB")

    # 3. Semi on-line computation: top-k with an ad-hoc ranking function and a
    #    multi-dimensional selection.
    query = TopKQuery(
        predicate=Predicate.of(A1=3, A2=7),
        function=LinearFunction(["N1", "N2"], [1.0, 2.0]),
        k=10,
    )
    result = cube.query(query)
    print("\ntop-10 by N1 + 2*N2 where A1=3 and A2=7")
    for rank, (tid, score) in enumerate(result.as_pairs(), start=1):
        print(f"  {rank:2d}. tid={tid:6d} score={score:.4f}")
    print(f"  ({result.disk_accesses} block accesses, "
          f"{result.states_generated} blocks examined)")

    # The cube's answers are exact: they match a full scan.
    oracle = TableScanTopK(relation).query(query)
    assert oracle.scores == result.scores
    print(f"  table scan agrees and costs {oracle.disk_accesses} page reads")

    # 4. Ad-hoc functions are first-class: nearest-neighbor style ranking.
    nn_query = TopKQuery(
        predicate=Predicate.of(A3=5),
        function=SquaredDistanceFunction(["N1", "N2"], targets=[0.25, 0.75]),
        k=5,
    )
    nn = cube.query(nn_query)
    print("\ntop-5 closest to (0.25, 0.75) where A3=5")
    for rank, (tid, score) in enumerate(nn.as_pairs(), start=1):
        print(f"  {rank:2d}. tid={tid:6d} distance^2={score:.5f}")


if __name__ == "__main__":
    main()

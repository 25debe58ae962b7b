"""Apartment search with many ranking dimensions (Chapter 5: index merge).

The apartment-search scenario of the thesis has a large number of ranking
criteria (rent, square footage, distances, fees, ...).  A single partition
over all of them is ineffective, so the ranking dimensions are split across
several indexes and queries are answered by progressively merging them,
with join-signatures pruning empty joint states.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.functions import ExpressionFunction, SquaredDistanceFunction, Var
from repro.paper.indexmerge import (
    MODE_PROGRESSIVE,
    MODE_SELECTIVE,
    IndexMergeTopK,
    JoinSignatureSet,
)
from repro.paper.rtree import RTree
from repro.storage.table import Relation, Schema

RANKING_DIMS = ("rent", "sqft", "dist_work", "dist_beach", "deposit", "app_fee")


def build_listings(num: int = 15000, seed: int = 11) -> Relation:
    """Synthetic apartment listings with six ranking criteria in [0, 1]."""
    rng = np.random.default_rng(seed)
    schema = Schema(("city", "has_pool"), RANKING_DIMS)
    selection = np.column_stack([
        rng.integers(0, 12, num),
        rng.integers(0, 2, num),
    ])
    base = rng.random((num, len(RANKING_DIMS)))
    base[:, 1] = 1.0 - 0.6 * base[:, 0] + 0.2 * rng.random(num)  # bigger => pricier
    ranking = np.clip(base, 0, 1)
    return Relation(schema, selection, ranking, name="apartments")


def main() -> None:
    listings = build_listings()

    # Two 3-dimensional R-trees instead of one 6-dimensional partition.
    left_dims, right_dims = RANKING_DIMS[:3], RANKING_DIMS[3:]
    values = listings.ranking_matrix()
    left = RTree.build(left_dims, values[:, :3], max_entries=32)
    right = RTree.build(right_dims, values[:, 3:], max_entries=32)
    signatures = JoinSignatureSet.full([left, right])
    print(f"indexes: {left.node_count()} + {right.node_count()} nodes, "
          f"join-signature over {signatures.size_in_bytes()} bytes")

    # Preference: close to a target rent/size, near work and beach, low fees.
    preference = SquaredDistanceFunction(
        list(RANKING_DIMS),
        targets=[0.25, 0.7, 0.1, 0.2, 0.0, 0.0],
        weights=[3.0, 2.0, 1.5, 1.0, 0.5, 0.5],
    )

    progressive = IndexMergeTopK([left, right], mode=MODE_PROGRESSIVE)
    selective = IndexMergeTopK([left, right], mode=MODE_SELECTIVE,
                               join_signatures=signatures)
    r_pe = progressive.query(preference, 10)
    r_sig = selective.query(preference, 10)
    assert r_pe.scores == r_sig.scores

    print("\ntop-10 apartments by the weighted preference function")
    for rank, (tid, score) in enumerate(r_sig.as_pairs(), start=1):
        rent, sqft = values[tid, 0], values[tid, 1]
        print(f"  {rank:2d}. listing {tid:6d}: rent={rent:.2f} size={sqft:.2f} "
              f"score={score:.4f}")

    print("\ncost of progressive vs selective merge (same answers):")
    print(f"  progressive (PE)      : {r_pe.states_generated:7d} states, "
          f"{r_pe.disk_accesses:5d} page reads, peak heap {r_pe.peak_heap_size}")
    print(f"  selective  (PE+SIG)   : {r_sig.states_generated:7d} states, "
          f"{r_sig.disk_accesses:5d} page reads, peak heap {r_sig.peak_heap_size}")

    # A non-convex trade-off function also works: penalize rent far from a
    # budget that scales with size, i.e. (rent - 0.5*sqft^2)^2.
    tradeoff = ExpressionFunction((Var("rent") - 0.5 * Var("sqft") ** 2) ** 2)
    r_general = selective.query(tradeoff, 5)
    print("\ntop-5 by the non-convex trade-off (rent - 0.5*sqft^2)^2")
    for rank, (tid, score) in enumerate(r_general.as_pairs(), start=1):
        print(f"  {rank:2d}. listing {tid:6d}: rent={values[tid, 0]:.2f} "
              f"sqft={values[tid, 1]:.2f} score={score:.6f}")


if __name__ == "__main__":
    main()

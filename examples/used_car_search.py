"""Used-car search (thesis Example 1): ranked search with selections.

An online used-car database keeps categorical attributes (type, maker,
color, transmission) and numeric attributes (price, mileage).  Different
shoppers rank with different ad-hoc functions over price and mileage while
filtering on different attribute combinations — the motivating scenario of
the ranking cube.  This example uses the signature-based cube (Chapter 4),
which ``repro.paper.stack.register_paper_backends`` puts on an engine stack
beside the served grid cube, with incremental maintenance as new cars are
listed.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.engine import Executor
from repro.functions import LinearFunction, SquaredDistanceFunction
from repro.paper.stack import register_paper_backends
from repro.query import Predicate, TopKQuery
from repro.storage.table import Relation, Schema

TYPES = ["sedan", "convertible", "suv", "wagon"]
MAKERS = ["ford", "hyundai", "toyota", "bmw", "honda"]
COLORS = ["red", "silver", "black", "white", "blue"]
TRANSMISSIONS = ["auto", "manual"]


def build_inventory(num_cars: int = 30000, seed: int = 3) -> Relation:
    """Synthesize a car inventory with realistic price/mileage correlation."""
    rng = np.random.default_rng(seed)
    schema = Schema(("type", "maker", "color", "transmission"), ("price", "milage"))
    selection = np.column_stack([
        rng.integers(0, len(TYPES), num_cars),
        rng.integers(0, len(MAKERS), num_cars),
        rng.integers(0, len(COLORS), num_cars),
        rng.integers(0, len(TRANSMISSIONS), num_cars),
    ])
    age = rng.uniform(0, 12, num_cars)                      # years
    price = np.clip(45000 * np.exp(-0.18 * age) + rng.normal(0, 2500, num_cars),
                    1500, 60000)
    milage = np.clip(12000 * age + rng.normal(0, 8000, num_cars), 0, 220000)
    ranking = np.column_stack([price, milage])
    return Relation(schema, selection, ranking, name="used_cars")


def describe(relation: Relation, tid: int) -> str:
    row = relation.tuple_dict(tid)
    return (f"{COLORS[row['color']]:6s} {MAKERS[row['maker']]:7s} "
            f"{TYPES[row['type']]:11s} ({TRANSMISSIONS[row['transmission']]}) "
            f"${row['price']:8.0f}  {row['milage']:7.0f} miles")


def main() -> None:
    inventory = build_inventory()
    executor = Executor.for_relation(inventory)
    cube = register_paper_backends(executor, inventory, rtree_max_entries=64)
    search = executor.registry.get("signature-cube")

    # Q1: top-10 red sedans minimizing price + milage (scaled).
    q1 = TopKQuery(
        Predicate.of(type=TYPES.index("sedan"), color=COLORS.index("red")),
        LinearFunction(["price", "milage"], [1.0, 0.1]),
        k=10,
    )
    print("Q1: top-10 red sedans by price + 0.1*milage")
    for rank, (tid, score) in enumerate(search.run(q1).as_pairs(), start=1):
        print(f"  {rank:2d}. {describe(inventory, tid)}  (score {score:,.0f})")

    # Q2: top-5 Ford convertibles near $20k and 10k miles.
    q2 = TopKQuery(
        Predicate.of(maker=MAKERS.index("ford"), type=TYPES.index("convertible")),
        SquaredDistanceFunction(["price", "milage"], targets=[20000, 10000],
                                weights=[1.0, 4.0]),
        k=5,
    )
    print("\nQ2: top-5 ford convertibles closest to ($20k, 10k miles)")
    for rank, (tid, score) in enumerate(search.run(q2).as_pairs(), start=1):
        print(f"  {rank:2d}. {describe(inventory, tid)}")

    # New listings arrive: the cube is maintained incrementally, not rebuilt.
    new_cars = [
        {"type": TYPES.index("sedan"), "maker": MAKERS.index("toyota"),
         "color": COLORS.index("red"), "transmission": 0,
         "price": 4000.0, "milage": 42000.0},
        {"type": TYPES.index("convertible"), "maker": MAKERS.index("ford"),
         "color": COLORS.index("blue"), "transmission": 0,
         "price": 19500.0, "milage": 11000.0},
    ]
    report = cube.insert(new_cars)
    print(f"\ninserted {report.tuples_inserted} new listings: "
          f"{report.cells_updated} signature cells patched, "
          f"{report.pages_written} pages written, "
          f"{report.node_splits} R-tree splits")

    print("\nQ1 again (the cheap new red sedan should appear):")
    for rank, (tid, score) in enumerate(search.run(q1).as_pairs(), start=1):
        marker = "  <-- new listing" if tid >= len(inventory) - 2 else ""
        print(f"  {rank:2d}. {describe(inventory, tid)}{marker}")


if __name__ == "__main__":
    main()

"""Multi-dimensional analysis of top-k results (thesis Example 2) + skylines.

A notebook-comparison site scores each laptop's market potential from CPU,
memory and disk.  An analyst drills down to "dell low-end", inspects the
top-k, rolls up to all makers, and finally asks for the skyline of
price/weight trade-offs within a brand — the OLAP-navigation and preference
queries of Chapters 3 and 7 in one session, on the signature cube and BBS
that ``repro.paper.stack.register_paper_backends`` puts on an engine stack.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.engine import Executor
from repro.functions import LinearFunction
from repro.paper.skyline import SkylineSession
from repro.paper.stack import register_paper_backends
from repro.query import Predicate, SkylineQuery, TopKQuery
from repro.storage.table import Relation, Schema

BRANDS = ["dell", "lenovo", "apple", "asus", "hp"]
PRICE_BANDS = ["low", "mid", "high"]


def build_catalog(num: int = 12000, seed: int = 23) -> Relation:
    rng = np.random.default_rng(seed)
    schema = Schema(("brand", "price_band"), ("neg_cpu", "neg_mem", "price", "weight"))
    brand = rng.integers(0, len(BRANDS), num)
    cpu = rng.uniform(0.2, 1.0, num)
    mem = rng.uniform(0.1, 1.0, num)
    price = np.clip(0.3 * cpu + 0.3 * mem + rng.normal(0.1, 0.12, num), 0.05, 1.0)
    weight = np.clip(rng.normal(0.5, 0.2, num), 0.1, 1.0)
    band = np.digitize(price, [0.35, 0.65])
    selection = np.column_stack([brand, band])
    # Market potential prefers high CPU/memory, so store negated values and
    # minimize, keeping every engine in its "smaller is better" convention.
    ranking = np.column_stack([1 - cpu, 1 - mem, price, weight])
    return Relation(schema, selection, ranking, name="notebooks")


def main() -> None:
    catalog = build_catalog()
    executor = Executor.for_relation(catalog)
    register_paper_backends(executor, catalog, rtree_max_entries=48)
    topk = executor.registry.get("signature-cube")
    market_potential = LinearFunction(["neg_cpu", "neg_mem", "price"],
                                      [0.5, 0.3, 0.2])

    # Step 1: dell low-end notebooks with the best market potential.
    dell_low = TopKQuery(
        Predicate.of(brand=BRANDS.index("dell"), price_band=PRICE_BANDS.index("low")),
        market_potential, k=5)
    print("top-5 dell low-end notebooks by market potential")
    dell_result = topk.run(dell_low)
    for rank, (tid, score) in enumerate(dell_result.as_pairs(), start=1):
        print(f"  {rank}. notebook {tid} (score {score:.4f})")

    # Step 2: roll up on brand — the same band across all makers.
    all_low = TopKQuery(Predicate.of(price_band=PRICE_BANDS.index("low")),
                        market_potential, k=5)
    print("\ntop-5 low-end notebooks across all makers (roll-up on brand)")
    all_result = topk.run(all_low)
    dell_in_overall = set(dell_result.tids) & set(all_result.tids)
    for rank, (tid, score) in enumerate(all_result.as_pairs(), start=1):
        brand = BRANDS[catalog.selection_values(tid)["brand"]]
        print(f"  {rank}. notebook {tid} [{brand}] (score {score:.4f})")
    print(f"  dell holds {len(dell_in_overall)} of the overall top-5 "
          f"low-end positions")

    # Step 3: price/weight skyline within dell, then drill down to low-end.
    session = SkylineSession(executor.registry.get("skyline").engine)
    base = session.fresh(SkylineQuery(Predicate.of(brand=BRANDS.index("dell")),
                                      ("price", "weight")))
    print(f"\ndell price/weight skyline: {len(base)} notebooks "
          f"({base.disk_accesses} page reads)")
    drilled = session.drill_down({"price_band": PRICE_BANDS.index("low")})
    print(f"after drilling into the low-end band: {len(drilled)} notebooks "
          f"({drilled.disk_accesses} page reads on warm buffers)")


if __name__ == "__main__":
    main()

"""Fault-tolerance benchmark: correctness and latency under injected chaos.

Three passes over one sharded relation:

1. **Baseline** — the workload through a fault-free thread scatter;
   per-query latencies and answers are the reference.
2. **Chaos** — the same workload through an engine wearing a seeded
   :class:`~repro.fault.inject.FaultInjector` (pre/post-leg worker
   crashes and delays) plus a :class:`~repro.fault.retry.RetryPolicy`.
   The fault cap is kept strictly below ``max_attempts - 1``, so
   recovery provably converges for any seed.  Gates:

   * **zero wrong answers** — every chaos answer bit-identical to the
     baseline (the headline claim: fault machinery never changes a
     result);
   * ``fault.retries > 0`` — the chaos actually exercised the recovery
     path (a vacuous pass proves nothing);
   * **bounded degradation** — chaos p99 latency within
     ``--max-p99-ratio`` of the fault-free p99 (with a small absolute
     floor so microsecond baselines don't make the ratio meaningless).

3. **Breaker / degradation** — one shard fails permanently behind a
   3-failure circuit breaker with ``allow_partial=True``.  Gates:
   ``breaker.opened >= 1``, every answer flagged ``degraded`` and
   bit-identical to the brute-force oracle restricted to the surviving
   shards, and post-trip queries fail fast (no attempts against the
   dead shard).

Run directly (``--quick`` for the CI smoke configuration)::

    PYTHONPATH=src python benchmarks/bench_fault_tolerance.py --quick

Emits ``BENCH_fault.json`` for the CI artifact upload; exits non-zero
when any gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from repro.errors import ShardWorkerError  # noqa: E402
from repro.fault import BreakerPolicy, FaultInjector, RetryPolicy  # noqa: E402
from repro.functions.linear import skewed_linear_function  # noqa: E402
from repro.query import Predicate, TopKQuery  # noqa: E402
from repro.shard import (  # noqa: E402
    HashShardingPolicy,
    InProcessLegs,
    ScatterGatherExecutor,
    ShardManager,
)
from repro.workloads import SyntheticSpec, generate_relation  # noqa: E402


def build_workload(relation, num_queries: int) -> List[TopKQuery]:
    """Mixed top-k queries: varying predicates, functions, and k."""
    rng = np.random.default_rng(4242)
    queries = []
    for i in range(num_queries):
        conditions = {}
        if rng.random() < 0.5:
            dim = str(rng.choice(relation.selection_dims))
            column = relation.selection_column(dim)
            conditions[dim] = int(column[rng.integers(0, len(column))])
        dims = list(relation.ranking_dims)
        function = skewed_linear_function(dims, float(rng.uniform(1, 3)),
                                          rng=rng)
        k = int(rng.choice([1, 5, 10, 25]))
        queries.append(TopKQuery(Predicate.of(conditions), function, k))
    return queries


def run_pass(engine, manager, queries) -> tuple:
    """Execute the workload once, cache-flushed; per-query latencies."""
    manager.invalidate_caches()
    latencies = []
    results = []
    for query in queries:
        start = time.perf_counter()
        results.append(engine.execute(query))
        latencies.append(time.perf_counter() - start)
    return results, latencies


def p99(latencies: List[float]) -> float:
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1,
                       max(0, int(round(0.99 * len(ordered))) - 1))]


def make_manager(relation, num_shards: int) -> ShardManager:
    return ShardManager(relation, HashShardingPolicy(num_shards),
                        block_size=64, with_signature=False,
                        with_skyline=False)


def surviving_oracle(relation, query, surviving_tids):
    """Brute force restricted to the surviving shards' global tids."""
    mask = relation.mask_equal(query.predicate.as_dict)
    scored = sorted(
        (float(query.function.evaluate_tuple(relation, int(tid))), int(tid))
        for tid in np.nonzero(mask)[0] if int(tid) in surviving_tids)
    top = scored[: query.k]
    return tuple(t for _, t in top), tuple(s for s, _ in top)


class FailingLegs(InProcessLegs):
    """A fake leg runner: legs to one shard raise, the rest run for real."""

    def __init__(self, manager, bad_index):
        super().__init__(manager)
        self.bad_index = bad_index

    def run(self, shard, queries, leg_span, deadline):
        if shard.index == self.bad_index:
            raise ShardWorkerError(
                f"shard {shard.index} worker process died (exit code -9)",
                shard_index=shard.index)
        return super().run(shard, queries, leg_span, deadline)


def fail_shard(engine, bad_index: int) -> None:
    """Make every leg to one shard raise, leaving the others honest."""
    engine.legs = FailingLegs(engine.manager, bad_index)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small configuration for CI smoke runs")
    parser.add_argument("--seed", type=int, default=1337,
                        help="fault injector seed (default: 1337)")
    parser.add_argument("--tuples", type=int, default=None,
                        help="relation size override (smoke tests)")
    parser.add_argument("--queries", type=int, default=None,
                        help="workload size override (smoke tests)")
    parser.add_argument("--max-p99-ratio", type=float, default=10.0,
                        help="fail when the chaos pass p99 exceeds this "
                             "multiple of the fault-free p99 (default: 10)")
    parser.add_argument("--output", default="BENCH_fault.json",
                        help="JSON results path (default: BENCH_fault.json)")
    args = parser.parse_args(argv)

    num_tuples = args.tuples or (4000 if args.quick else 20000)
    num_shards = 3 if args.quick else 6
    num_queries = args.queries or (40 if args.quick else 120)
    max_faults = 10 if args.quick else 30

    relation = generate_relation(SyntheticSpec(
        num_tuples=num_tuples, num_selection_dims=3, num_ranking_dims=2,
        cardinality=6, seed=4242))
    queries = build_workload(relation, num_queries)
    failures: List[str] = []

    # -- pass 1: fault-free baseline -----------------------------------
    baseline_manager = make_manager(relation, num_shards)
    with ScatterGatherExecutor(baseline_manager) as engine:
        # Warm-up builds the shard stacks outside the timed region.
        engine.execute(queries[0])
        baseline_results, baseline_latencies = run_pass(
            engine, baseline_manager, queries)
    baseline_p99 = p99(baseline_latencies)

    # -- pass 2: chaos with retries ------------------------------------
    chaos_manager = make_manager(relation, num_shards)
    injector = FaultInjector(
        seed=args.seed,
        rates={"worker.crash.pre": 0.15, "worker.crash.post": 0.08,
               "leg.delay": 0.05},
        max_faults=max_faults, delay_seconds=0.0005)
    chaos_engine = ScatterGatherExecutor(
        chaos_manager, fault_injector=injector,
        retry_policy=RetryPolicy(max_attempts=max_faults + 2,
                                 base_delay=0.0005, cap_delay=0.002,
                                 budget=None, jitter_seed=args.seed))
    with chaos_engine:
        chaos_engine.execute(queries[0])
        injector.fired = {point: 0 for point in injector.fired}  # warm-up out
        chaos_results, chaos_latencies = run_pass(
            chaos_engine, chaos_manager, queries)
    chaos_snap = chaos_engine.metrics.snapshot()
    chaos_p99 = p99(chaos_latencies)

    wrong = sum(1 for a, b in zip(baseline_results, chaos_results)
                if a.tids != b.tids or a.scores != b.scores)
    if wrong:
        failures.append(f"{wrong}/{num_queries} chaos answers differ from "
                        f"the fault-free baseline (must be zero)")
    if injector.total_fired == 0 or chaos_snap["fault.retries"] == 0:
        failures.append("the chaos pass injected no faults / retried "
                        "nothing — the recovery path went unexercised")
    p99_allowed = max(args.max_p99_ratio * baseline_p99,
                      baseline_p99 + 0.05)
    if chaos_p99 > p99_allowed:
        failures.append(
            f"chaos p99 {chaos_p99 * 1e3:.2f}ms exceeds the allowed "
            f"{p99_allowed * 1e3:.2f}ms "
            f"({args.max_p99_ratio:g}x fault-free p99 "
            f"{baseline_p99 * 1e3:.2f}ms)")

    # -- pass 3: permanent shard loss behind a breaker ------------------
    breaker_manager = make_manager(relation, num_shards)
    breaker_engine = ScatterGatherExecutor(
        breaker_manager, allow_partial=True,
        breaker_policy=BreakerPolicy(failure_threshold=3, cooldown=3600.0))
    fail_shard(breaker_engine, bad_index=0)
    surviving = {int(tid) for shard in breaker_manager.shards
                 if shard.index != 0 for tid in shard.tid_map}
    degraded_wrong = 0
    not_degraded = 0
    with breaker_engine:
        for query in queries:
            result = breaker_engine.execute(query, use_result_cache=False)
            if "degraded" not in result.extra:
                not_degraded += 1
                continue
            tids, scores = surviving_oracle(relation, query, surviving)
            if result.tids != tids or result.scores != scores:
                degraded_wrong += 1
    breaker_snap = breaker_engine.metrics.snapshot()
    if degraded_wrong:
        failures.append(f"{degraded_wrong} degraded answers differ from the "
                        f"surviving-shard oracle")
    if not_degraded:
        failures.append(f"{not_degraded} answers over a dead shard were not "
                        f"flagged degraded")
    if breaker_snap["breaker.opened"] < 1:
        failures.append("the dead shard's circuit breaker never opened")
    if breaker_snap["breaker.rejected"] < 1:
        failures.append("no leg was refused fail-fast by the open breaker")

    report = {
        "mode": "quick" if args.quick else "full",
        "num_tuples": num_tuples,
        "num_shards": num_shards,
        "num_queries": num_queries,
        "seed": args.seed,
        "faults_injected": injector.total_fired,
        "faults_by_point": {point: count
                            for point, count in injector.fired.items()
                            if count},
        "retries": chaos_snap["fault.retries"],
        "wrong_answers": wrong,
        "baseline_p99_ms": baseline_p99 * 1e3,
        "chaos_p99_ms": chaos_p99 * 1e3,
        "max_p99_ratio": args.max_p99_ratio,
        "breaker_opened": breaker_snap["breaker.opened"],
        "breaker_rejected": breaker_snap["breaker.rejected"],
        "degraded_results": breaker_snap["fault.degraded_results"],
        "failures": failures,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)

    print(f"# fault tolerance ({report['mode']} mode)")
    print(f"tuples={num_tuples} shards={num_shards} queries={num_queries} "
          f"seed={args.seed}")
    print(f"chaos: {injector.total_fired} faults injected "
          f"{report['faults_by_point']}, "
          f"{chaos_snap['fault.retries']:.0f} retries, "
          f"{wrong} wrong answers")
    print(f"latency p99: fault-free {baseline_p99 * 1e3:.2f}ms, "
          f"chaos {chaos_p99 * 1e3:.2f}ms "
          f"(allowed {p99_allowed * 1e3:.2f}ms)")
    print(f"breaker: opened={breaker_snap['breaker.opened']:.0f} "
          f"rejected={breaker_snap['breaker.rejected']:.0f} "
          f"degraded={breaker_snap['fault.degraded_results']:.0f}")
    print(f"wrote {args.output}")
    for failure in failures:
        print(f"REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

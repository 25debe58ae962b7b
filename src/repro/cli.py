"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo [--shards N] [--planner cost|static] [--chaos SEED] [--allow-partial]``
    Build a small ranking cube and run one query end to end — a smoke test
    that the installation works.  ``--shards N`` routes the same queries
    through the scatter/gather engine over N range shards instead (its
    legs run one after another, in cost order); ``--planner static``
    swaps the statistics-driven cost-based backend selection for the
    legacy (priority, name) order.  ``--chaos SEED`` plants seeded leg
    crashes and delays in the scatter legs (retries and per-shard circuit
    breakers recover; answers stay exact); ``--allow-partial`` degrades to
    the exact answer over surviving shards instead of failing when a shard
    stays down.
``serve [--shards N] [--clients C] [--queries Q] [--linger MS] [--chaos SEED] [--allow-partial] [--http HOST:PORT] [--rate R]``
    Start an async :class:`~repro.serve.QueryService` over the engine and
    drive C concurrent clients of Q queries each through it, then print
    the merged metrics-registry snapshot (``serve.*`` + ``shard.*`` +
    ``engine.*`` counters, gauges, and latency percentiles) as JSON — a
    demo of the request queue + adaptive micro-batcher.  With ``--http``
    it instead binds a :class:`~repro.net.QueryServer` on HOST:PORT and
    serves JSON queries over HTTP until interrupted (``--rate``
    sets the default per-client token-bucket rate; see
    ``docs/network_serving.md``).
``analyze [--shards N] [--k K] [--direct]``
    EXPLAIN ANALYZE one top-k query: run it traced and render the span
    tree — queue wait, plan (with per-backend cost estimates), scatter
    legs, fused sweep, gather — with estimated cost vs. actual tuples
    per backend.  By default the query is served through a
    :class:`~repro.serve.QueryService` alongside fusable peer queries so
    the tree shows batching and the shared frontier sweep; ``--direct``
    calls ``explain_analyze`` on the engine itself instead.

``list-experiments`` / ``run-experiments`` are ``python -m repro.paper``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


def _fault_kwargs(args: argparse.Namespace) -> dict:
    """Scatter-engine fault kwargs for the ``--chaos`` / ``--allow-partial``
    flags: a seeded injector whose fault cap sits safely below the retry
    attempts, so the chaos demo provably converges to correct answers."""
    kwargs: dict = {"allow_partial": bool(getattr(args, "allow_partial",
                                                  False))}
    chaos = getattr(args, "chaos", None)
    if chaos is not None:
        from repro.fault import BreakerPolicy, FaultInjector, RetryPolicy

        kwargs["fault_injector"] = FaultInjector(
            seed=chaos,
            rates={"worker.crash.pre": 0.25, "worker.crash.post": 0.1,
                   "leg.delay": 0.1},
            max_faults=8, delay_seconds=0.002)
        kwargs["retry_policy"] = RetryPolicy(
            max_attempts=10, base_delay=0.002, cap_delay=0.02,
            jitter_seed=chaos)
        # The breaker threshold sits above the fault cap: with at most 8
        # injected faults no shard can ever see enough consecutive
        # failures to trip, so the chaos demo provably converges to
        # exact answers for any seed.
        kwargs["breaker_policy"] = BreakerPolicy(failure_threshold=10,
                                                 cooldown=1.0)
    return kwargs


def _print_fault_report(engine, injector) -> None:
    fired = {point: count for point, count in injector.fired.items() if count}
    print(f"chaos: injected {injector.total_fired} faults {fired}")
    snap = engine.metrics.snapshot()
    counters = {name: value for name, value in sorted(snap.items())
                if name.startswith(("fault.", "breaker.")) and value}
    print(f"fault counters: {counters}")


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.engine import Executor
    from repro.functions import LinearFunction
    from repro.query import Predicate, SkylineQuery, TopKQuery
    from repro.workloads import SyntheticSpec, generate_relation

    relation = generate_relation(SyntheticSpec(num_tuples=5000, num_selection_dims=3,
                                               num_ranking_dims=2, cardinality=10))
    num_shards = getattr(args, "shards", 0) or 0
    planner_mode = getattr(args, "planner", "cost")
    if num_shards > 1:
        from repro.workloads import make_sharded_engine

        fault_kwargs = _fault_kwargs(args)
        _, executor = make_sharded_engine(relation, num_shards, range_dim="A1",
                                          block_size=200,
                                          planner_mode=planner_mode,
                                          **fault_kwargs)
        print(f"engine: scatter/gather over {num_shards} range shards on A1")
        if fault_kwargs.get("fault_injector") is not None:
            print(f"chaos: seed {args.chaos} — injected leg crashes and "
                  f"delays, recovered by retries/breakers")
    else:
        if getattr(args, "chaos", None) is not None:
            print("note: --chaos injects faults into scatter legs; it needs "
                  "--shards > 1 and is ignored unsharded", file=sys.stderr)
        executor = Executor.for_relation(relation, block_size=200,
                                         planner_mode=planner_mode)
    query = TopKQuery(Predicate.of(A1=1, A2=2),
                      LinearFunction(["N1", "N2"], [1.0, 1.0]), 5)
    result = executor.execute(query)
    print("top-5 for A1=1 and A2=2 order by N1+N2:")
    for tid, score in result.as_pairs():
        print(f"  tid={tid} score={score:.4f}")
    print(f"backend: {result.backend}")
    print(f"plan: {result.plan}")
    if num_shards <= 1:
        plan = executor.plan(query)
        costs = plan.details.get("cost_estimates")
        if costs:
            print(f"planner: {plan.mode} mode, candidate costs {costs}")
        else:
            print(f"planner: {plan.mode} mode")
    if num_shards > 1:
        print(f"shards consulted: {result.extra['shards_consulted']} "
              f"(pruned: {result.extra['shards_pruned']})")
        if "degraded" in result.extra:
            print(f"DEGRADED answer: shards_failed="
                  f"{result.extra['shards_failed']} "
                  f"completeness={result.extra['completeness']:.2f}")
    print(f"{result.disk_accesses} block accesses, "
          f"{result.states_generated} blocks examined")

    skyline = executor.execute(SkylineQuery(Predicate.of(A1=1), ("N1", "N2")))
    print(f"skyline for A1=1 over (N1, N2): {len(skyline)} points "
          f"via {skyline.backend}")
    if num_shards > 1 and getattr(executor, "fault_injector", None) is not None:
        _print_fault_report(executor, executor.fault_injector)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.engine import Executor
    from repro.serve import QueryService, ServiceConfig
    from repro.workloads import (
        SyntheticSpec,
        generate_relation,
        make_sharded_engine,
        serving_client_queries,
    )

    relation = generate_relation(SyntheticSpec(
        num_tuples=5000, num_selection_dims=3, num_ranking_dims=2,
        cardinality=10))
    if args.shards > 1:
        fault_kwargs = _fault_kwargs(args)
        manager, engine = make_sharded_engine(
            relation, args.shards, range_dim="A1",
            block_size=200, with_signature=False, with_skyline=False,
            **fault_kwargs)
        print(f"engine: scatter/gather over {args.shards} range shards on A1")
        if fault_kwargs.get("fault_injector") is not None:
            print(f"chaos: seed {args.chaos} — serving through injected "
                  f"leg crashes and delays")
    else:
        manager = None
        if getattr(args, "chaos", None) is not None:
            print("note: --chaos injects faults into scatter legs; it needs "
                  "--shards > 1 and is ignored unsharded", file=sys.stderr)
        engine = Executor.for_relation(relation, block_size=200,
                                       with_signature=False,
                                       with_skyline=False)
        print("engine: unsharded")
    config = ServiceConfig(max_batch_size=64,
                           max_linger=args.linger / 1000.0)

    if getattr(args, "http", None):
        from repro.functions import LinearFunction
        from repro.net import FunctionRegistry, NetConfig, QueryServer

        host, _, port_text = args.http.rpartition(":")
        if not host or not port_text.isdigit():
            print(f"--http expects HOST:PORT, got {args.http!r}",
                  file=sys.stderr)
            return 2
        registry = FunctionRegistry()
        registry.register("sum_n1_n2", LinearFunction(["N1", "N2"],
                                                      [1.0, 1.0]))
        net_config = NetConfig(host=host, port=int(port_text),
                               rate=getattr(args, "rate", None))

        async def run_http() -> int:
            service = QueryService(engine, config, manager=manager,
                                   relation=relation)
            async with service:
                async with QueryServer(service, net_config,
                                       functions=registry) as server:
                    print(f"serving HTTP on {server.host}:{server.port} "
                          f"(POST /v1/query, /v1/query/batch, "
                          f"/v1/query/stream; GET /healthz, "
                          f"/metrics, /v1/stats)")
                    try:
                        await asyncio.Event().wait()
                    except asyncio.CancelledError:
                        pass
            return 0

        try:
            return asyncio.run(run_http())
        except KeyboardInterrupt:
            print("shutting down")
            return 0

    clients = serving_client_queries(relation, num_clients=args.clients,
                                     per_client=args.queries)

    async def run() -> dict:
        service = QueryService(engine, config, manager=manager,
                               relation=relation)
        async with service:
            await asyncio.gather(*(service.submit_many(stream)
                                   for stream in clients))
            return service.metrics_snapshot()

    snap = asyncio.run(run())
    total = args.clients * args.queries
    print(f"served {total} queries from {args.clients} concurrent clients")
    if getattr(engine, "fault_injector", None) is not None:
        _print_fault_report(engine, engine.fault_injector)
    print("metrics (merged across serve, shards, engine):")
    print(json.dumps(snap, indent=2, sort_keys=True))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import asyncio

    from repro.engine import Executor
    from repro.functions import LinearFunction
    from repro.query import Predicate, TopKQuery
    from repro.serve import QueryService, ServiceConfig
    from repro.workloads import SyntheticSpec, generate_relation, make_sharded_engine

    relation = generate_relation(SyntheticSpec(
        num_tuples=5000, num_selection_dims=3, num_ranking_dims=2,
        cardinality=10))
    function = LinearFunction(["N1", "N2"], [1.0, 1.0])
    target = TopKQuery(Predicate.of(A1=1, A2=2), function, args.k)
    if args.shards > 1:
        manager, engine = make_sharded_engine(
            relation, args.shards, range_dim="A1", block_size=200,
            with_signature=False, with_skyline=False)
        print(f"engine: scatter/gather over {args.shards} range shards on A1")
    else:
        manager = None
        engine = Executor.for_relation(relation, block_size=200,
                                       with_signature=False,
                                       with_skyline=False)
        print("engine: unsharded")
    print(f"query: top-{args.k} for A1=1 and A2=2 order by N1+N2")
    if args.direct:
        print(engine.explain_analyze(target))
        return 0

    # Serve the analyzed query alongside same-function peers so the trace
    # shows the micro-batcher's queue wait and the fused frontier sweep.
    peers = [TopKQuery(Predicate.of(A1=value), function, 3)
             for value in (0, 1, 2)]
    config = ServiceConfig(max_batch_size=16, max_linger=0.05)

    async def run() -> str:
        service = QueryService(engine, config, manager=manager,
                               relation=relation)
        async with service:
            others = [asyncio.ensure_future(service.submit(peer))
                      for peer in peers]
            text = await service.explain_analyze(target)
            await asyncio.gather(*others)
            return text

    print(asyncio.run(run()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Ranking-cube reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="build a small cube and run one query")
    demo.add_argument("--shards", type=int, default=0,
                      help="route the demo through a scatter/gather engine "
                           "over N range shards (default: unsharded)")
    demo.add_argument("--planner", choices=("cost", "static"), default="cost",
                      help="backend selection mode: statistics-driven cost "
                           "estimates (default) or the static (priority, "
                           "name) order")
    demo.add_argument("--chaos", type=int, metavar="SEED", default=None,
                      help="inject seeded leg crashes/delays into the "
                           "scatter legs (requires --shards > 1); retries "
                           "and breakers recover, answers stay exact")
    demo.add_argument("--allow-partial", action="store_true",
                      help="degrade to the exact answer over surviving "
                           "shards when one stays down, instead of failing "
                           "the query")
    demo.set_defaults(handler=_cmd_demo)

    serve = sub.add_parser(
        "serve", help="drive concurrent clients through the async service")
    serve.add_argument("--shards", type=int, default=3,
                       help="scatter/gather over N range shards "
                            "(<=1: unsharded; default: 3)")
    serve.add_argument("--clients", type=int, default=8,
                       help="number of concurrent clients (default: 8)")
    serve.add_argument("--queries", type=int, default=6,
                       help="queries per client (default: 6)")
    serve.add_argument("--linger", type=float, default=5.0,
                       help="micro-batcher max linger in milliseconds "
                            "(default: 5)")
    serve.add_argument("--chaos", type=int, metavar="SEED", default=None,
                       help="inject seeded leg crashes/delays into the "
                            "scatter legs while serving (requires "
                            "--shards > 1)")
    serve.add_argument("--http", metavar="HOST:PORT", default=None,
                       help="serve the engine over HTTP instead of "
                            "driving synthetic clients (Ctrl-C to stop)")
    serve.add_argument("--rate", type=float, default=None,
                       help="default per-client token-bucket rate "
                            "(requests/s) for --http; omit to disable")
    serve.add_argument("--allow-partial", action="store_true",
                       help="degrade to exact answers over surviving shards "
                            "when one stays down, instead of failing "
                            "requests")
    serve.set_defaults(handler=_cmd_serve)

    analyze = sub.add_parser(
        "analyze",
        help="EXPLAIN ANALYZE one served top-k query as a span tree")
    analyze.add_argument("--shards", type=int, default=3,
                         help="scatter/gather over N range shards "
                              "(<=1: unsharded; default: 3)")
    analyze.add_argument("--k", type=int, default=5,
                         help="result size of the analyzed query "
                              "(default: 5)")
    analyze.add_argument("--direct", action="store_true",
                         help="call explain_analyze on the engine itself "
                              "instead of serving the query through the "
                              "micro-batcher")
    analyze.set_defaults(handler=_cmd_analyze)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())

"""The layer ledger: one slice replayed at each front door, outside in.

Program tracing stays off.  The traced run replays one pass-sized slice
of read ops on the *same built stack*, with one caller, at every front
door from the outside in::

    net      AsyncQueryClient.query / query_many          (the socket)
    serve    QueryService.submit / submit_many
    shard    ScatterGatherExecutor.execute_many            (sharded only)
    engine   Executor.execute / execute_many   (sole, or each consulted shard)
    backend  Executor.plan + registry.get(backend).run / execute_batch

recording one span per (op, depth) from this file, around the call into
the layer — name, start, end, parent = the same op one depth out, shared
op id.  Caches are reset between depths through public methods only, so
each depth meets the same state, and every depth is replayed ``REPEATS``
times with the per-op *minimum* kept (interference only adds time).  A
layer's self time is its mean span minus its child's, floored at zero;
``trace.telescoping_error`` is non-zero exactly when a floor was hit,
i.e. when an inner replay came out slower than the door outside it.
Times are reference-speed (see ``harness``): every replay is paced by
yardsticks exactly like a measured pass, and the stand-alone probes are
bracketed by their own.
"""

from __future__ import annotations

import gc
import json
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.engine.cache import function_fuse_key
from repro.functions.distance import SquaredDistanceFunction
from repro.functions.linear import LinearFunction
from repro.net.protocol import (
    RateLimitedError,
    decode_query,
    decode_result,
    encode_query,
    encode_result,
)
from repro.query import TopKQuery
from repro.serve import ServiceOverloadedError
from repro.storage.buffer import BufferPool

from harness import Pacer, Reference, Served, issue, serve
from oracle import Oracle, shape_error
from workloads import Op, Stack, Workload, pass_ops, random_row

REPEATS = 3
INSERT_PROBES = 16   # service.insert vs the mutation it wraps, each
REBUILD_PROBES = 2   # insert + rebuild rounds from fully built stacks
BACKENDS = ("ranking-cube", "signature-cube", "table-scan", "skyline",
            "skyline-scan")
LAYERS = ("net", "serve", "shard", "engine", "backend")

clock = time.perf_counter


class Spans:
    """In-memory span store; JSON lines on request, never while timing."""

    def __init__(self) -> None:
        self.rows: List[Tuple[int, str, int, float, float]] = []
        #: (layer, repeat) -> the yardsticks taken through that replay.
        self.pacers: Dict[Tuple[str, int], Pacer] = {}

    def add(self, op: int, layer: str, repeat: int, start: float,
            end: float) -> None:
        self.rows.append((op, layer, repeat, start, end))

    def durations(self, layer: str, ops: int) -> np.ndarray:
        """Per-op span length in reference-speed seconds: the minimum
        over repeats (0 where the layer was never entered, e.g. below a
        result-cache hit)."""
        best = np.full(ops, np.inf)
        for op, name, repeat, start, end in self.rows:
            if name == layer:
                factor = self.pacers[name, repeat].factor(op)
                best[op] = min(best[op], (end - start) * factor)
        best[np.isinf(best)] = 0.0
        return best

    def write(self, path: str, layers: Iterable[str]) -> None:
        parent = dict(zip(list(layers)[1:], layers))
        with open(path, "w") as handle:
            for op, layer, repeat, start, end in self.rows:
                handle.write(json.dumps({
                    "op": op, "name": layer, "repeat": repeat,
                    "start": start, "end": end,
                    "to_reference": self.pacers[layer, repeat].factor(op),
                    "parent": parent.get(layer)}) + "\n")


# ----------------------------------------------------------------------
# state reset between depths (public methods only)
# ----------------------------------------------------------------------
def buffer_pools(executor) -> List[BufferPool]:
    """Every ``BufferPool`` reachable from a backend by public attribute."""
    pools: List[BufferPool] = []
    seen = set()

    def visit(obj) -> None:
        if obj is None or id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, BufferPool):
            pools.append(obj)
            return
        for name in ("buffer", "cube", "engine", "executor", "rtree", "store",
                     "block_table"):
            visit(getattr(obj, name, None))
        cuboids = getattr(obj, "cuboids", None)
        if isinstance(cuboids, dict):
            for cuboid in cuboids.values():
                visit(cuboid)

    for backend in executor.registry:
        visit(backend)
    return pools


def reset_state(stack: Stack) -> None:
    """Cold result, bound and page caches; zeroed hit counters."""
    stack.engine.result_cache.invalidate()
    for executor in stack.executors():
        executor.result_cache.invalidate()
        executor.bound_cache.clear()
        executor.bound_cache.reset_counters()
        for pool in buffer_pools(executor):
            pool.invalidate()
            pool.reset_counters()
    gc.collect()


def hit_rates(stack: Stack) -> Tuple[float, float]:
    """``(lower-bound cache, buffer pool)`` hit rates since the last reset,
    summed over every executor in the stack."""
    caches = [executor.bound_cache for executor in stack.executors()]
    pools = [pool for executor in stack.executors()
             for pool in buffer_pools(executor)]

    def rate(counters) -> float:
        hits = sum(c.hits for c in counters)
        lookups = hits + sum(c.misses for c in counters)
        return hits / lookups if lookups else 0.0

    return rate(caches), rate(pools)


def fresh(op: Op) -> List:
    """The op's queries as the server would decode them: new objects, so
    identity-keyed caches see each depth exactly as they see the wire."""
    return [decode_query(encode_query(query)) for query in op.queries]


def is_hit(result) -> bool:
    return result.extra.get("result_cache") == "hit"


# ----------------------------------------------------------------------
# one replay per depth
# ----------------------------------------------------------------------
async def replay_net(served: Served, ops: List[Op], spans: Optional[Spans],
                     repeat: int, pacer: Pacer
                     ) -> Tuple[List, np.ndarray, int]:
    """Through the socket.  ``spans=None`` is the untraced reference; the
    latencies come back in reference-speed seconds either way."""
    results, latencies, refused = [], np.zeros(len(ops)), 0
    for index, op in enumerate(ops):
        start = clock()
        try:
            outcome = await issue(served, op)
        except Exception as exc:  # noqa: BLE001 — counted as a failed op
            refused += isinstance(exc, (RateLimitedError,
                                        ServiceOverloadedError))
            outcome = exc
        end = clock()
        latencies[index] = end - start
        if spans is not None:
            spans.add(index, "net", repeat, start, end)
        results.append(outcome if isinstance(outcome, list) else [outcome])
        pacer.after(index)
    factors = np.array([pacer.factor(i) for i in range(len(ops))])
    return results, latencies * factors, refused


async def replay_serve(served: Served, ops: List[Op], spans: Spans,
                       repeat: int, pacer: Pacer) -> List:
    results = []
    for index, op in enumerate(ops):
        queries = fresh(op)
        start = clock()
        if op.kind == "batch":
            outcome = await served.service.submit_many(queries)
        else:
            outcome = [await served.service.submit(queries[0])]
        spans.add(index, "serve", repeat, start, clock())
        results.append(outcome)
        pacer.after(index)
    return results


def replay_front_door(stack: Stack, ops: List[Op], spans: Spans,
                      repeat: int, pacer: Pacer, layer: str) -> List:
    """The engine call the service makes: one ``execute_many`` per request."""
    results = []
    for index, op in enumerate(ops):
        queries = fresh(op)
        start = clock()
        outcome = stack.engine.execute_many(queries)
        spans.add(index, layer, repeat, start, clock())
        results.append(outcome)
        pacer.after(index)
    return results


def shard_legs(stack: Stack, ops: List[Op], gathered: List) -> List:
    """Per op, the ``(shard, member positions)`` legs the scatter ran,
    read back from the gathered results' public ``shards_consulted``."""
    legs = []
    for op, results in zip(ops, gathered):
        members: Dict[int, List[int]] = {}
        for position, result in enumerate(results):
            consulted = str(result.extra.get("shards_consulted", "-"))
            if is_hit(result) or consulted == "-":
                continue
            for index in consulted.split(","):
                members.setdefault(int(index), []).append(position)
        legs.append([(stack.manager.shards[index], positions)
                     for index, positions in sorted(members.items())])
    return legs


def replay_shard_engines(stack: Stack, ops: List[Op], legs: List,
                         spans: Spans, repeat: int, pacer: Pacer) -> List:
    """Each consulted shard's own ``Executor``, as the scatter calls it."""
    calls = []
    for index, (op, op_legs) in enumerate(zip(ops, legs)):
        queries = fresh(op)
        spent, op_calls = 0.0, []
        first = clock()
        for shard, positions in op_legs:
            executor = stack.manager.executor_for(shard)
            members = [queries[p] for p in positions]
            start = clock()
            if op.kind == "batch":
                outcome = executor.execute_many(members)
            else:
                outcome = [executor.execute(members[0])]
            spent += clock() - start
            op_calls.append((executor, members, outcome))
        if op_legs:
            # Legs run back to back; the span is their summed duration.
            spans.add(index, "engine", repeat, first, first + spent)
        calls.append(op_calls)
        pacer.after(index)
    return calls


def replay_backends(calls: List, batched: bool, spans: Spans,
                    repeat: int, pacer: Pacer) -> np.ndarray:
    """Plan, then the chosen backend directly: ``run`` per query, or one
    ``execute_batch`` per (backend, function) group of a batch request.
    Returns the per-op planning time (reference speed); the span covers
    the backend calls."""
    plan_seconds = np.zeros(len(calls))
    for index, op_calls in enumerate(calls):
        spent, first = 0.0, clock()
        for executor, members, outcome in op_calls:
            live = [decode_query(encode_query(query))
                    for query, result in zip(members, outcome)
                    if not is_hit(result)]
            start = clock()
            plans = [executor.plan(query) for query in live]
            plan_seconds[index] += clock() - start
            groups: Dict[tuple, List] = {}
            for position, (query, plan) in enumerate(zip(live, plans)):
                key = ((plan.backend, function_fuse_key(query.function))
                       if batched and isinstance(query, TopKQuery)
                       else (plan.backend, position))
                groups.setdefault(key, []).append(query)
            for (name, _), group in groups.items():
                backend = executor.registry.get(name)
                start = clock()
                if len(group) > 1:
                    backend.execute_batch(group)
                else:
                    backend.run(group[0])
                spent += clock() - start
        if spent:
            spans.add(index, "backend", repeat, first, first + spent)
        pacer.after(index)
    return plan_seconds * np.array([pacer.factor(i)
                                    for i in range(len(calls))])


# ----------------------------------------------------------------------
# standalone probes
# ----------------------------------------------------------------------
def codec_ms(ops: List[Op], served_results: List) -> float:
    """ms per op of the JSON wire format — query and result codecs plus
    ``json`` both ways — timed standalone on the slice's own queries and
    answers (per-op minimum over ``REPEATS``)."""
    best = np.full(len(ops), np.inf)
    for _ in range(REPEATS):
        took = np.zeros(len(ops))
        with Reference() as ref:
            for index, (op, results) in enumerate(zip(ops, served_results)):
                start = clock()
                request = json.dumps({"queries": [
                    encode_query(q) for q in op.queries]}).encode("utf-8")
                for raw in json.loads(request)["queries"]:
                    decode_query(raw)
                response = json.dumps({"results": [
                    encode_result(r) for r in results]}).encode("utf-8")
                for raw in json.loads(response)["results"]:
                    decode_result(raw)
                took[index] = clock() - start
        best = np.minimum(best, took * ref.factor)
    return float(best.mean() * 1000.0)


def body_bytes(ops: List[Op], served_results: List) -> float:
    """Request + response body bytes per op.  The three wall-clock floats
    in a result are zeroed first, so the count repeats exactly."""
    total = 0
    for op, results in zip(ops, served_results):
        encoded = [encode_result(result) for result in results]
        for entry in encoded:
            entry["elapsed_seconds"] = 0.0
            entry["extra"] = {key: (0.0 if key == "queue_wait" else value)
                              for key, value in entry["extra"].items()}
        total += len(json.dumps({"queries": [
            encode_query(q) for q in op.queries]}).encode("utf-8"))
        total += len(json.dumps({"results": encoded}).encode("utf-8"))
    return total / len(ops)


def function_probe(dims: List[str], rows: int = 10_000) -> float:
    """ns per tuple of ``evaluate_batch``, mean over the function kinds the
    workloads rank by (best of 20 calls each)."""
    rng = np.random.default_rng(0)
    values = rng.random((rows, len(dims)))
    kinds = [LinearFunction(dims, [1.0, 2.0][:len(dims)]),
             SquaredDistanceFunction(dims, [0.5] * len(dims))]
    per_kind = []
    with Reference() as ref:
        for function in kinds:
            best = np.inf
            for _ in range(20):
                start = clock()
                function.evaluate_batch(values)
                best = min(best, clock() - start)
            per_kind.append(best / rows * 1e9)
    return float(np.mean(per_kind) * ref.factor)


async def write_probe(served: Served, oracle: Oracle,
                      rng: np.random.Generator) -> Dict[str, float]:
    """The write path by direct calls.

    First ``service.insert`` against the mutation it wraps, alternating,
    ``INSERT_PROBES`` each (on a sharded stack the first few drop a built
    shard stack, the medians do not): the difference is the service's
    share.  Then, sharded only, ``REBUILD_PROBES`` rounds from fully built
    stacks: ``ShardManager.insert`` (which drops the owner's stack — most
    of its cost) and the rebuild of whatever it dropped.
    """
    stack, service = served.stack, served.service
    sharded = stack.manager is not None
    via_service, direct, dropping, rebuild = [], [], [], []

    async def insert(through_service: bool) -> float:
        row = random_row(oracle, rng)
        with Reference() as ref:
            start = clock()
            if through_service:
                tid = await service.insert(row)
            elif sharded:
                tid = stack.manager.insert(row)
            else:
                tid = stack.relation.append(row)
                stack.engine.note_mutation(stack.relation, row=row)
            took = clock() - start
        oracle.append(row, tid)
        return took * ref.factor

    def rebuild_dropped() -> None:
        built = stack.manager.built_executors()
        for shard in stack.manager.shards:
            if shard.index not in built:
                with Reference() as ref:
                    start = clock()
                    stack.manager.executor_for(shard)
                    took = clock() - start
                rebuild.append(took * ref.factor)

    for _ in range(INSERT_PROBES):
        via_service.append(await insert(True))
        direct.append(await insert(False))
    rebuilds = 0
    if sharded:
        rebuild_dropped()
        del rebuild[:]  # those were left by the burst above, not by one insert
        for _ in range(REBUILD_PROBES):
            dropping.append(await insert(False))
            rebuild_dropped()
        rebuilds = len(rebuild)

    def median_ms(values: List[float]) -> float:
        return float(np.median(values) * 1000.0) if values else 0.0

    return {
        "serve.insert_ms": max(median_ms(via_service) - median_ms(direct), 0.0),
        "shard.insert_ms": median_ms(dropping),
        "shard.rebuild_ms": median_ms(rebuild),
        "shard.rebuilds_per_insert": (rebuilds / REBUILD_PROBES
                                      if sharded else 0.0),
    }


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
@dataclass
class Replays:
    """Everything the depth replays of one slice produced."""

    spans: Spans
    untraced: np.ndarray       # per-op net latency, no spans recorded
    plan_seconds: np.ndarray   # per-op Executor.plan time (backend depth)
    refused: int = 0
    bound_hit_rate: float = 0.0
    buffer_hit_rate: float = 0.0
    wire: List = field(default_factory=list)      # decoded off the socket
    served: List = field(default_factory=list)    # native, from the service
    gathered: List = field(default_factory=list)  # from the engine front door


async def replay_depths(served: Served, workload: Workload,
                        ops: List[Op]) -> Replays:
    """``REPEATS`` rounds of every depth, outermost first, each from the
    same cold state and each paced by its own yardsticks."""
    stack = served.stack
    out = Replays(Spans(), np.full(len(ops), np.inf),
                  np.full(len(ops), np.inf))
    batched = ops[0].kind == "batch"
    front = "shard" if workload.sharded else "engine"

    def next_depth(layer: Optional[str], repeat: int) -> Pacer:
        reset_state(stack)
        pacer = Pacer(workload.yardstick_every, len(ops))
        if layer is not None:
            out.spans.pacers[layer, repeat] = pacer
        return pacer

    await replay_net(served, ops, None, 0, next_depth(None, 0))  # warm-up
    for repeat in range(REPEATS):
        # Untraced reference and traced replay swap places every repeat,
        # so neither always runs on the warmer socket path.
        for traced in ([False, True] if repeat % 2 == 0 else [True, False]):
            results, latencies, bounced = await replay_net(
                served, ops, out.spans if traced else None, repeat,
                next_depth("net" if traced else None, repeat))
            if not traced:
                out.untraced = np.minimum(out.untraced, latencies)
                continue
            out.wire = results
            out.refused += bounced
            out.bound_hit_rate, out.buffer_hit_rate = hit_rates(stack)
        out.served = await replay_serve(served, ops, out.spans, repeat,
                                        next_depth("serve", repeat))
        out.gathered = replay_front_door(stack, ops, out.spans, repeat,
                                         next_depth(front, repeat), front)
        if workload.sharded:
            legs = shard_legs(stack, ops, out.gathered)
            calls = replay_shard_engines(stack, ops, legs, out.spans, repeat,
                                         next_depth("engine", repeat))
        else:
            calls = [[(stack.engine, op.queries, results)]
                     for op, results in zip(ops, out.gathered)]
        out.plan_seconds = np.minimum(
            out.plan_seconds,
            replay_backends(calls, batched, out.spans, repeat,
                            next_depth("backend", repeat)))
    return out


def check_slice(ops: List[Op], oracle: Oracle, *answer_sets: List
                ) -> Tuple[int, int, List[str]]:
    """Every answer of the slice, at every front door, against the oracle:
    ``(attempted, failed, reasons)``."""
    errors = []
    for answers in answer_sets:
        for op, results in zip(ops, answers):
            why = None
            for query, result in zip(op.queries, results):
                if isinstance(result, Exception):
                    why = f"{type(result).__name__}: {result}"
                why = (why or shape_error(query, result, oracle.rows)
                       or oracle.mismatch(query, result))
            if why is not None:
                errors.append(why)
    return len(answer_sets) * len(ops), len(errors), errors[:10]


def _listed(text: object, separator: str) -> List[str]:
    """Items of one of the scatter layer's ``extra`` lists (``-``: none)."""
    text = str(text)
    return [] if text in ("-", "") else text.split(separator)


def count_metrics(results: List, sharded: bool) -> Dict[str, float]:
    """The ledger's counts, read off the answers that crossed the wire."""
    queries = float(len(results))

    def mean_of(get) -> float:
        return float(sum(get(result) for result in results) / queries)

    def extra(name: str, default: float = 0.0):
        return lambda result: float(result.extra.get(name, default))

    def count_of(name: str, separator: str):
        return lambda result: len(_listed(result.extra.get(name, "-"),
                                          separator))

    routed = dict.fromkeys(BACKENDS, 0.0)
    legs = 0.0
    for result in results:
        if sharded:  # "0:ranking-cube,2:table-scan"
            names = [part.split(":", 1)[1] for part in
                     _listed(result.extra.get("shard_backends", "-"), ",")]
        else:
            names = [str(result.extra.get("backend"))]
        legs += len(names)
        for name in names:
            if name in routed:
                routed[name] += 1.0
    metrics = {f"engine.routed.{name}": (count / legs if legs else 0.0)
               for name, count in routed.items()}
    metrics.update({
        "serve.queue_wait_ms": mean_of(extra("queue_wait")) * 1000.0,
        "serve.batch_size": mean_of(extra("batch_size")),
        "serve.fused_group_size": mean_of(extra("fused_group_size", 1.0)),
        "shard.legs_per_query": mean_of(count_of("shards_consulted", ",")),
        "shard.pruned_per_query": mean_of(count_of("shards_pruned", "|")),
        "shard.skipped_per_query": mean_of(count_of("shards_skipped", "|")),
        "engine.result_hit_rate": mean_of(lambda r: float(is_hit(r))),
        "engine.fused_share": mean_of(
            lambda r: float(r.extra.get("fused_group_size", 1.0) > 1.0)),
        "backend.tuples_per_query": mean_of(
            lambda r: float(getattr(r, "tuples_evaluated", 0))),
        "backend.states_per_query": mean_of(
            lambda r: float(getattr(r, "states_generated",
                                    getattr(r, "nodes_expanded", 0)))),
        "backend.peak_heap": mean_of(lambda r: float(r.peak_heap_size)),
        "storage.pages_per_query": mean_of(lambda r: float(r.disk_accesses)),
    })
    return metrics


async def trace(workload: Workload, seed: int, *,
                tuples: Optional[int] = None, ops: Optional[int] = None,
                spans_path: Optional[str] = None) -> Dict:
    """One traced run: every per-layer metric, the share table, checks."""
    async with serve(workload, tuples) as served:
        oracle = Oracle.of(served.stack.relation)
        slice_ops = [op for op in pass_ops(workload, oracle, seed, 1, ops)
                     if op.kind != "insert"]
        layers = [name for name in LAYERS
                  if name != "shard" or workload.sharded]
        replays = await replay_depths(served, workload, slice_ops)
        attempted, failed, errors = check_slice(
            slice_ops, oracle, replays.wire, replays.served, replays.gathered)

        span_ms = {name: float(replays.spans.durations(
            name, len(slice_ops)).mean() * 1000.0) for name in layers}
        self_ms = {outer: max(span_ms[outer] - span_ms.get(inner, 0.0), 0.0)
                   for outer, inner in zip(layers, layers[1:] + [None])}
        net_ms, total_self = span_ms["net"], sum(self_ms.values())

        metrics = {f"{name}.self_ms": self_ms.get(name, 0.0)
                   for name in LAYERS}
        metrics.update(count_metrics(
            [result for results in replays.wire for result in results],
            workload.sharded))
        metrics.update({
            "net.codec_ms": codec_ms(slice_ops, replays.served),
            "net.bytes_per_op": body_bytes(slice_ops, replays.served),
            "net.refused": float(replays.refused),
            "engine.plan_ms": float(replays.plan_seconds.mean() * 1000.0),
            "engine.bound_hit_rate": replays.bound_hit_rate,
            "backend.build_s": served.build_seconds,
            "storage.buffer_hit_rate": replays.buffer_hit_rate,
            "functions.eval_ns_per_tuple": function_probe(
                list(served.stack.relation.ranking_dims)),
            "trace.overhead_ratio": net_ms / float(
                replays.untraced.mean() * 1000.0),
            "trace.telescoping_error": abs(total_self - net_ms) / net_ms,
        })
        metrics.update(await write_probe(
            served, oracle, np.random.default_rng([seed, 10 ** 6 + 2])))

    if spans_path is not None:
        replays.spans.write(spans_path, layers)
    return {
        "metrics": metrics,
        "shares": {name: self_ms[name] / total_self for name in layers},
        "ops_attempted": attempted,
        "ops_failed": failed,
        "errors": errors,
        "slice_ops": len(slice_ops),
        "repeats": REPEATS,
        "net_mean_ms": net_ms,
    }

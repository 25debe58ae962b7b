"""Set-up, timed passes, and the end-to-end metrics.

Load shape: a closed loop with **one caller and one request in flight**.
The box has two cores and the server's loop thread plus its engine-pool
thread already want both; callers of this system wait for their answer,
so a closed loop is the honest model.  With one caller and no timers in
steady state, every count the program reports repeats for a given seed.

Run shape: ops are generated from the seed before timing and cut into
passes of a fixed op count; one warm-up pass, then measured passes until
``--seconds`` of pass wall time is spent (never fewer than
``MIN_PASSES``).  Each pass yields a qps and request-latency percentiles;
the reported value is the *quiet quartile* across passes — the 25th
percentile of per-pass times, the 75th of per-pass qps — because host
interference only ever adds time.

Time base: the box shares a physical core with other tenants and its
speed swings by 1.7x over seconds to minutes, whole runs included, so no
statistic *within* a run can find a quiet level.  Every timed stretch is
therefore bracketed by a :func:`yardstick` — a fixed unit of Python,
dict, JSON and numpy work that runs no program code — and scaled to the
speed at which that unit takes ``YARDSTICK_REFERENCE``: all times are
*reference-speed* seconds.  The raw wall-clock values are kept in the
report next to them.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.net import AsyncQueryClient, NetConfig, QueryServer
from repro.obs.trace import NULL_TRACER
from repro.serve import QueryService, ServiceConfig

from oracle import Oracle, shape_error
from workloads import BATCH, Op, Stack, Workload, build, pass_ops

#: A 16-query batch request flushes on the size trigger; a single request
#: flushes on the linger, which the adaptive batcher collapses to ~0 within
#: the warm-up pass.  Either way no request waits on a timer.
SERVICE_CONFIG = ServiceConfig(max_batch_size=BATCH)

SETUPS = 3          # full set-ups per run; setup_s is their median
MIN_PASSES = 8      # measured passes, whatever --seconds says
SAMPLE_SHARE = 0.125  # of each pass's responses compared with the oracle


# ----------------------------------------------------------------------
# the yardstick
# ----------------------------------------------------------------------
#: What one yardstick unit takes when the box is quiet; scaling to it
#: makes reference-speed times read like wall-clock times on a quiet box.
YARDSTICK_REFERENCE = 0.70e-3

_YARD_OBJECT = {"type": "topk", "predicate": {"A1": 3, "A2": 5}, "k": 10,
                "function": {"kind": "linear", "dims": ["N1", "N2"],
                             "weights": [1.0, 2.5], "constant": 0.0},
                "scores": [i * 0.37 for i in range(40)]}
_YARD_VECTOR = np.linspace(0.0, 1.0, 4096)


def _yard_unit() -> int:
    acc = 0
    for i in range(7500):
        acc += (i * i) % 7
    table: Dict[int, int] = {}
    for i in range(3600):
        table[i & 127] = i
    for _ in range(3):
        json.loads(json.dumps(_YARD_OBJECT))
    for _ in range(12):
        order = np.argsort(_YARD_VECTOR * 1.0001 + 0.5)
    return acc + len(table) + int(order[0])


def yardstick() -> float:
    """Seconds one unit takes right now (the faster of two, so a stray
    preemption inside the sample does not read as a slow box)."""
    clock = time.perf_counter
    first = clock()
    _yard_unit()
    second = clock()
    _yard_unit()
    return min(second - first, clock() - second)


def to_reference(seconds: float, before: float, after: float) -> float:
    """``seconds`` of wall time, scaled to reference speed by the
    yardsticks taken just before and just after it."""
    return seconds * YARDSTICK_REFERENCE / ((before + after) / 2.0)


class Reference:
    """``with Reference() as ref: ...`` brackets a stretch with yardsticks;
    afterwards ``seconds * ref.factor`` is reference-speed time."""

    factor = 1.0

    def __enter__(self) -> "Reference":
        self._before = yardstick()
        return self

    def __exit__(self, *exc) -> None:
        self.factor = to_reference(1.0, self._before, yardstick())


class Pacer:
    """Yardsticks through a loop of ops: one before the first op and one
    after every ``every``-th, so each op can be scaled by the two samples
    around its chunk."""

    def __init__(self, every: int, count: int) -> None:
        self.every, self.count = every, count
        self.marks = [yardstick()]

    def after(self, index: int) -> bool:
        """Call once op ``index`` is done; True when it closed a chunk (a
        yardstick was just taken, so restart any chunk clock)."""
        if (index + 1) % self.every and index + 1 != self.count:
            return False
        self.marks.append(yardstick())
        return True

    def factor(self, index: int) -> float:
        """Wall → reference-speed multiplier for op ``index``."""
        chunk = index // self.every
        return to_reference(1.0, self.marks[chunk], self.marks[chunk + 1])


@dataclass
class Served:
    """A built stack behind a live service and server, plus its client."""

    stack: Stack
    service: QueryService
    server: QueryServer
    client: AsyncQueryClient
    build_seconds: float   # reference speed
    setup_seconds: float   # reference speed
    setup_wall: float


@contextlib.asynccontextmanager
async def serve(workload: Workload, tuples: Optional[int] = None):
    """Build → ``QueryService`` → ``QueryServer`` on an ephemeral loopback
    port, timed until ``/healthz`` answers; closes all three on exit."""
    before = yardstick()
    started = time.perf_counter()
    stack = build(workload, tuples)
    build_seconds = time.perf_counter() - started
    service = QueryService(
        stack.engine, SERVICE_CONFIG,
        relation=None if stack.manager is not None else stack.relation)
    if (service.tracer is not NULL_TRACER
            or getattr(stack.engine, "tracer", NULL_TRACER) is not NULL_TRACER):
        raise RuntimeError("program tracing is on; the benchmark measures "
                           "with it off (spans inside src/ are not its job)")
    await service.start()
    try:
        server = QueryServer(service, NetConfig())
        await server.start()
        try:
            client = AsyncQueryClient("127.0.0.1", server.port,
                                      client_id="e2e")
            await client.healthz()
            wall = time.perf_counter() - started
            factor = to_reference(1.0, before, yardstick())
            yield Served(stack, service, server, client,
                         build_seconds * factor, wall * factor, wall)
        finally:
            await server.close()
    finally:
        await service.close()  # also joins a scatter engine's pools


@dataclass
class PassRecord:
    """Outcome of one pass.  ``wall``, ``reads`` and ``writes`` are in
    reference-speed seconds; ``raw_wall`` and ``raw_reads`` are what the
    clock said."""

    wall: float = 0.0
    raw_wall: float = 0.0
    reads: List[float] = field(default_factory=list)
    raw_reads: List[float] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)
    yardsticks: List[float] = field(default_factory=list)
    answers: int = 0      # correct query answers + inserts
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def fail(self, why: str, latencies: List[float]) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)
        latencies[-1] = math.inf  # a failed op missed every latency

    @property
    def qps(self) -> float:
        return self.answers / self.wall

    @property
    def raw_qps(self) -> float:
        return self.answers / self.raw_wall

    def read_ms(self, q: float) -> float:
        return _percentile(self.reads, q) * 1000.0

    @property
    def write_p50_ms(self) -> float:
        return _percentile(self.writes, 50) * 1000.0


def _percentile(values: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q,
                               method="lower" if math.inf in values
                               else "linear"))


def quiet(values: List[float], better: str = "lower") -> float:
    """The quiet quartile across passes (see the module docstring)."""
    return float(np.percentile(values, 25 if better == "lower" else 75))


async def issue(served: Served, op: Op):
    """One op through its front door: the wire for reads, the service's
    write path for inserts (the wire has no write route)."""
    if op.kind == "query":
        return await served.client.query(op.queries[0])
    if op.kind == "batch":
        return await served.client.query_many(op.queries)
    return await served.service.insert(op.row)


async def run_pass(served: Served, ops: List[Op], oracle: Oracle,
                   sample_rng: np.random.Generator, chunk: int) -> PassRecord:
    """Time ``ops`` one at a time, a yardstick every ``chunk`` ops; then
    check the responses untimed."""
    record = PassRecord(attempted=len(ops))
    outcomes: list = [None] * len(ops)
    gc.collect()
    clock = time.perf_counter
    pacer = Pacer(chunk, len(ops))
    chunk_started = clock()
    for position, op in enumerate(ops):
        started = clock()
        try:
            outcome = await issue(served, op)
        except Exception as exc:  # noqa: BLE001 — any failure is a failed op
            outcome = exc
        ended = clock()
        outcomes[position] = (ended - started, outcome)
        if pacer.after(position):
            # The yardstick's own time is not pass time.
            record.raw_wall += ended - chunk_started
            record.wall += (ended - chunk_started) * pacer.factor(position)
            chunk_started = clock()
    record.yardsticks = pacer.marks

    sampled = set(sample_rng.choice(
        len(ops), size=max(1, math.ceil(len(ops) * SAMPLE_SHARE)),
        replace=False).tolist())
    for position, (op, (latency, outcome)) in enumerate(zip(ops, outcomes)):
        latencies = record.writes if op.kind == "insert" else record.reads
        latencies.append(latency * pacer.factor(position))
        if op.kind != "insert":
            record.raw_reads.append(latency)
        if isinstance(outcome, Exception):
            record.fail(f"{op.kind}: {type(outcome).__name__}: {outcome}",
                        latencies)
            continue
        if op.kind == "insert":
            try:
                oracle.append(op.row, outcome)
            except AssertionError as exc:
                record.fail(str(exc), latencies)
            else:
                record.answers += 1
            continue
        results = outcome if op.kind == "batch" else [outcome]
        why = None
        if len(results) != len(op.queries):
            why = f"{len(results)} results for {len(op.queries)} queries"
        for query, result in zip(op.queries, results):
            # oracle.rows counts exactly the inserts issued before this
            # read: the loop appends them in op order.
            why = why or shape_error(query, result, oracle.rows)
            if why is None and position in sampled:
                why = oracle.mismatch(query, result)
        if why is not None:
            record.fail(f"{op.kind}@{position}: {why}", latencies)
        else:
            record.answers += len(op.queries)
    return record


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


async def measure(workload: Workload, seed: int, seconds: float, *,
                  tuples: Optional[int] = None, ops: Optional[int] = None,
                  min_passes: int = MIN_PASSES, setups: int = SETUPS) -> Dict:
    """One untraced run: every end-to-end metric plus the raw passes."""
    setup_times = []  # (reference-speed, wall) seconds of each set-up
    for _ in range(setups - 1):
        async with serve(workload, tuples) as rehearsal:
            setup_times.append((rehearsal.setup_seconds,
                                rehearsal.setup_wall))
        # Let the rehearsal's indexes go before the next build, or peak
        # RSS would count two stacks.
        del rehearsal
        gc.collect()
    async with serve(workload, tuples) as served:
        setup_times.append((served.setup_seconds, served.setup_wall))
        oracle = Oracle.of(served.stack.relation)
        sample_rng = np.random.default_rng([seed, 10 ** 6 + 1])

        async def one_pass(index: int) -> PassRecord:
            return await run_pass(
                served, pass_ops(workload, oracle, seed, index, ops), oracle,
                sample_rng, workload.yardstick_every)

        warmup = await one_pass(0)
        passes: List[PassRecord] = []
        timed = 0.0
        rss = 0.0
        while len(passes) < min_passes or timed < seconds:
            passes.append(await one_pass(len(passes) + 1))
            timed += passes[-1].raw_wall
            if len(passes) == min_passes:
                # ru_maxrss never falls, so reading it after a fixed
                # amount of work keeps it comparable between a fast
                # commit (more passes in --seconds) and a slow one.
                rss = rss_mb()
    everything = [warmup] + passes
    per_pass = {
        "qps": [record.qps for record in passes],
        "p50_ms": [record.read_ms(50) for record in passes],
        "p95_ms": [record.read_ms(95) for record in passes],
        "write_p50_ms": [record.write_p50_ms for record in passes
                         if record.writes],
        "setup_s": [reference for reference, _ in setup_times],
    }
    return {
        "metrics": {
            "setup_s": float(np.median(per_pass["setup_s"])),
            "qps": quiet(per_pass["qps"], "higher"),
            "p50_ms": quiet(per_pass["p50_ms"]),
            "p95_ms": quiet(per_pass["p95_ms"]),
            "rss_peak_mb": rss,
        },
        "requests_timed": sum(len(r.reads) + len(r.writes) for r in passes),
        "ops_attempted": sum(record.attempted for record in everything),
        "ops_failed": sum(record.failed for record in everything),
        "errors": [why for record in everything for why in record.errors][:10],
        "passes": len(passes),
        "ops_per_pass": ops or workload.ops_per_pass,
        "measured_seconds": timed,
        "yardstick_reference_ms": YARDSTICK_REFERENCE * 1000.0,
        "per_pass": per_pass,
        "wall_clock": {
            "qps": [record.raw_qps for record in passes],
            "p50_ms": [_percentile(record.raw_reads, 50) * 1000.0
                       for record in passes],
            "p95_ms": [_percentile(record.raw_reads, 95) * 1000.0
                       for record in passes],
            "setup_s": [wall for _, wall in setup_times],
            "yardstick_ms": [float(np.median(record.yardsticks)) * 1000.0
                             for record in passes],
        },
    }

"""The asyncio front door: request queue, micro-batched dispatch, writes.

:class:`QueryService` turns an engine front door (the single-relation
:class:`~repro.engine.Executor` or the sharded
:class:`~repro.shard.scatter.ScatterGatherExecutor` — anything exposing
``execute_many``) into a long-lived concurrent service:

* ``await service.submit(query)`` admits one query to a bounded request
  queue (rejecting beyond the high-water mark) and resolves with the
  engine's :class:`~repro.query.QueryResult`; ``submit_stream`` admits
  one the same way and relays its verified top-k prefixes;
* that queue — the :class:`~repro.serve.batcher.MicroBatcher` — is the
  one place between a caller (in process or on the wire) and the engine
  where work waits.  The drain loop takes an engine slot *before* it
  drains, so under load the backlog stays where it is ordered (classes
  by weighted round-robin, clients round-robin inside a class), then
  runs the batch itself (no task per batch);
* a due batch — flush on max-batch-size or the linger deadline,
  whichever first — goes into **one** ``engine.execute_many`` call, so
  concurrent clients issuing same-function queries transparently share
  one fused frontier sweep / R-tree traversal (PR 4) without
  coordinating with each other;
* engine work runs one call at a time, inline on the loop thread after
  a call shorter than ``sys.getswitchinterval()`` on an engine that
  ``holds_gil``, else on the service's own ``repro-serve`` thread (a
  scatter engine runs its shard legs inside that one call);
* ``await service.insert(row)`` / ``await service.reshard(policy)`` take
  the engine slot a batch takes, and the engine syncs its caches in the
  same call, so the drop can never race a sweep that is half way through
  the old data.

Every response's ``extra`` carries the serving provenance next to the
engine's usual fields: ``queue_wait`` (seconds from admission to
dispatch), ``batch_size`` (live requests in the dispatched batch), and
the engine-recorded ``fused_group_size``.
"""

from __future__ import annotations

import asyncio
import functools
import inspect
import sys
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import (
    DeadlineExceededError,
    PartialBatchError,
    ShardWorkerError,
)
from repro.fault.deadline import Deadline
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.serve.batcher import DEFAULT_PRIORITY, MicroBatcher, QueuedRequest
from repro.serve.config import ServiceConfig
from repro.serve.errors import (
    RequestTimeoutError,
    ServeError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShardUnavailableError,
)
from repro.serve.stats import ServiceStats

_UNSET = object()


class QueryService:
    """Async serving facade over an engine front door.

    Parameters
    ----------
    engine:
        The executor to serve: an :class:`~repro.engine.Executor` or a
        :class:`~repro.shard.scatter.ScatterGatherExecutor`.
    config:
        :class:`~repro.serve.config.ServiceConfig` tunables (micro-batch
        size and linger, admission high-water mark, timeouts).
    manager:
        The :class:`~repro.shard.manager.ShardManager` backing the write
        path.  Defaults to ``engine.manager`` when the engine is a
        scatter/gather executor; without one, :meth:`insert` needs
        ``relation`` and :meth:`reshard` is unavailable.
    relation:
        Unsharded write target: :meth:`insert` appends to it and hands the
        row to :meth:`~repro.engine.Executor.insert`, so every routed
        answer is over the current rows: the grid cube and the scans
        absorb the row, and a backend that cannot (``repro.paper``'s
        signature cube and BBS) is marked stale and no longer routed to.  The
        manager-backed path rebuilds the owning shard's stack instead.
    clock:
        Monotonic time source, injected by tests.
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` the service's
        ``serve.*`` instruments publish into.  Defaults to the *engine's*
        registry when it has one, so one snapshot covers ``serve.*`` and
        ``engine.*`` / ``shard.*`` together.
    tracer:
        An explicit :class:`~repro.obs.trace.Tracer`; defaults to one
        built from the config's tracing knobs (the no-op null tracer
        when ``config.tracing`` is off and no slow-query threshold set).

    The service must be started inside a running event loop — use
    ``async with QueryService(...) as service:`` or call :meth:`start` /
    :meth:`close` explicitly.
    """

    def __init__(self, engine, config: Optional[ServiceConfig] = None, *,
                 manager=None, relation=None,
                 clock: Callable[[], float] = time.monotonic,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer=None) -> None:
        self.engine = engine
        self.config = config or ServiceConfig()
        self.manager = manager if manager is not None \
            else getattr(engine, "manager", None)
        self.relation = relation
        self._clock = clock
        self.metrics = (metrics
                        if metrics is not None
                        else getattr(engine, "metrics", None))
        if self.metrics is None:
            self.metrics = MetricsRegistry()
        if tracer is not None:
            self.tracer = tracer
        elif self.config.tracing or self.config.slow_query_threshold is not None:
            # The tracer shares the service clock so queue-wait spans
            # (timed by enqueued_at) and engine spans share one timebase.
            self.tracer = Tracer(
                ring_size=self.config.trace_ring_size,
                slow_threshold=self.config.slow_query_threshold,
                clock=clock)
        else:
            self.tracer = NULL_TRACER
        # Whether the engine's execute_many accepts parent_span /
        # deadline — custom duck-typed engines without the keywords keep
        # working untraced and unbounded.
        try:
            params = inspect.signature(engine.execute_many).parameters
        except (TypeError, ValueError):  # builtins / odd callables
            params = {}
        self._engine_takes_span = "parent_span" in params
        self._engine_takes_deadline = "deadline" in params
        self._engine_takes_partial = "allow_partial" in params
        # Whether the engine's single-query execute can stream verified
        # top-k prefixes (the unsharded Executor can).  On an engine that
        # cannot (scatter engines, duck-typed fakes) a stream is a plain
        # batch member whose answer is its single final frame.
        try:
            self._engine_streams = "on_progress" in inspect.signature(
                engine.execute).parameters
        except (AttributeError, TypeError, ValueError):
            self._engine_streams = False
        self.batcher = MicroBatcher(self.config.max_batch_size,
                                    self.config.max_linger,
                                    self.config.min_linger,
                                    clock=clock)
        self.stats = ServiceStats(clock=clock, metrics=self.metrics)
        # One thread, one engine call at a time: the engine stacks share
        # mutable structures (buffer pools, statistics catalogs) that are
        # not hardened for concurrent batches, and a scatter engine
        # walks its shard legs inside the one call.
        self._pool = ThreadPoolExecutor(max_workers=1,
                                        thread_name_prefix="repro-serve")
        # The last engine call's duration on the service clock (none: slow),
        # and the last call handed to the thread (a cancelled writer's may
        # outlive its hold on the engine slot).
        self._last_call_s = float("inf")
        self._thread_call: Future = Future()
        self._thread_call.set_result(None)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._closing = False
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "QueryService":
        """Bind to the running loop and start the drain loop."""
        if self._loop is not None:
            raise ServeError("QueryService is already started")
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        # Held by one engine call at a time: a batch's (taken by the drain
        # loop before it drains) or a writer's.
        self._engine_slot = asyncio.Lock()
        self._drain_task = self._loop.create_task(self._drain_loop())
        return self

    async def close(self) -> None:
        """Stop admissions, flush the queue, wait for in-flight work.

        Pending requests are *executed* (graceful drain), not failed —
        the drain loop keeps flushing forced micro-batches until the
        queue is empty, so a backlog deeper than one ``max_batch_size``
        batch cannot strand requests; admissions racing the shutdown get
        :class:`~repro.serve.errors.ServiceClosedError`.  Should the
        drain loop itself die, whatever is still queued is failed with a
        :class:`~repro.serve.errors.ServiceClosedError` rather than left
        waiting forever, and the drain loop's error is re-raised.

        Then the service's thread is torn down — a stopped service leaves
        no live thread behind, while the engine itself stays usable.
        """
        if self._loop is None or self._closed:
            return
        self._closing = True
        self._wake.set()
        drain_error: Optional[BaseException] = None
        if self._drain_task is not None:
            try:
                await self._drain_task
            except asyncio.CancelledError:
                raise
            except BaseException as exc:
                drain_error = exc
        # The drain loop only exits with an empty queue; anything still
        # here means it died mid-shutdown — fail the stragglers loudly
        # instead of stranding their futures.
        while len(self.batcher):
            for request in self.batcher.drain(self._clock(), force=True):
                if not request.future.done():
                    request.future.set_exception(ServiceClosedError(
                        "QueryService closed before this request could be "
                        "dispatched"))
                    self.stats.record_failure()
        self._closed = True
        self._pool.shutdown(wait=True)
        if drain_error is not None:
            raise drain_error

    async def __aenter__(self) -> "QueryService":
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # admission / submission
    # ------------------------------------------------------------------
    def retry_after_hint(self) -> Optional[float]:
        """Estimated seconds until the queue drains below the high-water mark.

        ``queue depth / observed drain rate``, clamped to a sane band;
        ``None`` until the service has completed anything (no drain
        evidence to extrapolate from).  Attached to every
        :class:`ServiceOverloadedError` this service raises so the HTTP
        tier's 503 can carry a principled ``Retry-After``.
        """
        rate = self.stats.drain_rate()
        if rate <= 0.0:
            return None
        return min(max(len(self.batcher) / rate, 0.05), 60.0)

    def _admit(self, query, timeout=None,
               priority: str = DEFAULT_PRIORITY,
               allow_partial: Optional[bool] = None,
               client_id: str = "",
               on_progress: Optional[Callable] = None) -> QueuedRequest:
        self._require_running()
        if len(self.batcher) >= self.config.max_pending:
            self.stats.record_rejection()
            raise ServiceOverloadedError(
                f"request queue at its high-water mark "
                f"({self.config.max_pending} pending); retry later",
                retry_after=self.retry_after_hint())
        # The submit timeout becomes an absolute deadline at admission —
        # from here on, queue wait, batching linger, and engine legs all
        # draw down the same clock the client is waiting on.
        deadline = (Deadline.after(float(timeout), clock=self._clock)
                    if timeout is not None else None)
        request = QueuedRequest(query=query,
                                future=self._loop.create_future(),
                                enqueued_at=self._clock(),
                                deadline=deadline,
                                priority=priority,
                                allow_partial=allow_partial,
                                client_id=client_id,
                                on_progress=on_progress)
        self.batcher.append(request)
        self.stats.record_admission(priority)
        self._wake.set()
        return request

    async def submit(self, query, *, timeout=_UNSET,
                     priority: str = DEFAULT_PRIORITY,
                     allow_partial: Optional[bool] = None,
                     client_id: str = ""):
        """Admit one query; resolve with its engine result.

        ``timeout`` (seconds) overrides the config's ``default_timeout``
        for this request; ``None`` waits forever.  On expiry the request
        is abandoned — dropped at drain time if still queued, its result
        discarded if already in flight — and
        :class:`~repro.serve.errors.RequestTimeoutError` is raised.
        Cancelling the awaiting task likewise abandons the request.

        The timeout also rides into the engine as a deadline (when it
        supports one — see ``_run_batch``): scatter legs check it between
        shards, so a slow scatter cannot keep burning engine capacity
        long after every client stopped waiting.

        ``priority`` picks the admission class (one of
        ``interactive``/``batch``/``background``) and ``client_id`` the
        fair-share queue inside it: under backlog the batcher's weighted
        drain decides which classes ride the next micro-batch, and takes
        one request per client per turn within a class.
        ``allow_partial=True`` opts in to a degraded answer
        over surviving shards (flagged ``degraded`` in ``extra``) when
        the engine supports it; the opt-in reaches the engine only for
        batches whose every live member opted in.
        """
        if timeout is _UNSET:
            timeout = self.config.default_timeout
        request = self._admit(query, timeout, priority, allow_partial,
                              client_id)
        return await self._await_request(request, timeout)

    async def _await_request(self, request: QueuedRequest, timeout):
        """Await one admitted request under the submit timeout contract."""
        if timeout is None:
            return await request.future
        # Shield the future so the deadline path — not wait_for — cancels
        # it, strictly *after* marking the request timed out; otherwise a
        # concurrent drain could observe the bare cancellation and count
        # the same request as both cancelled and timed out.
        try:
            return await asyncio.wait_for(asyncio.shield(request.future),
                                          timeout)
        except asyncio.TimeoutError:
            self._expire(request)
            raise RequestTimeoutError(
                f"query timed out after {float(timeout):.4g}s in the "
                f"serving queue") from None
        except asyncio.CancelledError:
            request.future.cancel()
            raise

    def _expire(self, request: QueuedRequest) -> None:
        """Abandon a request whose submit timeout elapsed.

        Marked timed out strictly *before* its future is cancelled, so
        the dispatcher never counts it a second time as a cancellation.
        """
        request.timed_out = True
        self.stats.record_timeout()
        request.future.cancel()

    async def submit_many(self, queries: Iterable, *, timeout=_UNSET,
                          priority: str = DEFAULT_PRIORITY,
                          allow_partial: Optional[bool] = None,
                          client_id: str = "") -> List:
        """Fan one client's batch into the shared queue; gather in order.

        Admission is all-or-nothing: if the queue's high-water mark cuts
        the batch short, the already-admitted requests are abandoned and
        the admission error propagates.  ``timeout`` spans the whole
        batch; ``priority``, ``allow_partial`` and ``client_id`` apply to
        every member (see :meth:`submit`).
        """
        if timeout is _UNSET:
            timeout = self.config.default_timeout
        requests: List[QueuedRequest] = []
        try:
            for query in queries:
                requests.append(self._admit(query, timeout, priority,
                                            allow_partial, client_id))
        except ServeError:
            for request in requests:
                request.future.cancel()
            raise
        if timeout is None:
            return list(await asyncio.gather(
                *(request.future for request in requests)))
        # Shielded for the same reason as submit: mark each unresolved
        # request timed out before its future is cancelled.
        gathered = asyncio.gather(
            *(asyncio.shield(request.future) for request in requests))
        try:
            return list(await asyncio.wait_for(gathered, timeout))
        except asyncio.TimeoutError:
            for request in requests:
                if not request.future.done():
                    self._expire(request)
            raise RequestTimeoutError(
                f"batch timed out after {float(timeout):.4g}s in the "
                f"serving queue") from None
        except asyncio.CancelledError:
            for request in requests:
                request.future.cancel()
            raise

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    async def submit_stream(self, query, *, timeout=_UNSET,
                            priority: str = DEFAULT_PRIORITY,
                            client_id: str = ""):
        """Execute one query, yielding verified top-k prefixes as frames.

        An async generator of ``("prefix", start_rank, pairs)`` frames —
        each carrying newly *verified* ``(tid, score)`` entries, i.e.
        ranks that provably cannot change no matter what the rest of the
        sweep finds — followed by one ``("final", result)`` frame whose
        result is bit-identical to a non-streaming :meth:`submit` answer
        for the same query.

        A stream is a request: admitted (or refused at the high-water
        mark), scheduled by ``priority`` and ``client_id`` and dispatched
        like any other, except that the dispatcher runs it alone through
        the engine's ``execute`` with a progress callback (a stream
        cannot share a fused sweep).  One abandoned while queued
        (timeout, consumer gone) never reaches the engine.  On engines
        whose ``execute`` cannot stream (scatter engines, duck-typed
        fakes) it simply rides its batch; they and result-cache hits
        produce a single final frame, which still satisfies the
        bit-identical contract.
        """
        if timeout is _UNSET:
            timeout = self.config.default_timeout
        frames: asyncio.Queue = asyncio.Queue()
        loop = self._loop

        def on_progress(start: int, pairs) -> None:
            # Called on the engine's worker thread mid-sweep.
            loop.call_soon_threadsafe(
                frames.put_nowait, ("prefix", start, list(pairs)))

        request = self._admit(
            query, timeout, priority, client_id=client_id,
            on_progress=on_progress if self._engine_streams else None)
        # The resolved future ends the relay.  Its callback is scheduled
        # after every prefix the worker thread posted before returning.
        request.future.add_done_callback(frames.put_nowait)
        try:
            while True:
                remaining = (None if request.deadline is None
                             else request.deadline.remaining())
                try:
                    frame = await asyncio.wait_for(frames.get(), remaining)
                except asyncio.TimeoutError:
                    self._expire(request)
                    raise RequestTimeoutError(
                        f"stream timed out after {float(timeout):.4g}s"
                    ) from None
                if frame is request.future:
                    break
                yield frame
            result = request.future.result()
            result.extra["streamed"] = 1.0
            yield ("final", result)
        finally:
            # Consumer gone mid-stream: abandon the request like a
            # cancelled submit (a resolved future ignores this).
            request.future.cancel()

    # ------------------------------------------------------------------
    # drain loop / dispatch
    # ------------------------------------------------------------------
    async def _drain_loop(self) -> None:
        """Run each due batch itself, under the engine slot (no task per
        batch: the slot serialises batches anyway).  A batch that fails
        outside its engine call fails its own members; the loop drains on.
        """
        while True:
            now = self._clock()
            due = self.batcher.due(now)
            if due or (self._closing and len(self.batcher)):
                # Take the engine slot BEFORE draining: while the engine
                # is busy the backlog stays in the batcher, and whoever
                # the scheduler picks once a batch can run rides it.  On
                # an idle engine acquire() does not suspend.  Only this
                # loop removes requests, so the batch is still due after.
                async with self._engine_slot:
                    batch = self.batcher.take_batch(adapt=due)
                    try:
                        await self._run_batch(batch)
                    except Exception as exc:
                        for request in batch:
                            if not request.future.done():
                                request.future.set_exception(exc)
                                self.stats.record_failure()
                continue
            if self._closing:
                break
            deadline = self.batcher.next_deadline()
            timeout = None if deadline is None else max(deadline - now, 0.0)
            self._wake.clear()
            try:
                await (self._wake.wait() if timeout is None
                       else asyncio.wait_for(self._wake.wait(), timeout))
            except asyncio.TimeoutError:
                pass

    async def _run_batch(self, batch: List[QueuedRequest]) -> None:
        live: List[QueuedRequest] = []
        for request in batch:
            if request.future.done():
                self._count_abandoned(request)  # while queued: dropped
            else:
                live.append(request)
        if not live:
            return
        first_enqueued = min(request.enqueued_at for request in live)
        # An explain_analyze request carries its own root span; the
        # batch's engine spans parent under it so its tree is complete.
        # Otherwise the service tracer (null when tracing is off) roots a
        # serve.batch trace opened at the oldest admission.
        analyzed = next((request.span for request in live
                         if request.span is not None), None)
        batch_span = self.tracer.trace("serve.batch", start=first_enqueued)
        parent = analyzed if analyzed is not None else \
            (batch_span if batch_span else None)
        engine_call = self.engine.execute_many
        if parent is not None and self._engine_takes_span:
            # Explicit parenthood: contextvars do not cross
            # run_in_executor threads, a keyword does.
            engine_call = functools.partial(engine_call, parent_span=parent)
        if self._engine_takes_deadline:
            # Propagate a deadline only when every live member carries
            # one, and use the *latest*: the engine bound must never
            # fire before some member's own submit timeout would — a
            # shorter-deadline peer is already protected by its asyncio
            # wait, which abandons its future without killing the batch.
            deadlines = [request.deadline for request in live]
            if all(deadline is not None for deadline in deadlines):
                engine_call = functools.partial(
                    engine_call,
                    deadline=max(deadlines, key=lambda d: d.at))
        if self._engine_takes_partial:
            # Same unanimity rule as the deadline: degrading is opted
            # into per batch, and a member that did not ask for a partial
            # answer must never receive one.
            if all(request.allow_partial for request in live):
                engine_call = functools.partial(engine_call,
                                                allow_partial=True)
        try:
            dispatched_at = self._clock()
            if batch_span:
                batch_span.set("batch_size", len(live))
                (batch_span.child("serve.queue_wait", start=first_enqueued)
                 .finish(end=dispatched_at))
            if analyzed is not None:
                for request in live:
                    if request.span is not None:
                        (request.span.child("serve.queue_wait",
                                            start=request.enqueued_at)
                         .set("batch_size", len(live))
                         .finish(end=dispatched_at))
            self.stats.record_batch(len(live))
            # A stream's prefixes relay mid-sweep, so its batch may not
            # hold the loop that relays them.
            results, errors = await self._in_executor(
                self._call_engine, engine_call, live,
                inline=all(request.on_progress is None for request in live))
        except Exception as exc:
            # Nothing ran (the pool itself failed): the failure is every
            # position's.
            results = [None] * len(live)
            errors = dict.fromkeys(range(len(live)), exc)
        now = self._clock()
        batch_span.finish(end=now)
        batch_size = float(len(live))
        for position, (request, result) in enumerate(zip(live, results)):
            if request.future.done():
                # Abandoned while the batch was already executing: the
                # outcome is discarded, but a cancellation still counts.
                self._count_abandoned(request)
            elif position in errors:
                request.future.set_exception(
                    self._map_engine_error(errors[position]))
                self.stats.record_failure()
            else:
                queue_wait = dispatched_at - request.enqueued_at
                result.extra["queue_wait"] = queue_wait
                result.extra["batch_size"] = batch_size
                fused = (result.extra.setdefault("fused_group_size", 1.0) > 1
                         and result.extra.get("result_cache") != "hit")
                request.future.set_result(result)
                self.stats.record_completion(queue_wait,
                                             now - request.enqueued_at,
                                             request.priority, fused)

    def _count_abandoned(self, request: QueuedRequest) -> None:
        """Count a request whose caller stopped waiting for it: timeouts
        were counted by the submit path, anything else is a cancellation."""
        if request.future.cancelled() and not request.timed_out:
            self.stats.record_cancellation()

    def _call_engine(self, engine_call, live: List[QueuedRequest]
                     ) -> Tuple[List, Dict[int, Exception]]:
        """One engine call: answer one batch, failures kept per position.

        The plain members ride **one** ``execute_many`` (a scatter
        engine's :class:`~repro.errors.PartialBatchError` already reports
        per position; any other failure is every plain member's); each
        stream runs alone through ``execute`` with its progress callback.
        Returns ``(results, errors)`` indexed like ``live``.
        """
        results: List = [None] * len(live)
        errors: Dict[int, Exception] = {}
        plain = [position for position, request in enumerate(live)
                 if request.on_progress is None]
        if plain:
            try:
                answers = engine_call([live[position].query
                                       for position in plain])
                failed: Mapping[int, Exception] = {}
            except PartialBatchError as exc:
                answers, failed = exc.results, exc.errors
            except Exception as exc:
                answers = [None] * len(plain)
                failed = dict.fromkeys(range(len(plain)), exc)
            for slot, position in enumerate(plain):
                results[position] = answers[slot]
                if slot in failed:
                    errors[position] = failed[slot]
        for position, request in enumerate(live):
            if request.on_progress is None:
                continue
            try:
                results[position] = self.engine.execute(
                    request.query, on_progress=request.on_progress)
            except Exception as exc:
                errors[position] = exc
        return results, errors

    def _map_engine_error(self, exc: Exception) -> Exception:
        """Type an engine failure for clients of the serving layer.

        Exhausted retries and open breakers both surface from the engine as
        :class:`~repro.errors.ShardWorkerError`; clients of the service
        get the serving-layer :class:`ShardUnavailableError` instead
        (original attached as ``__cause__``).  An engine-side deadline
        miss becomes :class:`RequestTimeoutError` — the same type the
        submit path raises for a queue-side miss.  Everything else
        passes through untouched.
        """
        if isinstance(exc, ShardWorkerError):
            mapped: Exception = ShardUnavailableError(
                f"shard unavailable after engine-side recovery: {exc}")
            mapped.__cause__ = exc
            return mapped
        if isinstance(exc, DeadlineExceededError):
            mapped = RequestTimeoutError(
                f"request deadline exceeded inside the engine: {exc}")
            mapped.__cause__ = exc
            return mapped
        return exc

    async def _in_executor(self, fn, *args, inline: bool = True):
        """Make one engine call ``fn(*args)``, the service's one way in.

        Inline on the loop thread when ``inline`` allows, the engine
        ``holds_gil`` (one that may wait with the GIL released — legs on
        a pool or in processes, backoff, injected delays — would stall the
        loop for the whole wait), no thread call is still running, and the
        last call took under ``sys.getswitchinterval()`` on the service
        clock (the loop would wait that long for the GIL anyway).  Else on
        the ``repro-serve`` thread: the first call, one after a slow one.
        """
        on_loop = (inline and getattr(self.engine, "holds_gil", False)
                   and self._thread_call.done()
                   and self._last_call_s < sys.getswitchinterval())
        self.stats.record_engine_call(on_loop)
        if on_loop:
            return self._timed(fn, *args)
        self._thread_call = self._pool.submit(self._timed, fn, *args)
        return await asyncio.wrap_future(self._thread_call)

    def _timed(self, fn, *args):
        start = self._clock()
        try:
            return fn(*args)
        finally:
            self._last_call_s = self._clock() - start

    # ------------------------------------------------------------------
    # serialized write path
    # ------------------------------------------------------------------
    async def _mutate(self, apply: Callable[[], object], inline=True):
        """Run one mutation with the engine drained: the write contract.

        A writer takes the engine slot, as a batch does: it waits out
        the in-flight call, no batch is drained until it is done, and
        writers serialize among themselves.  The engine syncs its caches
        in the same call, right after the write, so the drop lands on the
        write's time and never races a sweep.  Requests still in the
        queue execute after it, against the post-mutation data and caches.
        """
        self._require_running()
        sync = getattr(self.engine, "sync", lambda: None)

        def write():
            applied = apply()
            sync()
            return applied

        async with self._engine_slot:
            return await self._in_executor(write, inline=inline)

    def _require_running(self) -> None:
        if self._loop is None:
            raise ServiceClosedError(
                "QueryService is not running; enter it with 'async with' "
                "or call start() first")
        if self._closing:
            raise ServiceClosedError("QueryService is shutting down")

    async def insert(self, row: Mapping[str, object]) -> int:
        """Append ``row`` behind the drained engine; return its global tid."""
        self._require_running()
        row = dict(row)
        if self.manager is not None:
            return await self._mutate(lambda: self.manager.insert(row))
        if self.relation is not None:
            return await self._mutate(lambda: self._apply_unsharded_insert(row))
        raise ServeError(
            "this service has no write path: construct it over a scatter "
            "engine (or pass manager=...) or pass relation=... for the "
            "unsharded append path")

    def _apply_unsharded_insert(self, row: Mapping[str, object]) -> int:
        tid = self.relation.append(row)
        self.engine.insert(self.relation, tid, row)
        return tid

    async def reshard(self, policy) -> None:
        """Re-split the managed relation under ``policy``, engine drained."""
        self._require_running()
        if self.manager is None:
            raise ServeError("reshard needs a ShardManager-backed service")
        # Re-splitting the relation stays off the loop.
        await self._mutate(lambda: self.manager.reshard(policy), inline=False)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def observed(self) -> List[MetricsRegistry]:
        """Every registry of the served stack, gauges set to what is held now.

        This service's (``serve.pending``, ``serve.pending.<class>`` and
        ``serve.current_linger`` set here), then the engine's
        :meth:`observed` when it has one.  A service sharing its engine's
        registry — the default — lists it twice; the merge counts it once.
        """
        gauge = self.metrics.gauge
        gauge("serve.pending").set(len(self.batcher))
        for name, depth in self.batcher.pending_by_class().items():
            gauge(f"serve.pending.{name}").set(depth)
        gauge("serve.current_linger").set(self.batcher.linger)
        engine_observed = getattr(self.engine, "observed", None)
        return [self.metrics] + (engine_observed() if engine_observed else [])

    def metrics_snapshot(self) -> dict:
        """One namespaced ``{name: float}`` view across every layer — what
        ``GET /v1/stats`` serves and ``GET /metrics`` renders."""
        return MetricsRegistry.merged(self.observed()).snapshot()

    def slow_queries(self) -> list:
        """Traces at or above ``config.slow_query_threshold`` (oldest
        first) — empty when tracing or the slow-query log is off."""
        return self.tracer.slow_queries()

    async def explain_analyze(self, query, *, timeout=_UNSET) -> str:
        """Serve ``query`` traced end to end and render its span tree.

        The request goes through the normal admission → micro-batch →
        dispatch path, so the rendered tree shows what serving *actually
        did*: the queue wait, the batch it rode in (with its size), the
        engine's plan(s) with per-candidate cost estimates, every scatter
        leg (skipped legs with reasons), fused-sweep attributed shares,
        and the gather — followed by estimated cost vs. actual tuples
        evaluated per backend.  A private always-on tracer is used, so
        this works with ``config.tracing`` off; peers sharing the batch
        are unaffected.
        """
        from repro.obs.explain import render_trace

        tracer = Tracer(ring_size=1, clock=self._clock)
        root = tracer.trace("serve.request")
        if timeout is _UNSET:
            timeout = self.config.default_timeout
        request = self._admit(query, timeout)
        request.span = root
        result = await self._await_request(request, timeout)
        root.finish()
        return render_trace(root.trace, result=result,
                            unit_seconds=self.engine.cost_model.unit_seconds)

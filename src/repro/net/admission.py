"""Weighted fair-share admission for the HTTP tier.

The serving layer's micro-batcher already drains priority *classes* by
weighted round-robin; this module adds the missing axis for a shared
front door: fairness **across clients**.  Requests queue per
``(priority class, client id)``; the scheduler picks the next class by
the batcher's own :class:`~repro.serve.batcher.WeightedRoundRobin`
(:data:`~repro.serve.batcher.DEFAULT_CLASS_WEIGHTS`), then round-robins
the clients inside it — so one chatty batch client cannot starve its
peers, and interactive traffic overtakes background backlogs without
ever fully starving them.

:class:`AdmissionController` is the asyncio pump: a fixed pool of
``concurrency`` workers pulls tickets in fair-share order and forwards
them into :meth:`QueryService.submit` / ``submit_many``.  The pool is
deliberately the bottleneck — under saturating load the backlog forms
*here*, where ordering is priority-aware, rather than inside a kernel
socket buffer where it is strictly FIFO.  Capacity overflow raises
:class:`~repro.serve.errors.ServiceOverloadedError` with a
``retry_after`` hint computed from the controller's own queue depth and
drain rate (satellite of this PR: same contract as the service's).
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro.serve.batcher import (
    DEFAULT_CLASS_WEIGHTS,
    DEFAULT_PRIORITY,
    PRIORITY_CLASSES,
    WeightedRoundRobin,
)
from repro.serve.errors import (
    RequestTimeoutError,
    ServiceClosedError,
    ServiceOverloadedError,
)

_UNSET = object()


@dataclass
class Ticket:
    """One admitted unit of work waiting for a fair-share slot."""

    query: object
    future: "asyncio.Future"
    client_id: str
    priority: str
    enqueued_at: float
    timeout: Optional[float] = None
    #: ``True`` when ``query`` is a list destined for ``submit_many``.
    many: bool = field(default=False)
    allow_partial: Optional[bool] = field(default=None)


class _ClassQueue:
    """Round-robin of per-client FIFO queues inside one priority class."""

    def __init__(self) -> None:
        self._clients: "OrderedDict[str, Deque[Ticket]]" = OrderedDict()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, ticket: Ticket) -> None:
        queue = self._clients.get(ticket.client_id)
        if queue is None:
            queue = deque()
            self._clients[ticket.client_id] = queue
        queue.append(ticket)
        self._size += 1

    def pop(self) -> Ticket:
        if not self._size:
            raise IndexError("pop from an empty class queue")
        client_id, queue = next(iter(self._clients.items()))
        ticket = queue.popleft()
        self._size -= 1
        if queue:
            # The client goes to the back of the rotation: one ticket
            # per turn, however deep its personal backlog.
            self._clients.move_to_end(client_id)
        else:
            del self._clients[client_id]
        return ticket

    def drain(self) -> List[Ticket]:
        tickets = [t for q in self._clients.values() for t in q]
        self._clients.clear()
        self._size = 0
        return tickets


class FairShareScheduler:
    """Synchronous fair-share order over ``(class, client)`` queues.

    :class:`~repro.serve.batcher.WeightedRoundRobin` across priority
    classes (the batcher's own drain order), plain round-robin across
    clients within a class, FIFO per client.
    """

    def __init__(self, weights: Optional[Dict[str, float]] = None) -> None:
        self._wrr = WeightedRoundRobin(
            {**DEFAULT_CLASS_WEIGHTS, **(weights or {})})
        self._classes: Dict[str, _ClassQueue] = {
            name: _ClassQueue() for name in PRIORITY_CLASSES}

    def __len__(self) -> int:
        return sum(len(q) for q in self._classes.values())

    def pending_by_class(self) -> Dict[str, int]:
        return {name: len(queue) for name, queue in self._classes.items()}

    def push(self, ticket: Ticket) -> None:
        queue = self._classes.get(ticket.priority)
        if queue is None:
            raise ValueError(
                f"unknown priority class {ticket.priority!r}; expected one "
                f"of {PRIORITY_CLASSES}")
        queue.push(ticket)

    def pop(self) -> Optional[Ticket]:
        active = [name for name in PRIORITY_CLASSES if self._classes[name]]
        if not active:
            return None
        return self._classes[self._wrr.pick(active)].pop()

    def drain(self) -> List[Ticket]:
        tickets: List[Ticket] = []
        for queue in self._classes.values():
            tickets.extend(queue.drain())
        return tickets


class AdmissionController:
    """The asyncio pump from the fair-share queue into a ``QueryService``.

    Parameters
    ----------
    service:
        The :class:`~repro.serve.service.QueryService` to forward into.
    weights:
        Per-class overrides of the default fair-share weights.
    max_pending:
        Queue capacity across all classes; overflow raises
        :class:`ServiceOverloadedError` (HTTP 503) with a drain-rate
        ``retry_after`` hint.
    concurrency:
        Worker-slot count — how many tickets may be inside the service
        concurrently.  Smaller values make fairness bite sooner.
    clock:
        Monotonic time source (injected by tests).
    """

    def __init__(self, service, *, weights: Optional[Dict[str, float]] = None,
                 max_pending: int = 1024, concurrency: int = 8,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_pending <= 0:
            raise ValueError("max_pending must be positive")
        if concurrency <= 0:
            raise ValueError("concurrency must be positive")
        self.service = service
        self.scheduler = FairShareScheduler(weights)
        self.max_pending = int(max_pending)
        self.concurrency = int(concurrency)
        self._clock = clock
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._workers: List[asyncio.Task] = []
        self._available: Optional[asyncio.Semaphore] = None
        self._closing = False
        self._completed = 0
        self._started_at = clock()

    async def start(self) -> "AdmissionController":
        if self._loop is not None:
            raise RuntimeError("AdmissionController is already started")
        self._loop = asyncio.get_running_loop()
        self._available = asyncio.Semaphore(0)
        self._started_at = self._clock()
        self._workers = [self._loop.create_task(self._work())
                         for _ in range(self.concurrency)]
        return self

    async def close(self) -> None:
        if self._loop is None:
            return
        self._closing = True
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        for ticket in self.scheduler.drain():
            if not ticket.future.done():
                ticket.future.set_exception(ServiceClosedError(
                    "server shut down before this request was scheduled"))

    def pending_by_class(self) -> Dict[str, int]:
        return self.scheduler.pending_by_class()

    def retry_after_hint(self) -> Optional[float]:
        """``queue depth / drain rate`` over this controller's lifetime."""
        elapsed = max(self._clock() - self._started_at, 1e-9)
        rate = self._completed / elapsed
        if rate <= 0.0:
            return None
        return min(max(len(self.scheduler) / rate, 0.05), 60.0)

    def _require_running(self) -> None:
        if self._loop is None or self._closing:
            raise ServiceClosedError("admission controller is not running")

    async def submit(self, query, *, client_id: str,
                     priority: str = DEFAULT_PRIORITY,
                     timeout: Optional[float] = None,
                     allow_partial: Optional[bool] = None,
                     many: bool = False):
        """Queue one request (or one ``many`` batch) and await its result.

        ``timeout`` spans queue wait *and* service execution: the
        remaining budget at scheduling time is what rides into the
        service as its submit timeout.
        """
        self._require_running()
        if len(self.scheduler) >= self.max_pending:
            raise ServiceOverloadedError(
                f"admission queue at its high-water mark "
                f"({self.max_pending} pending); retry later",
                retry_after=self.retry_after_hint())
        ticket = Ticket(query=query, future=self._loop.create_future(),
                        client_id=client_id, priority=priority,
                        enqueued_at=self._clock(), timeout=timeout,
                        many=many, allow_partial=allow_partial)
        self.scheduler.push(ticket)
        self._available.release()
        if timeout is None:
            return await ticket.future
        try:
            return await asyncio.wait_for(asyncio.shield(ticket.future),
                                          timeout)
        except asyncio.TimeoutError:
            ticket.future.cancel()
            raise RequestTimeoutError(
                f"request timed out after {float(timeout):.4g}s in the "
                f"admission queue") from None
        except asyncio.CancelledError:
            ticket.future.cancel()
            raise

    async def _work(self) -> None:
        while True:
            await self._available.acquire()
            ticket = self.scheduler.pop()
            if ticket is None:  # drained by close() between release/acquire
                continue
            if ticket.future.done():  # abandoned while queued
                continue
            self._completed += 1
            try:
                result = await self._run(ticket)
            except asyncio.CancelledError:
                # Worker cancelled mid-flight (controller close): resolve
                # the waiter instead of stranding it.
                if not ticket.future.done():
                    ticket.future.set_exception(ServiceClosedError(
                        "server shut down while this request was in flight"))
                raise
            except Exception as exc:
                if not ticket.future.done():
                    ticket.future.set_exception(exc)
            else:
                if not ticket.future.done():
                    ticket.future.set_result(result)

    async def _run(self, ticket: Ticket):
        remaining: Optional[float] = None
        if ticket.timeout is not None:
            remaining = max(
                ticket.timeout - (self._clock() - ticket.enqueued_at), 0.001)
        if ticket.many:
            return await self.service.submit_many(
                ticket.query, timeout=remaining, priority=ticket.priority,
                allow_partial=ticket.allow_partial)
        return await self.service.submit(
            ticket.query, timeout=remaining, priority=ticket.priority,
            allow_partial=ticket.allow_partial)


__all__ = ["AdmissionController", "FairShareScheduler", "Ticket"]

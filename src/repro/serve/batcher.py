"""The adaptive micro-batcher: accumulate requests, decide when to flush.

The serving layer's algorithmic win lives here.  Queued queries that share
a ranking function execute through the engine's fused ``execute_batch``
path as **one** grid frontier sweep / R-tree traversal per function group
(PR 4), so holding a request back for a few hundred microseconds can make
the whole batch cheaper than serving it alone.  The batcher trades that
win against latency with two triggers — flush when ``max_batch_size``
requests are pending, or when the *oldest* pending request has lingered
``linger`` seconds, whichever comes first — and adapts the linger between
flushes:

* a **size-triggered** flush means batches fill before the deadline
  matters: halve the linger (toward ``min_linger``) — under saturating
  traffic waiting adds latency without adding fusion;
* a deadline flush that drained a **single** request means no peer arrived
  within the window: halve the linger too — sparse traffic gains nothing
  from waiting;
* a deadline flush that drained a **partial batch** (more than one, less
  than half of ``max_batch_size``) means concurrent clients exist but the
  window is too short to collect them: double the linger (toward
  ``max_linger``) to fuse more per sweep.

The current linger never exceeds ``max_linger``, so the configuration's
deadline guarantee — flush on max-batch-size or max-linger, whichever
first — holds regardless of adaptation.

This module is also the stack's one scheduling policy.  When the backlog
exceeds one batch, *which* requests ride the next one is decided here and
nowhere else: :class:`WeightedRoundRobin` across the priority classes
(:data:`DEFAULT_CLASS_WEIGHTS`), round-robin across the clients inside a
class, FIFO per client (:class:`_ClassQueue`).

The batcher is deliberately synchronous and clock-injected (no asyncio in
this module): :class:`~repro.serve.service.QueryService` drives it from
the event loop, and tests drive it with a fake clock.
"""

from __future__ import annotations

import asyncio
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Mapping, Optional, Sequence

#: Admission priority classes, most to least urgent.  The batcher drains
#: them by :class:`WeightedRoundRobin` (:data:`DEFAULT_CLASS_WEIGHTS`),
#: so interactive traffic jumps most of the queue under saturation while
#: background work still makes progress instead of starving.
PRIORITY_CLASSES = ("interactive", "batch", "background")

DEFAULT_PRIORITY = "interactive"

#: Smooth-WRR weights: out of every 12 drained slots under full backlog,
#: 8 go to interactive, 3 to batch, 1 to background.
DEFAULT_CLASS_WEIGHTS: Dict[str, float] = {
    "interactive": 8.0, "batch": 3.0, "background": 1.0,
}


class WeightedRoundRobin:
    """Smooth weighted round-robin over named classes.

    Each pick adds every *active* class's weight to its credit, takes
    the class with the most credit, and charges it the total — so over a
    sustained backlog the picks converge to the weight ratios, while a
    lone active class is returned as is (no credit moves).
    """

    def __init__(self, weights: Mapping[str, float]) -> None:
        self._weights = dict(weights)
        self._credits = {name: 0.0 for name in self._weights}

    def pick(self, active: Sequence[str]) -> str:
        """The next class among ``active`` (non-empty; earlier wins ties)."""
        if len(active) == 1:
            return active[0]
        for name in active:
            self._credits[name] += self._weights[name]
        best = max(active, key=self._credits.__getitem__)
        self._credits[best] -= sum(self._weights[name] for name in active)
        return best


@dataclass
class QueuedRequest:
    """One admitted query waiting in (or drained from) the request queue."""

    query: object
    future: "asyncio.Future"
    enqueued_at: float
    #: Set by the submit path when its deadline elapsed, so the dispatcher
    #: can tell an abandoned-by-timeout request (already counted) from a
    #: caller-cancelled one (counted at drain time).
    timed_out: bool = field(default=False)
    #: Root span of an ``explain_analyze`` request: the dispatcher parents
    #: the batch's engine spans under it instead of the batch trace, so
    #: the analyzed request renders one tree from queue wait to gather.
    span: Optional[object] = field(default=None)
    #: The request's absolute :class:`~repro.fault.deadline.Deadline`,
    #: minted at admission from the submit timeout.  The dispatcher
    #: propagates it into the engine (when every live batch member has
    #: one) so scatter legs are bounded by the same clock the client is
    #: waiting on.
    deadline: Optional[object] = field(default=None)
    #: Admission priority class (one of :data:`PRIORITY_CLASSES`); decides
    #: which per-class queue the request waits in and how eagerly the
    #: weighted drain picks it when the backlog exceeds one batch.
    priority: str = field(default=DEFAULT_PRIORITY)
    #: Per-request degraded-answer opt-in: ``True`` asks the engine for a
    #: partial answer over surviving shards instead of an error.  The
    #: dispatcher propagates it engine-ward only when every live batch
    #: member opted in (mirroring the deadline rule).
    allow_partial: Optional[bool] = field(default=None)
    #: Whose request this is: the fair-share key inside its priority
    #: class.  The wire passes the caller's ``X-Client-Id``; in-process
    #: callers that name none share the ``""`` queue (plain FIFO).
    client_id: str = field(default="")
    #: Set for a stream: the dispatcher runs the query alone through the
    #: engine's ``execute`` and hands it this callback, which receives
    #: ``(start_rank, pairs)`` for every newly verified top-k prefix.
    on_progress: Optional[Callable] = field(default=None)


class _ClassQueue:
    """Round-robin of per-client FIFO queues inside one priority class."""

    def __init__(self) -> None:
        self._clients: "OrderedDict[str, Deque[QueuedRequest]]" = OrderedDict()
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, request: QueuedRequest) -> None:
        queue = self._clients.get(request.client_id)
        if queue is None:
            queue = self._clients[request.client_id] = deque()
        queue.append(request)
        self._size += 1

    def pop(self) -> QueuedRequest:
        client_id, queue = next(iter(self._clients.items()))
        request = queue.popleft()
        self._size -= 1
        if queue:
            # The client goes to the back of the rotation: one request
            # per turn, however deep its personal backlog.
            self._clients.move_to_end(client_id)
        else:
            del self._clients[client_id]
        return request

    def oldest_enqueued(self) -> float:
        """Admission time of the oldest request (the queue is non-empty)."""
        return min(queue[0].enqueued_at for queue in self._clients.values())


class MicroBatcher:
    """Bounded accumulation of :class:`QueuedRequest` with adaptive flushes.

    Parameters
    ----------
    max_batch_size:
        Size trigger: a flush is due as soon as this many requests pend.
    max_linger / min_linger:
        Bounds of the adaptive linger window (seconds); the current value
        starts at ``max_linger``.
    clock:
        Monotonic time source (injected by tests).
    """

    def __init__(self, max_batch_size: int, max_linger: float,
                 min_linger: float = 0.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.max_batch_size = max_batch_size
        self.max_linger = max_linger
        self.min_linger = min_linger
        #: Current adaptive linger, always within [min_linger, max_linger].
        self.linger = max_linger
        self.clock = clock
        self._pending: Dict[str, _ClassQueue] = {
            name: _ClassQueue() for name in PRIORITY_CLASSES}
        self._wrr = WeightedRoundRobin(DEFAULT_CLASS_WEIGHTS)
        #: Requests pending over every class: the sum of the class queues.
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def append(self, request: QueuedRequest) -> None:
        """Admit one request to the tail of its client's queue in its class."""
        queue = self._pending.get(request.priority)
        if queue is None:
            raise ValueError(
                f"unknown priority class {request.priority!r}; expected one "
                f"of {PRIORITY_CLASSES}")
        queue.push(request)
        self._size += 1

    def pending_by_class(self) -> Dict[str, int]:
        """Live queue depth per priority class (the accounting view)."""
        return {name: len(queue) for name, queue in self._pending.items()}

    def next_deadline(self) -> Optional[float]:
        """Absolute time the oldest pending request must flush by.

        ``None`` when the queue is empty.  Computed over the oldest
        request of *any* class or client — the linger guarantee is blind
        to both, only batch composition under backlog is scheduled — from
        the *current* adaptive linger, so the deadline a caller sleeps
        toward tightens and relaxes with the traffic.
        """
        heads = [queue.oldest_enqueued()
                 for queue in self._pending.values() if queue._size]
        return min(heads) + self.linger if heads else None

    def due(self, now: Optional[float] = None) -> bool:
        """Whether a flush is due at ``now`` (size or deadline trigger)."""
        if not self._size:
            return False
        if self._size >= self.max_batch_size:
            return True
        if now is None:
            now = self.clock()
        return now >= self.next_deadline()

    def _take_next(self) -> QueuedRequest:
        """Pop one request: :class:`WeightedRoundRobin` across the
        non-empty classes, round-robin across a class's clients, FIFO
        per client."""
        active = [name for name, queue in self._pending.items() if queue._size]
        self._size -= 1
        return self._pending[self._wrr.pick(active)].pop()

    def drain(self, now: Optional[float] = None,
              force: bool = False) -> List[QueuedRequest]:
        """Pop the next batch if one is due (or ``force``), else ``[]``.

        A forced drain (service shutdown) flushes without waiting for a
        trigger and without distorting the adaptation.
        """
        due = self.due(now)
        return self.take_batch(adapt=due) if due or force else []

    def take_batch(self, adapt: bool = True) -> List[QueuedRequest]:
        """Pop up to ``max_batch_size`` requests now; the caller decided,
        once, that a batch is due (``adapt``: move the linger) or forced.

        A backlog that fits drains exhaustively (order inside a batch is
        irrelevant: one engine call serves it); else :meth:`_take_next`
        decides *which* requests ride — where the priority classes earn
        their latency separation and a quiet client its turn.
        """
        size_triggered = self._size >= self.max_batch_size
        batch = [self._take_next()
                 for _ in range(min(self.max_batch_size, self._size))]
        if adapt:
            self._adapt(size_triggered, len(batch))
        return batch

    def _adapt(self, size_triggered: bool, drained: int) -> None:
        """Move the linger window after a triggered flush (see module doc)."""
        if size_triggered or drained <= 1:
            self.linger = max(self.min_linger, self.linger / 2.0)
        elif drained * 2 < self.max_batch_size:
            self.linger = min(self.max_linger,
                              max(self.linger * 2.0, self.max_linger / 8.0))

"""Per-request span trees with a disabled-by-default no-op fast path.

A :class:`Tracer` produces one :class:`Trace` per front-door request — a
tree of :class:`Span` nodes covering queue wait, batch drain, planning
(with cost estimates), per-shard scatter legs, the fused sweep's
attributed share, and the gather.  Completed traces land in a bounded
ring buffer; traces slower than the tracer's ``slow_threshold``
additionally land in the slow-query log, so the last N requests and the
recent outliers are always inspectable without any sampling
infrastructure.

The hot-path contract is the null-object pattern: a disabled tracer is
:data:`NULL_TRACER`, whose :meth:`~NullTracer.trace` returns the shared
:data:`NULL_SPAN` singleton.  Every span operation on it —
``child`` / ``set`` / ``annotate`` / ``finish`` — returns the singleton
itself and allocates **nothing** (the instrumentation API is positional
exactly so no kwargs dict is built), and ``bool(NULL_SPAN)`` is False so
call sites can guard work that only matters when tracing
(``if span: span.set("shards", rendering)``).  Tests pin the
zero-allocation property with ``sys.getallocatedblocks``.

Spans are timed by the owning trace's injected clock, so a service
driven by a fake clock in tests produces spans in that same timebase and
queue-wait spans (explicit ``start=enqueued_at``) line up with engine
spans on one axis.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional


class Span:
    """One timed, attributed node of a trace tree.

    Spans are created through :meth:`Tracer.trace` (a root) or
    :meth:`child`; attributes are attached with the positional
    :meth:`set` (the hot-path form — no kwargs dict) and the span is
    closed with :meth:`finish` or by leaving it as a context manager.
    Finishing the *root* span completes the trace and records it with
    the tracer.
    """

    __slots__ = ("name", "trace", "parent", "start", "end", "attrs")

    def __init__(self, name: str, trace: "Trace",
                 parent: Optional["Span"] = None,
                 start: Optional[float] = None) -> None:
        self.name = name
        self.trace = trace
        self.parent = parent
        self.start = trace.clock() if start is None else float(start)
        self.end: Optional[float] = None
        self.attrs: Dict[str, object] = {}

    def __bool__(self) -> bool:
        return True

    def set(self, key: str, value) -> "Span":
        """Attach one attribute; returns ``self`` for chaining."""
        self.attrs[key] = value
        return self

    def annotate(self, **attrs) -> "Span":
        """Attach several attributes at once (not for hot paths)."""
        self.attrs.update(attrs)
        return self

    def child(self, name: str, start: Optional[float] = None) -> "Span":
        """Open a child span (``start`` overrides the clock reading)."""
        span = Span(name, self.trace, parent=self, start=start)
        self.trace.spans.append(span)
        return span

    def finish(self, end: Optional[float] = None) -> "Span":
        """Close the span (idempotent); closing a root records the trace."""
        if self.end is None:
            self.end = self.trace.clock() if end is None else float(end)
            if self.parent is None:
                self.trace._complete()
        return self

    @property
    def duration(self) -> float:
        """Seconds from start to finish (to "now" while still open)."""
        end = self.trace.clock() if self.end is None else self.end
        return end - self.start

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.finish()
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.end is None else f"{self.duration * 1e3:.3f}ms"
        return f"<Span {self.name} {state} {self.attrs}>"


class NullSpan:
    """The shared no-op span: every operation returns the singleton.

    ``__slots__ = ()`` and the class-level ``attrs`` mean no instance
    dict and no per-call allocation; ``bool()`` is False so guarded
    attribute rendering is skipped entirely when tracing is off.
    """

    __slots__ = ()

    name = "null"
    parent = None
    start = 0.0
    end = 0.0
    duration = 0.0
    attrs: Dict[str, object] = {}

    def __bool__(self) -> bool:
        return False

    def set(self, key: str, value) -> "NullSpan":
        return self

    def annotate(self, **attrs) -> "NullSpan":
        return self

    def child(self, name: str, start: Optional[float] = None) -> "NullSpan":
        return self

    def finish(self, end: Optional[float] = None) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: The process-wide no-op span; identity-compared in tests.
NULL_SPAN = NullSpan()


class Trace:
    """One request's span tree: an append-only list of spans.

    A request's spans are appended by whichever thread runs its engine
    call; ``list.append`` is atomic under the GIL and the list only ever
    grows, so no lock is needed (a lock here would sit on the traced hot
    path of every span).  Spans themselves are single-writer, and readers
    (``children_of`` / ``find`` / rendering) run after the call
    completes.
    """

    __slots__ = ("tracer", "clock", "spans", "root")

    def __init__(self, tracer: "Tracer", name: str,
                 start: Optional[float] = None) -> None:
        self.tracer = tracer
        self.clock = tracer.clock
        root = Span(name, self, parent=None, start=start)
        self.spans: List[Span] = [root]
        self.root = root

    def children_of(self, span: Span) -> List[Span]:
        """Direct children in creation order (creation order is stable:
        the list only ever appends)."""
        return [s for s in self.spans if s.parent is span]

    def find(self, name: str) -> List[Span]:
        """Every span named ``name``, in creation order."""
        return [s for s in self.spans if s.name == name]

    @property
    def duration(self) -> float:
        return self.root.duration

    def _complete(self) -> None:
        self.tracer._record(self)


class Tracer:
    """Factory and sink of traces: ring buffer + slow-query log.

    Parameters
    ----------
    ring_size:
        How many completed traces the ring buffer retains (oldest out).
    slow_threshold:
        Root-span duration (seconds) at or above which a completed trace
        is *also* kept in the slow-query log; ``None`` disables the log.
    slow_log_size:
        Bound of the slow-query log.
    clock:
        Time source for every span of every trace this tracer produces.
        Inject the service's clock so queue-wait spans (timed by
        ``enqueued_at``) share the engine spans' timebase.
    """

    enabled = True

    def __init__(self, ring_size: int = 256,
                 slow_threshold: Optional[float] = None,
                 slow_log_size: int = 64,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        if ring_size < 1:
            raise ValueError(f"ring_size must be >= 1, got {ring_size}")
        if slow_log_size < 1:
            raise ValueError(
                f"slow_log_size must be >= 1, got {slow_log_size}")
        if slow_threshold is not None and slow_threshold < 0:
            raise ValueError("slow_threshold must be >= 0 or None")
        self.clock = clock
        self.slow_threshold = slow_threshold
        self._ring: Deque[Trace] = deque(maxlen=ring_size)
        self._slow: Deque[Trace] = deque(maxlen=slow_log_size)
        self._lock = threading.Lock()
        self.traces_recorded = 0
        self.slow_traces = 0

    def trace(self, name: str, start: Optional[float] = None) -> Span:
        """Open a new trace; returns its root span."""
        return Trace(self, name, start=start).root

    def _record(self, trace: Trace) -> None:
        with self._lock:
            self._ring.append(trace)
            self.traces_recorded += 1
            if (self.slow_threshold is not None
                    and trace.duration >= self.slow_threshold):
                self._slow.append(trace)
                self.slow_traces += 1

    def recent(self) -> List[Trace]:
        """Completed traces still in the ring buffer, oldest first."""
        with self._lock:
            return list(self._ring)

    def slow_queries(self) -> List[Trace]:
        """Traces at or above ``slow_threshold``, oldest first."""
        with self._lock:
            return list(self._slow)


class NullTracer:
    """The disabled tracer: ``trace`` hands back :data:`NULL_SPAN`."""

    enabled = False
    slow_threshold = None

    def trace(self, name: str, start: Optional[float] = None) -> NullSpan:
        return NULL_SPAN

    def recent(self) -> List[Trace]:
        return []

    def slow_queries(self) -> List[Trace]:
        return []


#: The process-wide disabled tracer; every layer defaults to it.
NULL_TRACER = NullTracer()

"""Serving-side instruments: the ``serve.*`` series a service records.

:class:`ServiceStats` is the service's recorder — admissions,
rejections, completions, timeouts, batch sizes, fused requests, and
histograms of per-request latency and queue wait — over ``serve.*``
instruments in a shared :class:`~repro.obs.metrics.MetricsRegistry`.
It keeps no view of its own: :meth:`QueryService.metrics_snapshot
<repro.serve.service.QueryService.metrics_snapshot>` renders the
registry merged with the engine's, and every rate is the ratio of two
counts there (``fusion_rate`` is ``serve.fused_requests`` over
``serve.batched_requests``).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from repro.obs.metrics import MetricsRegistry


class ServiceStats:
    """``serve.*`` instruments a :class:`QueryService` records into.

    Recording methods run on the event-loop thread; the registry's lock
    makes the instruments safe to snapshot from anywhere.
    """

    def __init__(self, window: int = 2048,
                 clock: Callable[[], float] = time.monotonic,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self._clock = clock
        self._started = clock()
        #: The registry the counters live in — the service shares its
        #: engine's registry here so one snapshot spans every layer.
        self.metrics = metrics or MetricsRegistry()
        self._submitted = self.metrics.counter("serve.submitted")
        self._completed = self.metrics.counter("serve.completed")
        self._rejected = self.metrics.counter("serve.rejected")
        self._timed_out = self.metrics.counter("serve.timed_out")
        self._cancelled = self.metrics.counter("serve.cancelled")
        self._failed = self.metrics.counter("serve.failed")
        self._batches = self.metrics.counter("serve.batches")
        self._batched_requests = self.metrics.counter(
            "serve.batched_requests")
        self._fused_requests = self.metrics.counter("serve.fused_requests")
        self._engine_calls = [self.metrics.counter(f"serve.engine_calls.{at}")
                              for at in ("thread", "loop")]  # by on_loop
        self._latency = self.metrics.histogram("serve.latency_seconds",
                                               window=window)
        self._queue_wait = self.metrics.histogram(
            "serve.queue_wait_seconds", window=window)
        self._window = window
        # Per-priority-class instruments, created lazily on first use so
        # a service that never sees a class never publishes it.
        self._class_submitted: Dict[str, object] = {}
        self._class_completed: Dict[str, object] = {}
        self._class_queue_wait: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_admission(self, priority: Optional[str] = None) -> None:
        self._submitted.inc()
        if priority is not None:
            counter = self._class_submitted.get(priority)
            if counter is None:
                counter = self.metrics.counter(f"serve.submitted.{priority}")
                self._class_submitted[priority] = counter
            counter.inc()

    def record_rejection(self) -> None:
        self._rejected.inc()

    def record_timeout(self) -> None:
        self._timed_out.inc()

    def record_cancellation(self) -> None:
        self._cancelled.inc()

    def record_failure(self) -> None:
        self._failed.inc()

    def record_batch(self, size: int) -> None:
        """One engine dispatch of ``size`` live requests."""
        self._batches.inc()
        self._batched_requests.inc(float(size))

    def record_engine_call(self, on_loop: bool) -> None:
        """One engine call, run inline on the loop thread or on the
        service's ``repro-serve`` thread."""
        self._engine_calls[on_loop].inc()

    def record_completion(self, queue_wait: float, latency: float,
                          priority: Optional[str] = None,
                          fused: bool = False) -> None:
        """One request resolved with a result (``fused``: its answer came
        out of a fused group's shared sweep in this dispatch)."""
        self._completed.inc()
        if fused:
            self._fused_requests.inc()
        self._queue_wait.observe(queue_wait)
        self._latency.observe(latency)
        if priority is not None:
            counter = self._class_completed.get(priority)
            if counter is None:
                counter = self.metrics.counter(f"serve.completed.{priority}")
                self._class_completed[priority] = counter
            counter.inc()
            wait = self._class_queue_wait.get(priority)
            if wait is None:
                wait = self.metrics.histogram(
                    f"serve.queue_wait_seconds.{priority}",
                    window=self._window)
                self._class_queue_wait[priority] = wait
            wait.observe(queue_wait)

    def drain_rate(self) -> float:
        """Completions per second since construction (0.0 before any).

        The denominator admission control needs for its ``retry_after``
        hint: ``queue depth / drain rate`` estimates how long a rejected
        caller should back off before the backlog has drained.
        """
        elapsed = max(self._clock() - self._started, 1e-9)
        return self._completed.value / elapsed

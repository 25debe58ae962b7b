"""Tunables of the async serving layer, one frozen dataclass."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.serve.errors import ServeError


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of a :class:`~repro.serve.service.QueryService`.

    Parameters
    ----------
    max_batch_size:
        Flush the request queue as soon as this many requests are pending
        (the size trigger of the micro-batcher).
    max_linger:
        Ceiling, in seconds, on how long the oldest pending request may
        wait before its batch flushes (the deadline trigger).  The
        batcher adapts its *current* linger within
        ``[min_linger, max_linger]`` — see
        :class:`~repro.serve.batcher.MicroBatcher` — so this bounds the
        queueing latency the batcher may add, it is not a fixed delay.
    min_linger:
        Floor of the adaptive linger (default 0: under sparse or
        saturating traffic the batcher stops waiting altogether).
    max_pending:
        Admission-control high-water mark: a submit finding this many
        requests already queued is rejected with
        :class:`~repro.serve.errors.ServiceOverloadedError` instead of
        growing the backlog without bound.
    default_timeout:
        Per-request timeout in seconds applied when ``submit`` /
        ``submit_many`` pass none explicitly; ``None`` waits forever.
    tracing:
        Record a span tree per dispatched batch (and per analyzed
        request) into the service tracer's ring buffer.  Off by default:
        the disabled tracer is a no-op object adding zero allocations to
        the hot path; what enabling it costs is the benchmark ledger's
        ``trace.overhead_ratio`` (``benchmarks/e2e/run.py --traced``).
    slow_query_threshold:
        Root-span duration (seconds) at or above which a completed trace
        is also kept in the slow-query log.  Setting it implies tracing
        even when ``tracing`` is False; ``None`` disables the log.
    trace_ring_size:
        How many completed traces the ring buffer retains.
    """

    max_batch_size: int = 64
    max_linger: float = 0.002
    min_linger: float = 0.0
    max_pending: int = 1024
    default_timeout: Optional[float] = None
    tracing: bool = False
    slow_query_threshold: Optional[float] = None
    trace_ring_size: int = 256

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ServeError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}")
        if self.max_linger < 0 or self.min_linger < 0:
            raise ServeError("linger bounds must be non-negative")
        if self.min_linger > self.max_linger:
            raise ServeError(
                f"min_linger {self.min_linger} exceeds max_linger "
                f"{self.max_linger}")
        if self.max_pending < 1:
            raise ServeError(
                f"max_pending must be >= 1, got {self.max_pending}")
        if self.default_timeout is not None and self.default_timeout <= 0:
            raise ServeError("default_timeout must be positive or None")
        if (self.slow_query_threshold is not None
                and self.slow_query_threshold < 0):
            raise ServeError(
                "slow_query_threshold must be >= 0 (seconds) or None")
        if self.trace_ring_size < 1:
            raise ServeError(
                f"trace_ring_size must be >= 1, got {self.trace_ring_size}")

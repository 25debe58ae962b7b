"""Errors raised by the async serving layer."""

from __future__ import annotations

from typing import Optional

from repro.errors import ReproError


class ServeError(ReproError):
    """Base class for serving-layer failures."""


class ServiceClosedError(ServeError):
    """The service is shut down (or shutting down) and admits no work."""


class ServiceOverloadedError(ServeError):
    """Admission control rejected the request: the queue hit its high-water mark.

    Backpressure by rejection — the caller learns immediately instead of
    queueing behind a backlog it can never clear.  ``retry_after`` is the
    rejecting layer's estimate (seconds) of when the backlog will have
    drained enough to admit again, computed from the live queue depth and
    the observed drain rate; the HTTP tier surfaces it as a principled
    ``Retry-After`` header instead of a constant.  ``None`` when the
    rejecting layer has no drain evidence to estimate from.
    """

    def __init__(self, message: str,
                 retry_after: Optional[float] = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class RequestTimeoutError(ServeError):
    """The per-request deadline elapsed before a result was produced."""


class ShardUnavailableError(ServeError):
    """A shard stayed down through the engine's whole recovery ladder.

    The serving layer maps an engine-raised
    :class:`~repro.errors.ShardWorkerError` — exhausted retries or an
    open circuit breaker — to this
    typed error, so clients can tell capacity rejections
    (:class:`ServiceOverloadedError`), deadline misses
    (:class:`RequestTimeoutError`), and shard loss apart without parsing
    messages.  The original engine error rides along as ``__cause__``.
    """

"""Per-shard circuit breakers: stop paying for a flapping shard.

Retries make a *transient* failure invisible; they make a *persistent*
failure expensive — every leg to a dead shard burns its full attempt
count and backoff budget before giving up.  A :class:`CircuitBreaker`
in front of each shard cuts that loss off:

* **closed** (normal): legs run; ``failure_threshold`` *consecutive*
  failures trip the breaker;
* **open**: legs to the shard fail fast with :class:`BreakerOpenError`
  (or are degraded away under ``allow_partial``) for ``cooldown``
  seconds — no attempts, no backoff, no budget spent;
* **half-open**: after the cooldown exactly one probe leg is admitted;
  its success closes the breaker, its failure re-opens it for another
  cooldown.

The breaker is clock-injected and thread-safe (parallel legs of one
scatter may race on it); transitions are reported through an optional
``on_event`` callback so the leg guard (:mod:`repro.fault.guard`) can
count ``breaker.*`` metrics without the breaker knowing about registries.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ShardWorkerError

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class BreakerOpenError(ShardWorkerError):
    """A shard's circuit breaker is open: the leg was refused fail-fast.

    A subclass of :class:`~repro.errors.ShardWorkerError` so one filter
    covers every shard-unavailability flavour (death, hang, open
    breaker) at the retry and serving layers; ``retry_after`` says how
    long until the breaker will admit a half-open probe.
    """

    def __init__(self, shard_index: int, retry_after: float) -> None:
        super().__init__(
            f"shard {shard_index} circuit breaker is open "
            f"(half-open probe in {max(0.0, retry_after):.3g}s)",
            shard_index=shard_index)
        self.retry_after = max(0.0, retry_after)


@dataclass(frozen=True)
class BreakerPolicy:
    """Trip threshold and cooldown of the per-shard breakers.

    Parameters
    ----------
    failure_threshold:
        Consecutive leg failures that open a shard's breaker.
    cooldown:
        Seconds an open breaker fails fast before admitting one
        half-open probe.
    """

    failure_threshold: int = 5
    cooldown: float = 30.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got "
                f"{self.failure_threshold}")
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")


class CircuitBreaker:
    """One shard's closed/open/half-open failure gate.  Thread-safe."""

    def __init__(self, shard_index: int, policy: BreakerPolicy,
                 clock: Callable[[], float] = time.monotonic,
                 on_event: Optional[Callable[[str, int], None]] = None,
                 ) -> None:
        self.shard_index = int(shard_index)
        self.policy = policy
        self._clock = clock
        self._on_event = on_event
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        #: Whether the single half-open probe slot is taken.
        self._probe_in_flight = False

    def _emit(self, event: str) -> None:
        if self._on_event is not None:
            self._on_event(event, self.shard_index)

    @property
    def state(self) -> str:
        """Current state, cooldown expiry folded in (open → half-openable)."""
        with self._lock:
            if (self._state == OPEN
                    and self._clock() - self._opened_at >= self.policy.cooldown):
                return HALF_OPEN
            return self._state

    def retry_after(self) -> float:
        """Seconds until an open breaker admits its half-open probe."""
        with self._lock:
            if self._state != OPEN:
                return 0.0
            return max(0.0, self.policy.cooldown
                       - (self._clock() - self._opened_at))

    def allow(self) -> bool:
        """Whether a leg may run now (claims the half-open probe slot).

        A ``True`` from a half-open breaker *is* the probe: the caller
        must report the leg's outcome via :meth:`record_success` /
        :meth:`record_failure`, or give the slot back with
        :meth:`release` when the leg failed for a reason that says
        nothing about the shard.  Concurrent callers during the probe
        are refused.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self._clock() - self._opened_at < self.policy.cooldown:
                    return False
                self._state = HALF_OPEN
                self._probe_in_flight = True
                self._emit("half_open_probe")
                return True
            # HALF_OPEN: one probe at a time.
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            self._emit("half_open_probe")
            return True

    def release(self) -> None:
        """Free the half-open probe slot without a verdict."""
        with self._lock:
            self._probe_in_flight = False

    def record_success(self) -> None:
        """A leg completed: close the breaker, forget the failure streak."""
        with self._lock:
            was_recovering = self._state != CLOSED
            self._state = CLOSED
            self._consecutive_failures = 0
            self._probe_in_flight = False
        if was_recovering:
            self._emit("closed")

    def record_failure(self) -> None:
        """A leg failed: extend the streak; trip or re-open when due."""
        with self._lock:
            if self._state == HALF_OPEN:
                # The probe failed: straight back to open, fresh cooldown.
                self._state = OPEN
                self._opened_at = self._clock()
                self._probe_in_flight = False
                opened = True
            else:
                self._consecutive_failures += 1
                opened = (self._state == CLOSED
                          and self._consecutive_failures
                          >= self.policy.failure_threshold)
                if opened:
                    self._state = OPEN
                    self._opened_at = self._clock()
        if opened:
            self._emit("opened")

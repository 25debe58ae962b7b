"""Per-request deadlines that ride into every scatter leg.

A :class:`Deadline` is an absolute point on an injectable monotonic
clock.  The serving layer mints one per admitted request (from the
request timeout), and the scatter layer checks it before every leg.

Deadlines are values, not ambient state: they are passed explicitly
(``engine.execute(query, deadline=...)``) from the serving layer's
queue to the thread that runs the engine call.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.errors import DeadlineExceededError


class Deadline:
    """An absolute monotonic deadline with an injectable clock.

    Parameters
    ----------
    at:
        Absolute expiry on ``clock``'s timebase.
    clock:
        Monotonic time source (injected by tests; the serving layer
        passes its own so queue-wait accounting and deadline checks
        share one timebase).
    """

    __slots__ = ("at", "clock")

    def __init__(self, at: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.at = float(at)
        self.clock = clock

    @classmethod
    def after(cls, seconds: float,
              clock: Callable[[], float] = time.monotonic) -> "Deadline":
        """A deadline ``seconds`` from now on ``clock``."""
        if seconds < 0:
            raise ValueError(f"deadline seconds must be >= 0, got {seconds}")
        return cls(clock() + float(seconds), clock)

    def remaining(self) -> float:
        """Seconds left before expiry, clamped at 0."""
        return max(0.0, self.at - self.clock())

    def expired(self) -> bool:
        """Whether the deadline has passed."""
        return self.clock() >= self.at

    def raise_if_expired(self, context: str = "request") -> None:
        """Raise :class:`~repro.errors.DeadlineExceededError` if expired."""
        if self.expired():
            raise DeadlineExceededError(
                f"deadline exceeded before {context}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(at={self.at:.6f}, remaining={self.remaining():.6f})"

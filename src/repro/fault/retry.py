"""Leg retries: exponential backoff with full jitter under a budget.

A failed scatter leg (an injected fault, a lost shard) is usually
transient — the same deterministic leg recomputes the same answer.
:class:`RetryPolicy` bounds how hard that recovery tries:

* **attempts** — at most ``max_attempts`` runs of one leg;
* **backoff** — the ``n``-th retry sleeps a uniformly random slice of
  ``min(cap_delay, base_delay * 2**(n-1))`` ("full jitter": retries from
  concurrent legs decorrelate instead of stampeding a recovering shard
  together);
* **budget** — at most ``budget`` seconds of total backoff sleep per
  front-door call, so a scatter over many flapping shards cannot
  multiply per-leg patience into an unbounded stall.

The policy is a frozen value object; the leg guard
(:mod:`repro.fault.guard`) owns the mutable pieces (a seeded
``random.Random`` for jitter, a per-call :class:`RetryBudget`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class RetryPolicy:
    """How (and how much) to retry a failed scatter leg.

    Parameters
    ----------
    max_attempts:
        Total runs of one leg, the first included (``1`` disables
        retries while keeping the breaker/degradation machinery).
    base_delay:
        First retry's maximum backoff, in seconds.
    cap_delay:
        Ceiling of the exponential backoff curve.
    budget:
        Total backoff sleep allowed per front-door call across all its
        legs, in seconds; ``None`` means unbudgeted.
    jitter_seed:
        Seed of the jitter RNG the executor builds for this policy
        (``None``: seeded from the OS — production; tests pin it).
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    cap_delay: float = 2.0
    budget: Optional[float] = 10.0
    jitter_seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0 or self.cap_delay < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.cap_delay < self.base_delay:
            raise ValueError(
                f"cap_delay {self.cap_delay} below base_delay "
                f"{self.base_delay}")
        if self.budget is not None and self.budget < 0:
            raise ValueError(f"budget must be >= 0 or None, got {self.budget}")

    def backoff_ceiling(self, attempt: int) -> float:
        """The deterministic ceiling the ``attempt``-th retry jitters under.

        ``attempt`` counts completed runs: after the first failure
        (``attempt=1``) the ceiling is ``base_delay``, doubling per
        retry up to ``cap_delay``.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        # Cap the exponent before shifting so huge attempt counts cannot
        # overflow into an enormous intermediate float.
        exponent = min(attempt - 1, 62)
        return min(self.cap_delay, self.base_delay * (2.0 ** exponent))

    def backoff(self, attempt: int, rng) -> float:
        """One full-jitter backoff: uniform in ``[0, ceiling(attempt)]``."""
        return rng.uniform(0.0, self.backoff_ceiling(attempt))

    def new_budget(self) -> "RetryBudget":
        """A fresh per-call budget under this policy."""
        return RetryBudget(self.budget)


class RetryBudget:
    """Thread-safe spend tracker for one front-door call's backoff sleeps.

    Parallel legs of one scatter share the budget, so acquisition must
    be atomic: :meth:`consume` either reserves the whole requested sleep
    or refuses (a partial sleep would still burn wall clock without
    buying the full backoff).
    """

    __slots__ = ("_remaining", "_spent", "_lock")

    def __init__(self, budget: Optional[float]) -> None:
        self._remaining = None if budget is None else float(budget)
        self._spent = 0.0
        self._lock = threading.Lock()

    def consume(self, seconds: float) -> bool:
        """Reserve ``seconds`` of backoff; ``False`` when the budget is dry."""
        with self._lock:
            if self._remaining is not None:
                if seconds > self._remaining:
                    return False
                self._remaining -= seconds
            self._spent += seconds
            return True

    @property
    def spent(self) -> float:
        """Total seconds of backoff reserved so far."""
        return self._spent

    @property
    def remaining(self) -> Optional[float]:
        """Seconds of backoff left (``None``: unbudgeted)."""
        return self._remaining

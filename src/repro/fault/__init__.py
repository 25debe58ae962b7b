"""Fault tolerance: deadlines, retries, circuit breakers, chaos injection.

The scatter/serve stack assumes shards answer; this package is what
happens when one does not.  Four orthogonal pieces, composed by a fifth
— the leg guard — for the scatter layer
(:class:`~repro.shard.scatter.ScatterGatherExecutor`) and used by the
serving front door:

* :class:`~repro.fault.deadline.Deadline` — a per-request absolute
  deadline that rides into every scatter leg; the scatter checks it
  before every leg;
* :class:`~repro.fault.retry.RetryPolicy` — exponential backoff with
  full jitter and a per-call :class:`~repro.fault.retry.RetryBudget`,
  re-running legs that failed with
  :class:`~repro.errors.ShardWorkerError`;
* :class:`~repro.fault.breaker.CircuitBreaker` (per shard, configured
  by :class:`~repro.fault.breaker.BreakerPolicy`) — N consecutive leg
  failures open the breaker: fail-fast
  :class:`~repro.fault.breaker.BreakerOpenError` (or degrade-away under
  ``allow_partial``) until a half-open probe closes it again;
* :class:`~repro.fault.inject.FaultInjector` — seeded, named-point
  chaos (leg crash before or after its work, leg delay) so every
  recovery path above is deterministically testable;
* :class:`~repro.fault.guard.LegGuard` — the executor's ``guard``: runs
  every scatter leg through deadline check → breaker → retry loop and
  books each call's attempts and failures in one
  :class:`~repro.fault.guard.LegCall`.

See ``docs/fault_tolerance.md`` for the failure model and the degraded
result contract (``extra["degraded"]`` / ``extra["shards_failed"]`` /
``extra["completeness"]``).
"""

from repro.errors import DeadlineExceededError, PartialBatchError
from repro.fault.breaker import (
    BreakerOpenError,
    BreakerPolicy,
    CircuitBreaker,
)
from repro.fault.deadline import Deadline
from repro.fault.inject import INJECTION_POINTS, FaultInjector, InjectedFaultError
from repro.fault.retry import RetryBudget, RetryPolicy

__all__ = [
    "BreakerOpenError",
    "BreakerPolicy",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceededError",
    "FaultInjector",
    "INJECTION_POINTS",
    "InjectedFaultError",
    "PartialBatchError",
    "RetryBudget",
    "RetryPolicy",
]

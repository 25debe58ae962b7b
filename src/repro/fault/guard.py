"""The leg guard: deadline → breaker → retry around every scatter leg.

:class:`~repro.shard.scatter.ScatterGatherExecutor` decides *which* legs
run; its :class:`LegGuard` (``engine.guard``) decides how hard each one
is tried; the :class:`~repro.shard.legs.LegRunner` it is handed only
runs it.  The guard sits *beside* ``engine.legs``, not around it, so a
test that swaps the runner (``engine.legs = FailingLegs(...)``) keeps the
guard in front of the new one.

Every leg takes the one path of :meth:`LegGuard.run`, carried by its
front-door call's :class:`LegCall`; with no retry policy, no breaker
policy, no injector and no deadline that path is a single attempt.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Dict, List, Optional

from repro.errors import ShardWorkerError
from repro.fault.breaker import BreakerOpenError, CircuitBreaker


class LegCall:
    """One front-door call's fault posture plus one group's leg record.

    ``deadline``, ``allow_partial`` and the retry ``budget`` belong to the
    call; :meth:`group` hands each scattered group a fresh record sharing
    them, so many flapping shards cannot multiply per-leg patience.  A
    shard carries at most one leg per group, so the record is keyed by
    shard index: ``attempts`` (leg runs; 0 when an open breaker refused
    it) and ``failures`` (the final error).  Parallel legs write distinct
    keys, so no lock is needed.  ``recorded`` says whether any fault
    machinery is configured for the call; only then does a result carry
    ``leg_attempts``.
    """

    __slots__ = ("deadline", "allow_partial", "budget", "recorded",
                 "attempts", "failures")

    def __init__(self, deadline, allow_partial: bool, budget,
                 recorded: bool) -> None:
        self.deadline = deadline
        self.allow_partial = allow_partial
        self.budget = budget
        self.recorded = recorded
        self.attempts: Dict[int, int] = {}
        self.failures: Dict[int, Exception] = {}

    def group(self) -> "LegCall":
        """A fresh leg record for the next group, on the same budget."""
        return LegCall(self.deadline, self.allow_partial, self.budget,
                       self.recorded)


class LegGuard:
    """Deadline, per-shard breakers and jittered retries for scatter legs.

    Registers the ``fault.*`` / ``breaker.*`` counters on ``metrics`` (the
    executor's registry).  ``sleep`` (backoff and ``leg.delay``) and
    ``clock`` (handed to breakers as they are built) are test hooks;
    ``breakers`` maps shard index to its lazily built breaker.
    """

    def __init__(self, metrics, retry_policy=None,
                 breaker_policy=None) -> None:
        self.policy = retry_policy
        self.breaker_policy = breaker_policy
        #: Seeded from the policy so chaos runs replay the same sleeps;
        #: locked because an engine may be called from several threads.
        self._rng = random.Random(
            retry_policy.jitter_seed if retry_policy is not None else None)
        self._rng_lock = threading.Lock()
        self.sleep = time.sleep
        self.clock = time.monotonic
        self.breakers: Dict[int, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        counter = metrics.counter
        self._m_retries = counter("fault.retries")
        self._m_leg_failures = counter("fault.leg_failures")
        self._m_deadline = counter("fault.deadline_exceeded")
        self._m_degraded = counter("fault.degraded_results")
        self._m_shards_failed = counter("fault.shards_failed")
        self._m_budget_exhausted = counter("fault.retry_budget_exhausted")
        self._m_breaker = {"opened": counter("breaker.opened"),
                           "closed": counter("breaker.closed"),
                           "half_open_probe": counter(
                               "breaker.half_open_probes")}
        self._m_rejected = counter("breaker.rejected")

    def call(self, deadline, allow_partial: bool, injector) -> LegCall:
        """A front-door call's record (``injector``: the runner's)."""
        recorded = (deadline is not None or allow_partial
                    or self.policy is not None
                    or self.breaker_policy is not None
                    or injector is not None)
        budget = self.policy.new_budget() if self.policy is not None else None
        return LegCall(deadline, allow_partial, budget, recorded)

    def check(self, call: LegCall, context: str) -> None:
        """Count and raise when the call's deadline has passed."""
        if call.deadline is not None and call.deadline.expired():
            self._m_deadline.inc()
            call.deadline.raise_if_expired(context)

    def _breaker(self, index: int) -> Optional[CircuitBreaker]:
        if self.breaker_policy is None:
            return None
        with self._breaker_lock:
            breaker = self.breakers.get(index)
            if breaker is None:
                breaker = self.breakers[index] = CircuitBreaker(
                    index, self.breaker_policy, clock=self.clock,
                    on_event=lambda event, _: self._m_breaker[event].inc())
            return breaker

    def _backoff(self, attempts: int, call: LegCall) -> Optional[float]:
        """Backoff before re-running a failed leg, or ``None`` to give up.

        ``None`` when retries are off, attempts are exhausted, the
        deadline has no room left, or the call's retry budget cannot
        cover the sleep.  A granted delay is capped by the deadline's
        remaining time — sleeping past it would turn a recoverable leg
        failure into a guaranteed deadline miss.
        """
        policy = self.policy
        if policy is None or attempts >= policy.max_attempts:
            return None
        with self._rng_lock:
            delay = policy.backoff(attempts, self._rng)
        if call.deadline is not None:
            remaining = call.deadline.remaining()
            if remaining <= 0.0:
                return None
            delay = min(delay, remaining)
        if call.budget is not None and not call.budget.consume(delay):
            self._m_budget_exhausted.inc()
            return None
        return delay

    def _fail(self, call: LegCall, index: int, exc: Exception,
              attempts: int, leg_span) -> None:
        self._m_shards_failed.inc()
        call.attempts[index] = attempts
        call.failures[index] = exc
        if leg_span:
            leg_span.set("failed", type(exc).__name__)

    def run(self, runner, shard, queries: List, leg_span, call: LegCall):
        """One leg on ``runner`` under the deadline, breaker and retries.

        Each attempt checks the deadline first (expiry always raises,
        even under ``allow_partial`` — a late answer is not a partial
        answer), then asks the shard's breaker (an open breaker refuses
        fail-fast, spending no attempt and no budget), then runs the leg.
        A :class:`~repro.errors.ShardWorkerError` feeds the breaker and,
        backoff permitting, is retried;
        its final occurrence is booked in ``call`` and re-raised — the
        scatter decides between propagating and degrading.  Any other
        exception propagates unretried and gives back a half-open probe
        slot it held, so it cannot wedge the breaker.
        """
        index = shard.index
        breaker = self._breaker(index)
        attempts = 0
        while True:
            self.check(call, f"scatter leg to shard {index}")
            if breaker is not None and not breaker.allow():
                self._m_rejected.inc()
                error = BreakerOpenError(index, breaker.retry_after())
                self._fail(call, index, error, attempts, leg_span)
                raise error
            attempts += 1
            try:
                injector = runner.injector
                if injector is not None and injector.fires("leg.delay"):
                    self.sleep(injector.delay_seconds)
                result = runner.run(shard, queries, leg_span)
            except ShardWorkerError as exc:
                if breaker is not None:
                    breaker.record_failure()
                self._m_leg_failures.inc()
                delay = self._backoff(attempts, call)
                if delay is None:
                    self._fail(call, index, exc, attempts, leg_span)
                    raise
                self._m_retries.inc()
                if leg_span:
                    leg_span.set(f"retry_{attempts}", type(exc).__name__)
                if delay > 0.0:
                    self.sleep(delay)
                continue
            except BaseException:
                if breaker is not None:
                    breaker.release()
                raise
            if breaker is not None:
                breaker.record_success()
            call.attempts[index] = attempts
            if leg_span and attempts > 1:
                leg_span.set("attempts", attempts)
            return result

    def annotate(self, extra: Dict, call: LegCall, rode: List[int],
                 planned: int) -> bool:
        """Write one rider's fault record into ``extra``; ``True`` if degraded.

        ``rode`` holds the shard indices of the legs the rider rode, in
        leg order; ``planned`` its legs before any gather-bound skip.
        ``leg_attempts`` appears whenever the call is ``recorded``; the
        degraded triple (``degraded`` / ``shards_failed`` /
        ``completeness``) only when legs were lost — its presence *is*
        the partial-result signal.
        """
        attempts = sorted((i, call.attempts[i]) for i in rode
                          if i in call.attempts)
        if call.recorded and attempts:
            extra["leg_attempts"] = ",".join(f"{i}:{n}" for i, n in attempts)
        failed = [i for i in rode if i in call.failures]
        if not failed:
            return False
        self._m_degraded.inc()
        extra["degraded"] = 1.0
        extra["shards_failed"] = "|".join(
            f"{i}:{type(call.failures[i]).__name__}" for i in failed)
        extra["completeness"] = (
            (planned - len(failed)) / planned if planned else 1.0)
        return True

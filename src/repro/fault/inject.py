"""Deterministic fault injection: seeded chaos with named points.

Failure-handling code that is only exercised by real outages is
unverified code.  :class:`FaultInjector` makes leg crashes and slow
legs *reproducible*: a seeded RNG
decides, per named injection point, whether the fault fires, so a chaos
test (or ``--chaos SEED`` on the CLI) replays the exact same failure
sequence every run — and the parity suite can assert that answers stay
bit-identical to the oracle *through* the injected faults.

Injection points (see :data:`INJECTION_POINTS`):

``worker.crash.pre``
    The leg raises :class:`InjectedFaultError` before it runs.
``worker.crash.post``
    The leg raises after computing its answer — the answer is lost, the
    retried leg recomputes.
``leg.delay``
    The leg is slowed by ``delay_seconds`` — latency, not failure.

``max_faults`` caps the *total* faults injected, so a chaos run with
retries enabled provably converges: once the cap is spent every leg
succeeds.  Decisions and counts are lock-protected — an engine may be
called from several threads — and the decision *sequence* (with it
determinism) follows the order legs interrogate the injector.
"""

from __future__ import annotations

import random
import threading
from typing import Dict, Mapping, Optional

from repro.errors import ShardWorkerError

#: Every named injection point, in documentation order.
INJECTION_POINTS = (
    "worker.crash.pre",
    "worker.crash.post",
    "leg.delay",
)


class InjectedFaultError(ShardWorkerError):
    """A fault the injector planted in a scatter leg.

    A subclass of :class:`~repro.errors.ShardWorkerError` so the retry
    and breaker machinery treats an injected crash exactly like a real
    lost shard — chaos tests exercise the production recovery path, not
    a parallel one.
    """

    def __init__(self, point: str, shard_index=None) -> None:
        super().__init__(
            f"injected fault {point!r}"
            + (f" on shard {shard_index}" if shard_index is not None else ""),
            shard_index=shard_index)
        self.point = point


class FaultInjector:
    """Seeded, rate-driven decisions for the named injection points.

    Parameters
    ----------
    seed:
        Seed of the decision RNG — same seed, same fault sequence.
    rates:
        Per-point firing probability in ``[0, 1]``; unnamed points never
        fire.  Unknown point names are rejected loudly (a typo would
        otherwise silently disable the chaos).
    max_faults:
        Total faults this injector may plant (``None``: unlimited).
        Chaos-with-retries tests set it so recovery provably converges.
    delay_seconds:
        Sleep length of a fired ``leg.delay``.
    """

    def __init__(self, seed: int, rates: Mapping[str, float],
                 max_faults: Optional[int] = None,
                 delay_seconds: float = 0.001) -> None:
        unknown = set(rates) - set(INJECTION_POINTS)
        if unknown:
            raise ValueError(
                f"unknown injection point(s) {sorted(unknown)}; "
                f"valid points: {list(INJECTION_POINTS)}")
        for point, rate in rates.items():
            if not 0.0 <= float(rate) <= 1.0:
                raise ValueError(
                    f"rate for {point!r} must be in [0, 1], got {rate}")
        if max_faults is not None and max_faults < 0:
            raise ValueError(f"max_faults must be >= 0, got {max_faults}")
        self.seed = int(seed)
        self.rates: Dict[str, float] = {point: float(rate)
                                        for point, rate in rates.items()}
        self.max_faults = max_faults
        self.delay_seconds = float(delay_seconds)
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()
        #: Faults actually planted, per point — chaos tests assert the
        #: injections really happened (a vacuous pass proves nothing).
        self.fired: Dict[str, int] = {point: 0 for point in INJECTION_POINTS}

    def fires(self, point: str) -> bool:
        """Whether ``point`` fires now.  One RNG draw per rated consult."""
        if point not in INJECTION_POINTS:
            raise ValueError(f"unknown injection point {point!r}")
        rate = self.rates.get(point, 0.0)
        with self._lock:
            if rate <= 0.0:
                return False
            if (self.max_faults is not None
                    and self.total_fired >= self.max_faults):
                return False
            if self._rng.random() >= rate:
                return False
            self.fired[point] += 1
            return True

    @property
    def total_fired(self) -> int:
        """Faults planted so far, across every point."""
        return sum(self.fired.values())

"""The fault-tolerance machinery: deadlines, retries, breakers, chaos.

Unit coverage of the :mod:`repro.fault` value objects (clock-injected
:class:`Deadline`, full-jitter :class:`RetryPolicy` under a shared
:class:`RetryBudget`, the closed/open/half-open :class:`CircuitBreaker`,
and the seeded :class:`FaultInjector`), then behavioral coverage of the
scatter layer wearing them: retried legs recover bit-identically and
annotate ``extra["leg_attempts"]``, exhausted retries propagate in
strict mode and degrade to the surviving-shard oracle under
``allow_partial``, open breakers refuse legs without burning budget,
and expired deadlines raise (never a partial answer).

The chaos *parity* gate (injected faults at shard counts {1, 2, 7},
answers bit-identical to the oracle) lives in
``tests/test_parity_oracle.py``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.errors import (
    DeadlineExceededError,
    ShardWorkerError,
)
from repro.fault import (
    BreakerOpenError,
    BreakerPolicy,
    CircuitBreaker,
    Deadline,
    FaultInjector,
    INJECTION_POINTS,
    InjectedFaultError,
    RetryPolicy,
)
from repro.functions.linear import (
    LinearFunction,
    skewed_linear_function,
    sum_function,
)
from repro.query import Predicate, TopKQuery
from repro.shard import (
    HashShardingPolicy,
    InProcessLegs,
    ScatterGatherExecutor,
    ShardManager,
)
from repro.workloads import SyntheticSpec, generate_relation
from tests.conftest import brute_force_topk, mask_equal


class FakeClock:
    def __init__(self, t: float = 0.0) -> None:
        self.t = t

    def advance(self, dt: float) -> None:
        self.t += dt

    def __call__(self) -> float:
        return self.t


# ----------------------------------------------------------------------
# unit: Deadline
# ----------------------------------------------------------------------
class TestDeadline:
    def test_remaining_and_expiry_follow_the_clock(self):
        clock = FakeClock(100.0)
        deadline = Deadline.after(5.0, clock=clock)
        assert deadline.remaining() == pytest.approx(5.0)
        assert not deadline.expired()
        clock.advance(4.0)
        assert deadline.remaining() == pytest.approx(1.0)
        clock.advance(2.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_raise_if_expired_names_the_context(self):
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        deadline.raise_if_expired("anything")  # not yet
        clock.advance(1.0)
        with pytest.raises(DeadlineExceededError, match="before gather"):
            deadline.raise_if_expired("gather")

    def test_negative_seconds_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            Deadline.after(-0.1)


# ----------------------------------------------------------------------
# unit: RetryPolicy / RetryBudget
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_ceiling_doubles_up_to_the_cap(self):
        policy = RetryPolicy(max_attempts=10, base_delay=0.1, cap_delay=0.5)
        assert policy.backoff_ceiling(1) == pytest.approx(0.1)
        assert policy.backoff_ceiling(2) == pytest.approx(0.2)
        assert policy.backoff_ceiling(3) == pytest.approx(0.4)
        assert policy.backoff_ceiling(4) == pytest.approx(0.5)  # capped
        assert policy.backoff_ceiling(1000) == pytest.approx(0.5)

    def test_full_jitter_is_uniform_under_the_ceiling(self):
        policy = RetryPolicy(base_delay=0.2, cap_delay=1.0)
        rng = random.Random(42)
        draws = [policy.backoff(1, rng) for _ in range(200)]
        assert all(0.0 <= d <= 0.2 for d in draws)
        # Same seed, same sleeps: chaos runs replay deterministically.
        again = [policy.backoff(1, random.Random(42)) for _ in range(1)]
        assert again[0] == pytest.approx(draws[0])

    def test_budget_consume_is_all_or_nothing(self):
        budget = RetryPolicy(budget=1.0).new_budget()
        assert budget.consume(0.7)
        assert not budget.consume(0.5)  # would overdraw: refused whole
        assert budget.consume(0.3)
        assert budget.spent == pytest.approx(1.0)
        assert budget.remaining == pytest.approx(0.0)

    def test_unbudgeted_policy_never_refuses(self):
        budget = RetryPolicy(budget=None).new_budget()
        assert budget.consume(1e6)
        assert budget.remaining is None

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="cap_delay"):
            RetryPolicy(base_delay=1.0, cap_delay=0.5)
        with pytest.raises(ValueError, match="non-negative"):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError, match="budget"):
            RetryPolicy(budget=-2.0)


# ----------------------------------------------------------------------
# unit: CircuitBreaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=10.0):
        clock = FakeClock()
        events = []
        breaker = CircuitBreaker(
            0, BreakerPolicy(failure_threshold=threshold, cooldown=cooldown),
            clock=clock, on_event=lambda event, shard: events.append(event))
        return breaker, clock, events

    def test_threshold_consecutive_failures_open_the_breaker(self):
        breaker, _, events = self.make(threshold=3)
        for _ in range(2):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert events == ["opened"]

    def test_success_resets_the_streak(self):
        breaker, _, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"  # streak broken, not cumulative

    def test_cooldown_admits_one_probe_whose_success_closes(self):
        breaker, clock, events = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(10.0)
        clock.advance(10.0)
        assert breaker.state == "half_open"
        assert breaker.allow()        # the probe slot
        assert not breaker.allow()    # concurrent leg refused mid-probe
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()
        assert events == ["opened", "half_open_probe", "closed"]

    def test_failed_probe_reopens_for_a_fresh_cooldown(self):
        breaker, clock, events = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.retry_after() == pytest.approx(10.0)
        assert not breaker.allow()
        assert events == ["opened", "half_open_probe", "opened"]

    def test_open_error_is_a_shard_worker_error_with_retry_after(self):
        error = BreakerOpenError(3, retry_after=2.5)
        assert isinstance(error, ShardWorkerError)
        assert error.shard_index == 3
        assert error.retry_after == pytest.approx(2.5)
        assert "shard 3" in str(error)

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="failure_threshold"):
            BreakerPolicy(failure_threshold=0)
        with pytest.raises(ValueError, match="cooldown"):
            BreakerPolicy(cooldown=-1.0)


# ----------------------------------------------------------------------
# unit: FaultInjector
# ----------------------------------------------------------------------
class TestFaultInjector:
    def test_same_seed_replays_the_same_fault_sequence(self):
        rates = {"worker.crash.pre": 0.5, "leg.delay": 0.25}
        first = FaultInjector(seed=7, rates=rates)
        second = FaultInjector(seed=7, rates=rates)
        sequence = [(first.fires("worker.crash.pre"),
                     first.fires("leg.delay")) for _ in range(50)]
        replay = [(second.fires("worker.crash.pre"),
                   second.fires("leg.delay")) for _ in range(50)]
        assert sequence == replay
        assert first.fired == second.fired
        assert first.total_fired > 0  # chaos actually happened

    def test_max_faults_caps_total_injections(self):
        injector = FaultInjector(seed=1, rates={"worker.crash.pre": 1.0},
                                 max_faults=3)
        outcomes = [injector.fires("worker.crash.pre") for _ in range(10)]
        assert outcomes == [True, True, True] + [False] * 7
        assert injector.total_fired == 3

    def test_unrated_points_never_fire(self):
        injector = FaultInjector(seed=1, rates={"worker.crash.post": 1.0})
        assert not injector.fires("worker.crash.pre")
        assert injector.fires("worker.crash.post")

    def test_unknown_points_rejected_loudly(self):
        with pytest.raises(ValueError, match="unknown injection point"):
            FaultInjector(seed=1, rates={"worker.crash.prre": 1.0})
        injector = FaultInjector(seed=1, rates={})
        with pytest.raises(ValueError, match="unknown injection point"):
            injector.fires("not.a.point")
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            FaultInjector(seed=1, rates={"worker.crash.post": 1.5})
        with pytest.raises(ValueError, match="max_faults"):
            FaultInjector(seed=1, rates={}, max_faults=-1)

    def test_injected_fault_error_is_a_shard_worker_error(self):
        error = InjectedFaultError("worker.crash.pre", shard_index=2)
        assert isinstance(error, ShardWorkerError)
        assert error.point == "worker.crash.pre"
        assert error.shard_index == 2

    def test_every_documented_point_is_named(self):
        assert set(INJECTION_POINTS) == {
            "worker.crash.pre", "worker.crash.post", "leg.delay"}


# ----------------------------------------------------------------------
# executor-level: retries, degradation, breakers, deadlines, hangs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def relation():
    return generate_relation(SyntheticSpec(
        num_tuples=600, num_selection_dims=2, num_ranking_dims=2,
        cardinality=4, seed=33))


def make_engine(relation, num_shards=3, **kwargs):
    manager = ShardManager(relation, HashShardingPolicy(num_shards),
                           block_size=64, with_signature=False,
                           with_skyline=False)
    return manager, ScatterGatherExecutor(manager, **kwargs)


def topk(k=8, **conditions):
    return TopKQuery(Predicate.of(conditions), sum_function(["N1", "N2"]), k)


@pytest.fixture(scope="module")
def chaos_case():
    """The fault benchmark's relation and seeded 40-query mix (varying
    predicates, skewed functions and k), shared by its two count gates."""
    big = generate_relation(SyntheticSpec(
        num_tuples=4000, num_selection_dims=3, num_ranking_dims=2,
        cardinality=6, seed=4242))
    rng = np.random.default_rng(4242)
    queries = []
    for _ in range(40):
        conditions = {}
        if rng.random() < 0.5:
            dim = str(rng.choice(big.selection_dims))
            column = big.selection_column(dim)
            conditions[dim] = int(column[rng.integers(0, len(column))])
        function = skewed_linear_function(
            list(big.ranking_dims), float(rng.uniform(1, 3)), rng=rng)
        queries.append(TopKQuery(Predicate.of(conditions), function,
                                 int(rng.choice([1, 5, 10, 25]))))
    return big, queries


def surviving_oracle(relation, query, surviving_tids):
    """Brute force restricted to the surviving shards' global tids."""
    mask = mask_equal(relation, query.predicate.as_dict)
    scored = sorted(
        (float(query.function.evaluate_tuple(relation, int(tid))), int(tid))
        for tid in np.nonzero(mask)[0] if int(tid) in surviving_tids)
    top = scored[: query.k]
    return tuple(t for _, t in top), tuple(s for s, _ in top)


class FailingLegs(InProcessLegs):
    """A fake leg runner: legs to one shard raise, the rest run for real."""

    def __init__(self, manager, bad_index):
        super().__init__(manager)
        self.bad_index = bad_index

    def run(self, shard, queries, leg_span):
        if shard.index == self.bad_index:
            raise ShardWorkerError(
                f"shard {shard.index} is unreachable",
                shard_index=shard.index)
        return super().run(shard, queries, leg_span)


class RaisingLegs(InProcessLegs):
    """Legs to one shard raise a programming error, not a shard failure."""

    def __init__(self, manager, bad_index):
        super().__init__(manager)
        self.bad_index = bad_index

    def run(self, shard, queries, leg_span):
        if shard.index == self.bad_index:
            raise ValueError(f"leg to shard {shard.index} hit a bug")
        return super().run(shard, queries, leg_span)


def two_fused_groups():
    """Four top-k queries over two ranking functions: two fused groups."""
    skewed = LinearFunction(["N1", "N2"], [1.0, 3.0])
    return [TopKQuery(Predicate.of({}), function, k)
            for function in (sum_function(["N1", "N2"]), skewed)
            for k in (20, 30)]


def fail_shard(engine, bad_index):
    """Make every leg to one shard raise, leaving the others honest."""
    engine.legs = FailingLegs(engine.manager, bad_index)


def heal_shards(engine):
    engine.legs = InProcessLegs(engine.manager)


class TestRetries:
    def test_retried_legs_recover_bit_identically(self, relation):
        injector = FaultInjector(seed=11, rates={"worker.crash.pre": 1.0},
                                 max_faults=2)
        _, engine = make_engine(
            relation, fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=4, base_delay=0.001,
                                     cap_delay=0.002, jitter_seed=5))
        sleeps = []
        engine.guard.sleep = sleeps.append
        query = topk(k=6, A1=1)
        result = engine.execute(query)
        tids, scores = brute_force_topk(relation, query)
        assert result.tids == tids
        assert result.scores == scores
        assert injector.fired["worker.crash.pre"] == 2
        snap = engine.metrics.snapshot()
        assert snap["fault.retries"] == 2.0
        assert snap["fault.leg_failures"] == 2.0
        # The recovered result is not degraded — every shard answered.
        assert "degraded" not in result.extra
        attempts = dict(
            pair.split(":") for pair in
            result.extra["leg_attempts"].split(","))
        assert sum(int(n) for n in attempts.values()) >= len(attempts) + 2

    def test_seeded_chaos_workload_has_zero_wrong_answers(self, chaos_case):
        """The chaos gate in counts: crashes before and after legs plus
        delays, capped below the attempts a leg may spend, so every
        answer recovers — and equals brute force."""
        big, queries = chaos_case
        injector = FaultInjector(
            seed=1337, max_faults=10, delay_seconds=0.0005,
            rates={"worker.crash.pre": 0.15, "worker.crash.post": 0.08,
                   "leg.delay": 0.05})
        _, engine = make_engine(
            big, fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=12, base_delay=0.0005,
                                     cap_delay=0.002, budget=None,
                                     jitter_seed=1337))
        engine.guard.sleep = lambda seconds: None
        for query in queries:
            result = engine.execute(query)
            assert (result.tids, result.scores) == brute_force_topk(
                big, query)
            assert "degraded" not in result.extra
        assert injector.total_fired > 0
        assert engine.metrics.snapshot()["fault.retries"] > 0

    def test_backoff_sleeps_follow_the_seeded_jitter(self, relation):
        policy = RetryPolicy(max_attempts=3, base_delay=0.01, cap_delay=0.04,
                             jitter_seed=99)
        injector = FaultInjector(seed=3, rates={"worker.crash.pre": 1.0},
                                 max_faults=2)
        _, engine = make_engine(relation, fault_injector=injector,
                                retry_policy=policy)
        sleeps = []
        engine.guard.sleep = sleeps.append
        engine.execute(topk(k=3))
        expected_rng = random.Random(99)
        for attempt, slept in enumerate(sleeps, start=1):
            assert slept == pytest.approx(
                policy.backoff(attempt, expected_rng))

    def test_exhausted_retries_raise_in_strict_mode(self, relation):
        injector = FaultInjector(seed=2, rates={"worker.crash.pre": 1.0})
        _, engine = make_engine(
            relation, fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0,
                                     cap_delay=0.0, jitter_seed=0))
        with pytest.raises(InjectedFaultError):
            engine.execute(topk())
        snap = engine.metrics.snapshot()
        assert snap["fault.retries"] >= 1.0
        assert snap["fault.shards_failed"] >= 1.0

    def test_dry_retry_budget_stops_the_backoff(self, relation):
        injector = FaultInjector(seed=4, rates={"worker.crash.pre": 1.0})
        _, engine = make_engine(
            relation, fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=50, base_delay=0.01,
                                     cap_delay=0.01, budget=0.0,
                                     jitter_seed=1))
        with pytest.raises(InjectedFaultError):
            engine.execute(topk(k=2))
        snap = engine.metrics.snapshot()
        # A zero budget cannot cover any positive sleep: the first
        # positive backoff draw is refused and the leg gives up long
        # before max_attempts.
        assert snap["fault.retry_budget_exhausted"] >= 1.0
        assert snap["fault.retries"] < 49.0


class TestPartialResults:
    def test_degraded_answer_is_the_surviving_shard_oracle(self, relation):
        manager, engine = make_engine(relation, num_shards=3,
                                      allow_partial=True)
        fail_shard(engine, bad_index=0)
        surviving = {int(tid) for shard in manager.shards
                     if shard.index != 0 for tid in shard.tid_map}
        query = topk(k=7, A2=1)
        result = engine.execute(query)
        tids, scores = surviving_oracle(relation, query, surviving)
        assert result.tids == tids
        assert result.scores == scores
        assert result.extra["degraded"] == 1.0
        assert result.extra["shards_failed"] == "0:ShardWorkerError"
        assert result.extra["completeness"] == pytest.approx(2.0 / 3.0)

    def test_degraded_results_are_never_cached(self, relation):
        manager, engine = make_engine(relation, allow_partial=True)
        fail_shard(engine, bad_index=1)
        query = topk(k=4)
        degraded = engine.execute(query)
        assert degraded.extra["degraded"] == 1.0
        # The shard recovers; the next call must recompute, not serve
        # the gap from the result cache.
        heal_shards(engine)
        healed = engine.execute(query)
        assert "degraded" not in healed.extra
        assert healed.tids == brute_force_topk(relation, query)[0]

    def test_strict_mode_still_raises(self, relation):
        _, engine = make_engine(relation, allow_partial=False)
        fail_shard(engine, bad_index=0)
        with pytest.raises(ShardWorkerError):
            engine.execute(topk())

    def test_per_call_override_beats_the_executor_default(self, relation):
        _, engine = make_engine(relation, allow_partial=True)
        fail_shard(engine, bad_index=0)
        with pytest.raises(ShardWorkerError):
            engine.execute(topk(), allow_partial=False)
        result = engine.execute(topk())
        assert result.extra["degraded"] == 1.0

    def test_all_shards_down_raises_even_in_partial_mode(self, relation):
        injector = FaultInjector(seed=6, rates={"worker.crash.pre": 1.0})
        _, engine = make_engine(relation, fault_injector=injector,
                                allow_partial=True)
        # No retries configured: every leg fails on its only attempt,
        # and an answer from zero shards would be a silent lie.
        with pytest.raises(InjectedFaultError):
            engine.execute(topk())


class TestBreakerIntegration:
    def test_breaker_opens_and_refuses_without_attempts(self, relation):
        clock = FakeClock()
        _, engine = make_engine(
            relation, allow_partial=True,
            breaker_policy=BreakerPolicy(failure_threshold=2, cooldown=60.0))
        engine.guard.clock = clock
        fail_shard(engine, bad_index=0)
        engine.execute(topk(k=2))
        engine.execute(topk(k=3))  # second consecutive failure: trips
        snap = engine.metrics.snapshot()
        assert snap["breaker.opened"] == 1.0
        assert engine.guard.breakers[0].state == "open"
        result = engine.execute(topk(k=4))
        assert result.extra["degraded"] == 1.0
        # Refused fail-fast: zero attempts booked for the open shard.
        assert "0:0" in result.extra["leg_attempts"].split(",")
        assert result.extra["shards_failed"] == "0:BreakerOpenError"
        assert engine.metrics.snapshot()["breaker.rejected"] == 1.0

    def test_dead_shard_workload_degrades_to_the_surviving_oracle(
            self, chaos_case):
        """The degradation gate in counts: shard 0 never answers; every
        answer is flagged and exact over the survivors, the third failure
        trips the breaker, and every later leg to it is refused unrun."""
        big, queries = chaos_case
        manager, engine = make_engine(
            big, allow_partial=True,
            breaker_policy=BreakerPolicy(failure_threshold=3, cooldown=3600.0))
        engine.guard.clock = FakeClock()
        fail_shard(engine, bad_index=0)
        surviving = {int(tid) for shard in manager.shards
                     if shard.index != 0 for tid in shard.tid_map}
        for position, query in enumerate(queries):
            result = engine.execute(query, use_result_cache=False)
            assert result.extra["degraded"] == 1.0
            assert (result.tids, result.scores) == surviving_oracle(
                big, query, surviving)
            attempts = "0:0" if position >= 3 else "0:1"
            assert attempts in result.extra["leg_attempts"].split(",")
        snap = engine.metrics.snapshot()
        assert snap["breaker.opened"] == 1.0
        assert snap["breaker.rejected"] == len(queries) - 3

    def test_half_open_probe_closes_after_recovery(self, relation):
        clock = FakeClock()
        _, engine = make_engine(
            relation, allow_partial=True,
            breaker_policy=BreakerPolicy(failure_threshold=1, cooldown=30.0))
        engine.guard.clock = clock
        fail_shard(engine, bad_index=0)
        engine.execute(topk(k=2))  # trips shard 0's breaker
        # The shard heals while the breaker cools down.
        heal_shards(engine)
        clock.advance(30.0)
        query = topk(k=5, A1=2)
        result = engine.execute(query)  # the half-open probe succeeds
        assert result.tids == brute_force_topk(relation, query)[0]
        assert "degraded" not in result.extra
        snap = engine.metrics.snapshot()
        assert snap["breaker.half_open_probes"] == 1.0
        assert snap["breaker.closed"] == 1.0
        assert engine.guard.breakers[0].state == "closed"

    def test_strict_mode_surfaces_breaker_open_error(self, relation):
        clock = FakeClock()
        _, engine = make_engine(
            relation,
            breaker_policy=BreakerPolicy(failure_threshold=1, cooldown=60.0))
        engine.guard.clock = clock
        fail_shard(engine, bad_index=0)
        with pytest.raises(ShardWorkerError):
            engine.execute(topk(k=2))
        with pytest.raises(BreakerOpenError, match="breaker is open"):
            engine.execute(topk(k=3))


    def test_a_probe_that_raises_a_non_shard_error_frees_the_probe_slot(
            self, relation):
        """A half-open probe that fails with anything but a shard failure
        propagates unretried and gives the probe slot back: the healed
        shard's next leg probes again and closes the breaker."""
        clock = FakeClock()
        _, engine = make_engine(
            relation, allow_partial=True,
            breaker_policy=BreakerPolicy(failure_threshold=1, cooldown=10.0))
        engine.guard.clock = clock
        fail_shard(engine, bad_index=0)
        engine.execute(topk(k=2))  # trips shard 0's breaker
        assert engine.guard.breakers[0].state == "open"
        clock.advance(11.0)
        engine.legs = RaisingLegs(engine.manager, 0)
        with pytest.raises(ValueError, match="hit a bug"):
            engine.execute(topk(k=3))  # the probe raises
        heal_shards(engine)
        clock.advance(1.0)
        query = topk(k=5, A1=2)
        result = engine.execute(query)
        assert "degraded" not in result.extra
        assert "0:1" in result.extra["leg_attempts"].split(",")
        assert result.tids == brute_force_topk(relation, query)[0]
        assert engine.guard.breakers[0].state == "closed"
        snap = engine.metrics.snapshot()
        assert snap["breaker.half_open_probes"] == 2.0
        assert snap["breaker.closed"] == 1.0


class TestOneRecordPerCall:
    """One front-door call carries one retry budget across all its groups,
    and each rider's fault record is the legs it rode."""

    def test_each_rider_records_the_legs_it_rode(self, relation):
        keys = ("leg_attempts", "shards_failed", "completeness", "degraded")
        _, engine = make_engine(relation, allow_partial=True)
        fail_shard(engine, bad_index=1)
        results = engine.execute_many(two_fused_groups())
        assert {tuple(result.extra[key] for key in keys)
                for result in results} == {
            ("0:1,1:1,2:1", "1:ShardWorkerError", 2.0 / 3.0, 1.0)}

    def test_the_retry_budget_is_shared_by_every_group_of_a_call(
            self, relation):
        draws = random.Random(7)
        probe = RetryPolicy(max_attempts=2, base_delay=1.0, cap_delay=1.0)
        first, second = probe.backoff(1, draws), probe.backoff(1, draws)
        # Covers the first group's backoff, not the second group's too.
        policy = RetryPolicy(max_attempts=2, base_delay=1.0, cap_delay=1.0,
                             budget=first + second / 2, jitter_seed=7)
        _, engine = make_engine(relation, allow_partial=True,
                                retry_policy=policy)
        sleeps = []
        engine.guard.sleep = sleeps.append
        fail_shard(engine, bad_index=0)
        results = engine.execute_many(two_fused_groups())
        assert all(result.extra["shards_failed"] == "0:ShardWorkerError"
                   for result in results)
        snap = engine.metrics.snapshot()
        assert snap["shard.fused_groups"] == 2.0
        assert snap["fault.retries"] == 1.0
        assert snap["fault.retry_budget_exhausted"] == 1.0
        assert sleeps == [pytest.approx(first)]


class TestDeadlines:
    def test_expired_deadline_raises_before_any_leg(self, relation):
        _, engine = make_engine(relation)
        clock = FakeClock()
        deadline = Deadline.after(1.0, clock=clock)
        clock.advance(2.0)
        with pytest.raises(DeadlineExceededError):
            engine.execute(topk(), deadline=deadline)
        assert engine.metrics.snapshot()["fault.deadline_exceeded"] == 1.0

    def test_live_deadline_does_not_perturb_the_answer(self, relation):
        _, engine = make_engine(relation)
        query = topk(k=5, A1=1)
        result = engine.execute(
            query, deadline=Deadline.after(60.0))
        assert result.tids == brute_force_topk(relation, query)[0]
        assert "leg_attempts" in result.extra

    def test_expiry_beats_allow_partial(self, relation):
        _, engine = make_engine(relation, allow_partial=True)
        clock = FakeClock()
        deadline = Deadline.after(0.0, clock=clock)
        clock.advance(1.0)
        # A late answer is not a partial answer: expiry always raises.
        with pytest.raises(DeadlineExceededError):
            engine.execute(topk(), deadline=deadline)

    def test_deadline_caps_retry_backoff(self, relation):
        injector = FaultInjector(seed=8, rates={"worker.crash.pre": 1.0},
                                 max_faults=1)
        _, engine = make_engine(
            relation, fault_injector=injector,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=10.0,
                                     cap_delay=10.0, jitter_seed=2))
        sleeps = []
        engine.guard.sleep = sleeps.append
        result = engine.execute(topk(k=3),
                                deadline=Deadline.after(0.5))
        assert result.tids  # recovered within the deadline
        assert all(slept <= 0.5 for slept in sleeps)

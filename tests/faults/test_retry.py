"""RetryPolicy: bounded attempts, backoff schedule, simulated clock.

What a policy spends is read from the run record: each guarded adb
call's retries are ``retry`` events (with the delay slept) and its end
is a ``retry.end`` event (``recover`` or ``giveup``).  The tests drive
the policy through a fault-free :class:`FaultyAdb` whose instrumentation
run flakes, so every failure comes from the thunk.
"""

import random

import pytest

from repro.android import Device
from repro.errors import TestCaseError, TransientAdbError
from repro.faults import FaultPlan, FaultyAdb, RetryPolicy, SimulatedClock
from repro.obs import EventLog
from repro.obs.events import RETRY, RETRY_END


def _flaky(failures):
    """A thunk failing transiently ``failures`` times, then succeeding."""
    state = {"left": failures}

    def fn():
        if state["left"] > 0:
            state["left"] -= 1
            raise TransientAdbError("flake")
        return "ok"

    return fn


def _flaky_adb(policy, failures):
    """An adb whose ``am instrument`` flakes ``failures`` times, its
    retries recorded into an event log."""
    adb = FaultyAdb(Device(), plan=FaultPlan(), policy=policy)
    adb.events = EventLog()
    adb.register_instrumentation("flaky.test", _flaky(failures))
    return adb


def _delays(adb):
    return [event.attributes["delay"] for event in adb.events.events()
            if event.kind == RETRY]


def _ends(adb):
    return [event.attributes["action"] for event in adb.events.events()
            if event.kind == RETRY_END]


def test_recovers_within_budget_and_counts():
    policy = RetryPolicy(max_attempts=4, jitter=0.0)
    assert policy.call(_flaky(2), clock=SimulatedClock()) == "ok"
    adb = _flaky_adb(policy, 2)
    adb.am_instrument("flaky.test")
    assert len(_delays(adb)) == 2 and _ends(adb) == ["recover"]
    assert adb.clock.now == pytest.approx(sum(_delays(adb)))


def test_gives_up_after_max_attempts():
    adb = _flaky_adb(RetryPolicy(max_attempts=3, jitter=0.0), 99)
    with pytest.raises(TransientAdbError):
        adb.am_instrument("flaky.test")
    assert _ends(adb) == ["giveup"]
    # two backoffs before the third, final try
    assert len(_delays(adb)) == 2


def test_a_call_that_never_fails_records_nothing():
    adb = _flaky_adb(RetryPolicy(), 0)
    adb.am_instrument("flaky.test")
    assert adb.events.events() == []


def test_non_transient_errors_are_not_retried():
    calls = []

    def fn():
        calls.append(1)
        raise TestCaseError("app bug")

    with pytest.raises(TestCaseError):
        RetryPolicy().call(fn, clock=SimulatedClock())
    assert len(calls) == 1


def test_backoff_is_exponential_and_capped():
    policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5,
                         jitter=0.0)
    delays = [policy.delay_for(i) for i in range(5)]
    assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]


def test_jitter_is_deterministic_and_bounded():
    policy = RetryPolicy(base_delay=1.0, multiplier=1.0, max_delay=1.0,
                         jitter=0.25)
    rng_a, rng_b = random.Random(7), random.Random(7)
    a = [policy.delay_for(i, rng_a) for i in range(10)]
    b = [policy.delay_for(i, rng_b) for i in range(10)]
    assert a == b
    assert all(0.75 <= d <= 1.25 for d in a)
    assert len(set(a)) > 1  # it actually jitters


def test_on_retry_hook_sees_each_transient_failure():
    seen = []
    policy = RetryPolicy(max_attempts=4, base_delay=0.05, jitter=0.0)
    policy.call(_flaky(2), clock=SimulatedClock(),
                on_retry=lambda exc, delay: seen.append(
                    (type(exc).__name__, delay)))
    assert seen == [("TransientAdbError", 0.05), ("TransientAdbError", 0.1)]


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.0)


# ---------------------------------------------------------------------------
# The total-deadline budget
# ---------------------------------------------------------------------------

def test_max_total_delay_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_total_delay=0.0)
    with pytest.raises(ValueError):
        RetryPolicy(max_total_delay=-1.0)
    assert RetryPolicy(max_total_delay=None).max_total_delay is None


def test_delay_for_clamps_to_the_remaining_budget():
    policy = RetryPolicy(base_delay=1.0, multiplier=1.0, max_delay=1.0,
                         jitter=0.0, max_total_delay=1.5)
    assert policy.delay_for(0, elapsed=0.0) == 1.0
    assert policy.delay_for(1, elapsed=1.0) == 0.5
    assert policy.delay_for(2, elapsed=1.5) == 0.0
    assert policy.delay_for(2, elapsed=99.0) == 0.0  # never negative


def test_call_gives_up_once_the_budget_is_spent():
    """Attempts remain, but the total-backoff deadline is the harder
    bound: the next transient failure after it re-raises."""
    policy = RetryPolicy(max_attempts=10, base_delay=1.0, multiplier=1.0,
                         max_delay=1.0, jitter=0.0, max_total_delay=2.0)
    adb = _flaky_adb(policy, 99)
    with pytest.raises(TransientAdbError):
        adb.am_instrument("flaky.test")
    assert _ends(adb) == ["giveup"]
    # Two full sleeps spend the 2.0s budget; the third failure gives up.
    assert _delays(adb) == [1.0, 1.0]
    assert adb.clock.now == pytest.approx(2.0)
    assert adb.clock.now <= policy.max_total_delay


def test_budget_does_not_interfere_with_quick_recoveries():
    policy = RetryPolicy(max_attempts=5, jitter=0.0, max_total_delay=60.0)
    assert policy.call(_flaky(2), clock=SimulatedClock()) == "ok"
    adb = _flaky_adb(policy, 2)
    adb.am_instrument("flaky.test")
    assert _ends(adb) == ["recover"]


def test_simulated_clock_jumps_instead_of_waiting():
    clock = SimulatedClock()
    clock.sleep(2.5)
    clock.sleep(0.5)
    assert clock.now == 3.0

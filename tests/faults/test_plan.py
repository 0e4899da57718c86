"""FaultPlan: profiles, validation, deterministic injector streams."""

import contextlib
from collections import Counter

import pytest

from repro.android import Device
from repro.errors import TransientError
from repro.faults import (
    ADB_FAULTS,
    CLICK_FAULTS,
    FAULT_PROFILES,
    FaultInjector,
    FaultPlan,
    FaultyAdb,
    RetryPolicy,
    fault_plan,
)
from repro.obs import EventLog
from repro.obs.events import FAULT_INJECTED


def _adb_stream(plan, scope, n=50):
    injector = plan.injector(scope)
    return [injector.adb_fault() for _ in range(n)]


def test_named_profiles_exist_and_order_by_severity():
    assert set(FAULT_PROFILES) == {"none", "mild", "hostile"}
    none, mild, hostile = (FAULT_PROFILES[p]
                           for p in ("none", "mild", "hostile"))
    assert not none.enabled
    assert mild.enabled and hostile.enabled
    for name, mild_rate in mild.rates().items():
        assert getattr(hostile, name) >= mild_rate


def test_fault_plan_reseeds_named_profile():
    plan = fault_plan("mild", seed=99)
    assert plan.seed == 99 and plan.profile == "mild"
    assert plan.rates() == FAULT_PROFILES["mild"].rates()


def test_unknown_profile_rejected():
    with pytest.raises(ValueError, match="unknown fault profile"):
        fault_plan("brutal")


@pytest.mark.parametrize("rate", [-0.1, 1.5])
def test_rates_must_be_probabilities(rate):
    with pytest.raises(ValueError, match="probability"):
        FaultPlan(adb_transient_rate=rate)


def test_injector_streams_are_deterministic_per_scope():
    plan = fault_plan("hostile", seed=5)
    assert _adb_stream(plan, "com.a") == _adb_stream(plan, "com.a")
    assert _adb_stream(plan, "com.a") != _adb_stream(plan, "com.b")


def test_seed_changes_the_stream():
    assert (_adb_stream(fault_plan("hostile", seed=1), "x", 100)
            != _adb_stream(fault_plan("hostile", seed=2), "x", 100))


def test_injector_draws_only_its_fault_kinds():
    injector = FaultInjector(fault_plan("hostile", seed=3), scope="x")
    adb = [injector.adb_fault() for _ in range(200)]
    click = [injector.click_fault() for _ in range(200)]
    assert {kind for kind in adb if kind} <= set(ADB_FAULTS)
    assert {kind for kind in click if kind} <= set(CLICK_FAULTS)
    assert any(adb) and any(click), \
        "hostile profile must inject something in 400 draws"


def test_the_run_record_holds_every_injected_fault():
    """The injector keeps no tally: each fault it draws is recorded as
    a ``fault.injected`` event where it lands."""
    plan = FaultPlan(profile="custom", seed=3, adb_transient_rate=0.3,
                     adb_hang_rate=0.1)
    adb = FaultyAdb(Device(), plan=plan, policy=RetryPolicy(max_attempts=1))
    adb.events = EventLog()
    for _ in range(100):
        with contextlib.suppress(TransientError):
            adb.logcat()
    mirror = plan.injector()
    drawn = Counter(kind for kind in (mirror.adb_fault() for _ in range(100))
                    if kind is not None)
    recorded = Counter(event.attributes["fault"]
                       for event in adb.events.events()
                       if event.kind == FAULT_INJECTED)
    assert recorded and recorded == drawn


def test_none_profile_draws_nothing():
    injector = fault_plan("none").injector("x")
    assert all(injector.adb_fault() is None for _ in range(50))
    assert all(injector.click_fault() is None for _ in range(50))

"""FaultyAdb: injection at the command gate, healing through retries.

Every fault, retry and retry outcome is read from the run record the
adb writes into (``fault.injected``, ``retry``, ``retry.end``)."""

import pytest

from repro.errors import DeviceDisconnectedError, TransientError
from repro.faults import (
    FaultPlan,
    FaultyAdb,
    FaultyDevice,
    RetryPolicy,
    fault_plan,
)
from repro.obs import EventLog
from repro.obs.events import FAULT_INJECTED, RETRY, RETRY_END
from tests.conftest import make_full_demo_spec


def _apk():
    from repro.apk import build_apk

    return build_apk(make_full_demo_spec())


def _faulty_adb(plan, device=None, **kwargs):
    device = device if device is not None else FaultyDevice(plan)
    adb = FaultyAdb(device, plan=plan, **kwargs)
    adb.events = EventLog()
    return adb


def _count(adb, kind, **attributes):
    """How many recorded events of ``kind`` carry ``attributes``."""
    return sum(1 for event in adb.events.events()
               if event.kind == kind and all(
                   event.attributes.get(key) == value
                   for key, value in attributes.items()))


def test_clean_plan_behaves_like_plain_adb():
    adb = _faulty_adb(fault_plan("none"))
    assert adb.install(_apk()) == "Success"
    assert adb.am_start_launcher("com.example.demo")
    assert adb.events.events() == []
    assert adb.command_log[0].startswith("adb install")


def test_transient_faults_are_retried_and_command_lands_once():
    # Certain transient failure on every first gate pass would never
    # succeed; use a high-but-not-1.0 rate and a generous budget so the
    # command eventually lands exactly once.
    plan = FaultPlan(profile="custom", seed=11, adb_transient_rate=0.6)
    adb = _faulty_adb(plan, policy=RetryPolicy(max_attempts=50))
    apk = _apk()
    assert adb.install(apk) == "Success"
    assert adb.device.is_installed("com.example.demo")
    assert adb.command_log.count(f"adb install {apk.apk_name}") == 1
    assert _count(adb, RETRY) > 0
    assert _count(adb, RETRY_END, action="recover", op="install") == 1
    # Each retry followed one recorded, injected fault.
    assert _count(adb, FAULT_INJECTED, fault="adb-transient",
                  op="install") == _count(adb, RETRY)


def test_exhausted_budget_raises_transient_error():
    plan = FaultPlan(profile="custom", seed=1, adb_transient_rate=1.0)
    adb = _faulty_adb(plan, policy=RetryPolicy(max_attempts=3))
    with pytest.raises(TransientError):
        adb.install(_apk())
    assert _count(adb, RETRY_END, action="giveup", op="install") == 1
    assert _count(adb, RETRY_END, action="recover") == 0
    # The device never saw the command.
    assert not adb.device.is_installed("com.example.demo")


def test_disconnect_takes_bridge_down_until_reconnect():
    plan = FaultPlan(profile="custom", seed=2, disconnect_rate=1.0)
    adb = _faulty_adb(plan, policy=RetryPolicy(max_attempts=2))
    with pytest.raises(DeviceDisconnectedError):
        adb.install(_apk())
    # The retry path reconnected after the first drop (then the next
    # draw disconnected again until the budget ran out).
    assert "adb reconnect" in adb.command_log
    assert _count(adb, RETRY, action="reconnect") >= 1
    assert _count(adb, RETRY, action="reconnect") == \
        adb.command_log.count("adb reconnect")


def test_disconnect_then_recovery():
    # Disconnect fires on the first draw with this seed, then the rate
    # is low enough that the retry lands.
    plan = FaultPlan(profile="custom", seed=3, disconnect_rate=0.4)
    adb = _faulty_adb(plan, policy=RetryPolicy(max_attempts=20))
    assert adb.install(_apk()) == "Success"
    assert adb.connected


def test_shares_injector_with_faulty_device():
    plan = fault_plan("hostile", seed=9)
    device = FaultyDevice(plan, scope="com.example.demo")
    adb = FaultyAdb(device, plan=plan)
    assert adb.injector is device.injector


def test_backoff_runs_on_simulated_clock():
    plan = FaultPlan(profile="custom", seed=11, adb_transient_rate=0.6)
    adb = _faulty_adb(plan, policy=RetryPolicy(max_attempts=50))
    adb.install(_apk())
    backoff = sum(event.attributes["delay"]
                  for event in adb.events.events() if event.kind == RETRY)
    assert adb.clock.now == pytest.approx(backoff)
    assert adb.clock.now > 0

"""FaultyDevice: ANR and spurious-crash injection on widget clicks."""

import pytest

from repro.adb import Adb
from repro.errors import CommandTimeoutError
from repro.faults import FaultPlan, FaultyDevice, make_device
from repro.obs import EventLog
from repro.obs.events import FAULT_INJECTED
from tests.conftest import make_full_demo_spec


def _launched_device(plan):
    from repro.apk import build_apk

    device = FaultyDevice(plan, scope="demo")
    adb = Adb(device)
    adb.install(build_apk(make_full_demo_spec()))
    assert adb.am_start_launcher("com.example.demo")
    device.events = EventLog()
    return device


def _recorded_faults(device):
    return [(event.step, event.attributes)
            for event in device.events.events()
            if event.kind == FAULT_INJECTED]


def test_anr_raises_timeout_and_consumes_a_step():
    device = _launched_device(
        FaultPlan(profile="custom", seed=1, anr_rate=1.0)
    )
    steps = device.steps
    with pytest.raises(CommandTimeoutError, match="ANR") as raised:
        device.click_widget("btn_next")
    assert device.steps == steps + 1
    assert _recorded_faults(device) == [
        (steps + 1, {"fault": "anr", "widget": "btn_next",
                     "error": str(raised.value)})]
    # The app is still alive — the widget just never reacted.
    assert device.app_alive
    assert device.current_activity_name().endswith("MainActivity")
    assert any("ANR" in str(e) for e in device.logcat.entries())


def test_spurious_crash_kills_the_foreground_app():
    device = _launched_device(
        FaultPlan(profile="custom", seed=1, spurious_crash_rate=1.0)
    )
    crashes = device.crash_count
    device.click_widget("btn_next")  # would navigate on a healthy device
    assert not device.app_alive
    assert device.crash_count == crashes + 1
    assert _recorded_faults(device) == [
        (device.steps, {"fault": "spurious-crash", "widget": "btn_next"})]
    assert any("FATAL EXCEPTION (injected)" in str(e)
               for e in device.logcat.entries())


def test_clean_plan_clicks_behave_normally():
    device = _launched_device(FaultPlan(profile="custom", seed=1))
    device.click_widget("btn_next")
    assert device.current_activity_name().endswith("SecondActivity")
    assert device.events.events() == []


def test_make_device_picks_the_right_class():
    from repro.android import Device
    from repro.faults import fault_plan

    assert type(make_device(None)) is Device
    assert type(make_device(fault_plan("none"))) is Device
    faulty = make_device(fault_plan("mild", seed=4), scope="com.x")
    assert isinstance(faulty, FaultyDevice)
    assert faulty.injector.scope == "com.x"

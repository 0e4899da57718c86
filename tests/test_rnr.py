"""Record & replay."""

import pytest

from repro.android import Device
from repro.apk import build_apk
from repro.core.queue import OpKind
from repro.errors import ReproError
from repro.rnr import Recorder, ReplayScript, replay_script
from tests.conftest import make_full_demo_spec


@pytest.fixture
def recorded(device, adb, demo_apk):
    adb.install(demo_apk)
    recorder = Recorder(device, demo_apk.package)
    recorder.launch()
    recorder.enter_text("password", "hunter2")
    recorder.click("btn_login")
    return recorder.script(), device


def test_recording_forwards_events(recorded):
    script, device = recorded
    assert device.current_activity_name() == "com.example.demo.VaultActivity"
    assert [e.kind for e in script.events] == [
        OpKind.LAUNCH, OpKind.ENTER_TEXT, OpKind.CLICK]


def test_replay_reaches_same_state(recorded):
    script, _ = recorded
    fresh = Device()
    fresh.install(build_apk(make_full_demo_spec()))
    outcome = replay_script(script, fresh)
    assert outcome.ok
    assert outcome.applied == 3
    assert fresh.current_activity_name() == "com.example.demo.VaultActivity"


def test_script_json_round_trip(recorded):
    script, _ = recorded
    restored = ReplayScript.from_json(script.to_json())
    assert restored.package == script.package
    assert restored.events == script.events
    assert restored.steps == script.steps


def test_replay_breaks_when_ui_drifts(recorded):
    script, _ = recorded
    drifted = make_full_demo_spec()
    # The developer renamed the login button: the script is stale.
    main = drifted.activity("MainActivity")
    main.widgets = [
        w if w.id != "btn_login" else
        type(w)(id="btn_sign_in", text=w.text, on_click=w.on_click)
        for w in main.widgets
    ]
    fresh = Device()
    fresh.install(build_apk(drifted))
    outcome = replay_script(script, fresh)
    assert not outcome.ok
    assert outcome.reason == "widget-missing"


def test_recorded_drawer_and_back(device, adb, demo_apk):
    adb.install(demo_apk)
    recorder = Recorder(device, demo_apk.package)
    recorder.launch()
    recorder.swipe()
    recorder.click("nav_settings")
    recorder.back()
    fresh = Device()
    fresh.install(build_apk(make_full_demo_spec()))
    assert replay_script(recorder.script(), fresh).ok
    assert fresh.current_activity_name() == "com.example.demo.MainActivity"


def test_unknown_event_kind_rejected():
    with pytest.raises(ReproError, match="teleport"):
        ReplayScript.from_json(
            '{"schema": 2, "package": "p", "events": [{"kind": "teleport"}]}')


def test_recorded_steps_are_pre_action_steps(device, adb, demo_apk):
    """The satellite bug: each event must carry the device step sampled
    *before* forwarding — a fresh-device recording is 0, 1, 2, ..."""
    adb.install(demo_apk)
    recorder = Recorder(device, demo_apk.package)
    recorder.launch()
    recorder.enter_text("password", "hunter2")
    recorder.click("btn_login")
    recorder.back()
    script = recorder.script()
    assert script.steps == list(range(len(script.events)))
    # Post-action sampling would have read 1, 2, 3, 4 instead.
    assert script.steps[0] == 0


def test_recorded_step_matches_replay_position(device, adb, demo_apk):
    """The recorded step doubles as the replay index on a fresh device,
    so a divergence report can say which recorded step broke."""
    adb.install(demo_apk)
    recorder = Recorder(device, demo_apk.package)
    recorder.launch()
    recorder.swipe()
    recorder.click("nav_settings")
    script = recorder.script()
    fresh = Device()
    fresh.install(build_apk(make_full_demo_spec()))
    assert replay_script(script, fresh).ok
    # Each replayed event ran in the step it was recorded in (the event
    # log stamps the step the event produced, one later).
    assert [e.step - 1 for e in fresh.event_log.events] == script.steps

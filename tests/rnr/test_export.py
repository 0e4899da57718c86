"""Test cases export as replay scripts: operations keep their kinds and
slots, and only the JSON spells the schema-2 kind names."""

import json

from repro.core.queue import OpKind, Operation, tap_op
from repro.core.testcase import TestCase
from repro.rnr import SCRIPT_SCHEMA, ReplayScript


def exported(case):
    return ReplayScript(case.package, case.operations)


def event_json(op):
    """The one JSON event ``op`` exports as."""
    return json.loads(ReplayScript("com.app", [op]).to_json())["events"][0]


def test_every_op_kind_translates():
    expected = {
        OpKind.LAUNCH: "launch",
        OpKind.CLICK: "click",
        OpKind.ENTER_TEXT: "text",
        OpKind.SWIPE_OPEN: "swipe",
        OpKind.BACK: "back",
        OpKind.REFLECT: "reflect",
        OpKind.FORCE_START: "start",
        OpKind.TAP: "tap",
    }
    assert set(expected) == set(OpKind)
    for op_kind, event_kind in expected.items():
        target = "3,4" if op_kind is OpKind.TAP else "t"
        op = Operation(op_kind, target, "v")
        assert event_json(op)["kind"] == event_kind
        restored = ReplayScript.from_json(
            ReplayScript("com.app", [op]).to_json())
        assert restored.events == [op]


def test_click_carries_widget_id():
    event = event_json(Operation(OpKind.CLICK, "btn_login"))
    assert event["widget_id"] == "btn_login"
    assert event["text"] == ""


def test_enter_text_carries_value():
    event = event_json(Operation(OpKind.ENTER_TEXT, "password", "hunter2"))
    assert event["widget_id"] == "password"
    assert event["text"] == "hunter2"


def test_reflect_and_start_use_the_target_slot():
    reflect = event_json(Operation(OpKind.REFLECT, "com.app.NewsFragment"))
    assert reflect["widget_id"] == "com.app.NewsFragment"
    start = event_json(Operation(OpKind.FORCE_START,
                                 "com.app/com.app.Hidden"))
    assert start["widget_id"] == "com.app/com.app.Hidden"


def test_tap_carries_coordinates():
    event = event_json(tap_op(120, 340))
    assert (event["x"], event["y"], event["widget_id"]) == (120, 340, "")


def test_script_from_testcase_steps_are_indices():
    case = TestCase("com.app", "T", [
        Operation(OpKind.LAUNCH),
        Operation(OpKind.CLICK, "a"),
        Operation(OpKind.BACK),
    ])
    script = exported(case)
    events = json.loads(script.to_json())["events"]
    assert script.package == "com.app"
    assert [e["step"] for e in events] == [0, 1, 2]
    assert [e["kind"] for e in events] == ["launch", "click", "back"]


def test_exported_script_round_trips_through_json():
    case = TestCase("com.app", "T", [
        Operation(OpKind.LAUNCH),
        Operation(OpKind.ENTER_TEXT, "field", "text"),
    ])
    script = exported(case)
    restored = ReplayScript.from_json(script.to_json())
    assert restored.events == script.events
    assert restored.to_json() == script.to_json()
    assert f'"schema": {SCRIPT_SCHEMA}' in script.to_json()

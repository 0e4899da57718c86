"""Replay-script validation: every malformation names its field."""

import json

import pytest

from repro.errors import ReproError
from repro.core.queue import launch_op
from repro.rnr import SCRIPT_SCHEMA, ReplayScript


def valid_payload():
    return {
        "schema": SCRIPT_SCHEMA,
        "package": "com.app",
        "events": [
            {"kind": "launch", "x": 0, "y": 0, "widget_id": "",
             "text": "", "step": 0},
        ],
    }


def loads(payload):
    return ReplayScript.from_json(json.dumps(payload))


def test_valid_script_loads():
    script = loads(valid_payload())
    assert script.package == "com.app"
    assert script.events == [launch_op()]
    assert script.steps == [0]


def test_invalid_json_is_a_named_error():
    with pytest.raises(ReproError, match="not valid JSON"):
        ReplayScript.from_json("{not json")


def test_non_object_rejected():
    with pytest.raises(ReproError, match="replay script: expected object"):
        ReplayScript.from_json("[1, 2]")


def test_unknown_top_level_field_named():
    payload = valid_payload()
    payload["speed"] = 2
    with pytest.raises(ReproError, match="speed"):
        loads(payload)


def test_missing_schema_named():
    payload = valid_payload()
    del payload["schema"]
    with pytest.raises(ReproError, match="'schema'"):
        loads(payload)


def test_foreign_schema_rejected():
    payload = valid_payload()
    payload["schema"] = SCRIPT_SCHEMA + 1
    with pytest.raises(ReproError, match="schema"):
        loads(payload)


def test_missing_package_named():
    payload = valid_payload()
    del payload["package"]
    with pytest.raises(ReproError, match="'package'"):
        loads(payload)


def test_empty_package_rejected():
    payload = valid_payload()
    payload["package"] = ""
    with pytest.raises(ReproError,
                       match=r"script\.package: expected a non-empty str"):
        loads(payload)


def test_mistyped_package_named():
    payload = valid_payload()
    payload["package"] = 7
    with pytest.raises(ReproError, match=r"script\.package: expected str"):
        loads(payload)


def test_events_must_be_a_list():
    payload = valid_payload()
    payload["events"] = {}
    with pytest.raises(ReproError, match=r"script\.events: expected list"):
        loads(payload)


def test_event_must_be_an_object():
    payload = valid_payload()
    payload["events"] = ["launch"]
    with pytest.raises(ReproError, match=r"events\[0\]"):
        loads(payload)


def test_unknown_event_field_named_with_index():
    payload = valid_payload()
    payload["events"][0]["pressure"] = 1.0
    with pytest.raises(ReproError, match=r"events\[0\].*pressure"):
        loads(payload)


def test_missing_kind_named():
    payload = valid_payload()
    del payload["events"][0]["kind"]
    with pytest.raises(ReproError, match=r"events\[0\].*'kind'"):
        loads(payload)


def test_unknown_kind_named():
    payload = valid_payload()
    payload["events"][0]["kind"] = "teleport"
    with pytest.raises(ReproError, match="teleport"):
        loads(payload)


def test_mistyped_step_named():
    payload = valid_payload()
    payload["events"][0]["step"] = "zero"
    with pytest.raises(ReproError, match=r"events\[0\]\.step: expected int"):
        loads(payload)


def test_bool_step_is_not_an_int():
    payload = valid_payload()
    payload["events"][0]["step"] = True
    with pytest.raises(ReproError,
                       match=r"events\[0\]\.step: expected int, found bool"):
        loads(payload)


def test_no_bare_key_or_type_errors():
    """The satellite bug: malformed scripts must never leak KeyError or
    TypeError out of from_json."""
    malformations = [
        "{}", "[]", "null", '{"schema": 2}', '{"package": "p"}',
        '{"schema": 2, "package": "p"}',
        '{"schema": 2, "package": "p", "events": [{}]}',
        '{"schema": 2, "package": "p", "events": [{"kind": 1}]}',
        '{"schema": "2", "package": "p", "events": []}',
    ]
    for text in malformations:
        with pytest.raises(ReproError):
            ReplayScript.from_json(text)

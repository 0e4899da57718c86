"""AFTM and run-report serialization."""

import json

import pytest

from repro import Device, FragDroid
from repro.apk import build_apk
from repro.core.report import (
    aftm_from_dict,
    aftm_to_dict,
    aftm_to_json,
    result_to_dict,
    result_to_json,
)
from repro.corpus import demo_aftm_example
from repro.static.aftm import AFTM, activity_node, fragment_node


def make_model():
    model = AFTM("com.s", entry=activity_node("com.s.A0"))
    model.add_transition(activity_node("com.s.A0"), activity_node("com.s.A1"),
                         trigger="btn_go")
    model.add_transition(activity_node("com.s.A0"),
                         fragment_node("com.s.F0"), host="com.s.A0")
    model.add_transition(fragment_node("com.s.F0"),
                         fragment_node("com.s.F1"), host="com.s.A0")
    model.mark_visited(activity_node("com.s.A0"))
    model.mark_visited(fragment_node("com.s.F0"))
    return model


def test_aftm_json_round_trip():
    model = make_model()
    restored = aftm_from_dict(json.loads(aftm_to_json(model)))
    assert restored.package == model.package
    assert restored.entry == model.entry
    assert restored.nodes == model.nodes
    assert restored.visited == model.visited
    assert {(e.src, e.dst, e.kind, e.host, e.trigger)
            for e in restored.edges} == {
        (e.src, e.dst, e.kind, e.host, e.trigger) for e in model.edges
    }


def test_aftm_dict_shape():
    data = aftm_to_dict(make_model())
    assert data["entry"] == "com.s.A0"
    assert data["activities"] == ["com.s.A0", "com.s.A1"]
    assert data["fragments"] == ["com.s.F0", "com.s.F1"]
    assert len(data["edges"]) == 3
    kinds = {e["kind"] for e in data["edges"]}
    assert kinds == {"E1", "E2", "E3"}


def test_restored_model_continues_evolving():
    restored = aftm_from_dict(json.loads(aftm_to_json(make_model())))
    assert restored.add_transition(
        activity_node("com.s.A1"), fragment_node("com.s.F2"),
        host="com.s.A1", trigger="tab",
    )
    assert not restored.is_complete()


@pytest.fixture(scope="module")
def run_result():
    return FragDroid(Device()).explore(build_apk(demo_aftm_example()))


def test_result_report_shape(run_result):
    data = result_to_dict(run_result)
    assert data["package"] == "com.example.aftm"
    coverage = data["coverage"]
    assert coverage["activities"]["sum"] == 2
    assert coverage["fragments"]["sum"] == 3
    assert 0 < coverage["activities"]["rate"] <= 1
    assert data["stats"]["test_cases"] > 0
    assert any(inv["source"] == "fragment"
               for inv in data["api_invocations"])


def test_result_json_is_valid(run_result):
    parsed = json.loads(result_to_json(run_result))
    assert parsed["aftm"]["package"] == "com.example.aftm"
    restored = aftm_from_dict(parsed["aftm"])
    assert restored.is_complete()

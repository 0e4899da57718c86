"""Run artifact persistence and the coverage curve."""

import json

import pytest

from repro import Device, FragDroid
from repro.apk import build_apk
from repro.core.artifacts import coverage_curve, save_artifacts
from repro.core.report import aftm_from_json
from repro.corpus import demo_aftm_example


@pytest.fixture(scope="module")
def result():
    return FragDroid(Device()).explore(build_apk(demo_aftm_example()))


def test_save_artifacts_layout(result, tmp_path):
    written = save_artifacts(result, tmp_path)
    names = {p.relative_to(tmp_path).as_posix() for p in written}
    assert "report.json" in names
    assert "aftm.json" in names
    assert "aftm.dot" in names
    assert "trace.log" in names
    assert "coverage.txt" in names
    java_files = [n for n in names if n.startswith("testcases/")]
    assert len(java_files) == result.stats.test_cases


def test_saved_report_parses(result, tmp_path):
    save_artifacts(result, tmp_path)
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["package"] == "com.example.aftm"
    restored = aftm_from_json((tmp_path / "aftm.json").read_text())
    assert restored.is_complete()


def test_saved_testcases_are_java(result, tmp_path):
    save_artifacts(result, tmp_path)
    sample = next((tmp_path / "testcases").iterdir())
    text = sample.read_text()
    assert "import com.robotium.solo.Solo;" in text


def test_coverage_curve_monotonic(result):
    curve = coverage_curve(result)
    assert curve[0] == (0, 0, 0)
    steps = [point[0] for point in curve]
    assert steps == sorted(steps)
    activities = [point[1] for point in curve]
    fragments = [point[2] for point in curve]
    assert activities == sorted(activities)
    assert fragments == sorted(fragments)
    assert activities[-1] == len(result.visited_activities)
    assert fragments[-1] == len(result.visited_fragments)


def test_save_artifacts_writes_the_run_record(result, tmp_path):
    written = save_artifacts(result, tmp_path)
    names = {p.relative_to(tmp_path).as_posix() for p in written}
    assert {"events.jsonl", "manifest.json"} <= names
    assert "spans.jsonl" not in names  # the run was not traced
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["flight_recorder"]["events"] == len(result.events)


def test_saved_default_run_answers_like_an_event_logged_one(tmp_path):
    from repro import FragDroidConfig
    from repro.corpus import TABLE1_PLANS, build_app
    from repro.obs import EventLog, explain_run_dir, render_dashboard_dir

    plan = next(p for p in TABLE1_PLANS if p.package == "com.happy2.bbmanga")
    apk = build_apk(build_app(plan))
    save_artifacts(FragDroid(Device()).explore(apk), tmp_path / "plain")
    logged = FragDroidConfig(event_log=EventLog())
    save_artifacts(FragDroid(Device(), logged).explore(apk),
                   tmp_path / "logged")
    assert explain_run_dir(tmp_path / "plain").to_json() == \
        explain_run_dir(tmp_path / "logged").to_json()
    assert "Coverage over time" in render_dashboard_dir(tmp_path / "plain")

"""Run artifact persistence and the coverage curve."""

import json

import pytest

from repro import Device, FragDroid
from repro.apk import build_apk
from repro.core.artifacts import save_artifacts
from repro.core.report import aftm_from_dict
from repro.corpus import demo_aftm_example
from repro.obs.timeline import coverage_timeline


@pytest.fixture(scope="module")
def result():
    return FragDroid(Device()).explore(build_apk(demo_aftm_example()))


def test_save_artifacts_layout(result, tmp_path):
    written = save_artifacts(result, tmp_path)
    names = {p.relative_to(tmp_path).as_posix() for p in written}
    assert "report.json" in names
    assert "aftm.dot" in names
    assert "trace.log" in names
    assert "coverage.txt" in names
    java_files = [n for n in names if n.startswith("testcases/")]
    assert len(java_files) == result.stats.test_cases


def test_saved_report_parses(result, tmp_path):
    save_artifacts(result, tmp_path)
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["package"] == "com.example.aftm"
    restored = aftm_from_dict(data["aftm"])
    assert restored.is_complete()


def test_saved_testcases_are_java(result, tmp_path):
    save_artifacts(result, tmp_path)
    sample = next((tmp_path / "testcases").iterdir())
    text = sample.read_text()
    assert "import com.robotium.solo.Solo;" in text


def test_coverage_curve_monotonic(result):
    curve = coverage_timeline(result.events)
    assert (curve[0].step, curve[0].activities, curve[0].fragments) == \
        (0, 0, 0)
    steps = [point.step for point in curve]
    assert steps == sorted(steps)
    activities = [point.activities for point in curve]
    fragments = [point.fragments for point in curve]
    assert activities == sorted(activities)
    assert fragments == sorted(fragments)
    assert activities[-1] == len(result.visited_activities)
    assert fragments[-1] == len(result.visited_fragments)


def test_save_artifacts_writes_the_run_record(result, tmp_path):
    written = save_artifacts(result, tmp_path)
    names = {p.relative_to(tmp_path).as_posix() for p in written}
    assert {"events.jsonl", "manifest.json"} <= names
    assert "spans.jsonl" not in names  # the run was not traced
    # The commit marker lists every other file of the run.
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest == {"files": sorted(names - {"manifest.json"})}


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


def _restate_api_invocations(run_dir, result):
    """Rewrite a saved ``events.jsonl`` the way runs were saved while the
    record still restated each sensitive-API invocation: one
    ``api.observed`` line per invocation, just before ``run.end``."""
    path = run_dir / "events.jsonl"
    *body, end = [json.loads(line)
                  for line in path.read_text().splitlines()]
    assert end["kind"] == "run.end"
    observed = [
        {"seq": end["seq"] + i, "kind": "api.observed", "step": inv.step,
         "app": result.package, "wall": end["wall"],
         "attributes": {"api": inv.api, "component": inv.component.cls}}
        for i, inv in enumerate(result.api_invocations)
    ]
    end["seq"] += len(observed)
    path.write_text("".join(json.dumps(event, sort_keys=True) + "\n"
                            for event in body + observed + [end]))


def test_runs_saved_with_api_observed_events_read_the_same(tmp_path):
    import pathlib

    from repro.corpus import build_table1_app
    from repro.obs import explain_run_dir
    from repro.obs.dashboard import load_run, render_dashboard

    result = FragDroid(Device()).explore(
        build_apk(build_table1_app("com.happy2.bbmanga")))
    assert result.api_invocations
    save_artifacts(result, tmp_path / "new")
    save_artifacts(result, tmp_path / "old")
    _restate_api_invocations(tmp_path / "old", result)
    assert "api.observed" in (tmp_path / "old" / "events.jsonl").read_text()

    def page(name):
        run = load_run(tmp_path / name)
        run.path = pathlib.Path("run")  # the page names its directory
        return render_dashboard(run)

    assert "Sensitive APIs observed" in page("new")
    assert page("old") == page("new")
    assert explain_run_dir(tmp_path / "old").to_json() == \
        explain_run_dir(tmp_path / "new").to_json()

"""Divergence-reporting replay (repro.rnr.replay)."""

import pytest

from repro import Device, FragDroid
from repro.apk import build_apk
from repro.corpus.mutations import rename_widget
from repro.core.queue import OpKind, click_op, launch_op
from repro.rnr import (
    ReplayScript,
    replay_run_record,
    replay_script,
    replay_suite,
)
from tests.conftest import make_full_demo_spec


def script_from_testcase(case):
    return ReplayScript(case.package, case.operations)


@pytest.fixture(scope="module")
def explored():
    apk = build_apk(make_full_demo_spec())
    return FragDroid(Device()).explore(apk), apk


def test_replay_round_trip_reaches_identical_coverage():
    """Exported scripts replayed on a fresh device reproduce exactly
    the coverage the exploration visited."""
    from repro.corpus import demo_tabbed_app

    apk = build_apk(demo_tabbed_app())
    result = FragDroid(Device()).explore(apk)
    scripts = [script_from_testcase(c) for c in result.passing_test_cases]
    report = replay_suite(scripts, apk)
    assert report.ok
    assert report.diverged == 0
    assert report.events_applied == report.events_total
    assert set(report.activities) == set(result.visited_activities)
    assert set(report.fragments) == set(result.visited_fragments)


def test_replay_round_trip_reaches_at_least_visited_coverage(explored):
    """On the kitchen-sink demo the replay reaches everything visited
    (it may also sample unmanaged fragments the explorer excludes from
    its visited set, e.g. ones attached without a FragmentManager)."""
    result, apk = explored
    scripts = [script_from_testcase(c) for c in result.passing_test_cases]
    report = replay_suite(scripts, apk)
    assert report.ok
    assert set(result.visited_activities) <= set(report.activities)
    assert set(result.visited_fragments) <= set(report.fragments)


def test_replay_against_renamed_widget_diverges(explored):
    result, apk = explored
    scripts = [script_from_testcase(c) for c in result.passing_test_cases]
    clicked = next(e.target for s in scripts for e in s.events
                   if e.kind is OpKind.CLICK)
    drifted = build_apk(rename_widget(make_full_demo_spec(), clicked,
                                      f"{clicked}_v2"))
    report = replay_suite(scripts, drifted)
    assert report.diverged > 0
    broken = next(o for o in report.outcomes if not o.ok)
    assert broken.reason == "widget-missing"
    assert broken.diverged_at is not None
    assert broken.applied < broken.total
    assert "diverged at step" in report.render()


def test_replay_script_reports_instead_of_raising():
    apk = build_apk(make_full_demo_spec())
    script = ReplayScript(package=apk.package, events=[
        launch_op(),
        click_op("no_such_widget"),
    ])
    outcome = replay_script(script, Device(), apk=apk)
    assert not outcome.ok
    assert outcome.diverged_at == 1
    assert outcome.applied == 1
    assert outcome.reason == "widget-missing"
    assert outcome.error


def test_replay_categorizes_app_death():
    apk = build_apk(make_full_demo_spec())
    script = ReplayScript(package=apk.package, events=[
        launch_op(),
        click_op("btn_next"),
        click_op("btn_crash"),
    ])
    outcome = replay_script(script, Device(), apk=apk)
    assert not outcome.ok
    assert outcome.reason == "app-died"
    assert outcome.diverged_at == 2


def test_replay_missing_app_diverges_at_launch():
    script = ReplayScript(package="com.not.installed", events=[
        launch_op(),
    ])
    outcome = replay_script(script, Device())
    assert not outcome.ok
    assert outcome.diverged_at == 0
    assert outcome.applied == 0


def test_replay_outcome_coverage_is_sampled(explored):
    result, apk = explored
    case = result.passing_test_cases[0]
    outcome = replay_script(script_from_testcase(case), Device(), apk=apk,
                            name=case.name)
    assert outcome.ok
    assert outcome.activities  # at least the launcher activity
    assert outcome.name == case.name
    rendered = outcome.render()
    assert "divergence-free" in rendered
    assert "coverage reached" in rendered


def test_replay_run_record_carries_gate_counters(explored):
    result, apk = explored
    scripts = [script_from_testcase(c) for c in result.passing_test_cases]
    record = replay_run_record(replay_suite(scripts, apk))
    assert record.run_id
    assert record.label == f"replay:{apk.package}"
    assert record.coverage["replay_scripts"] == len(scripts)
    assert record.coverage["replay_diverged"] == 0
    assert record.coverage["replay_applied"] == record.coverage[
        "replay_events"]
    assert record.coverage["activities_visited"] == len(
        result.visited_activities)


def test_every_exported_table1_script_replays_on_its_own_apk(tmp_path):
    """Each passing test case of the 15 Table-I apps, exported and
    loaded back, replays divergence-free on the APK that produced it —
    forced starts included, because replay installs the instrumented
    package the explorer ran on."""
    from repro.core.artifacts import save_artifacts
    from repro.corpus import TABLE1_PLANS, build_table1_app

    replayed = 0
    for plan in TABLE1_PLANS:
        apk = build_apk(build_table1_app(plan.package))
        result = FragDroid(Device()).explore(apk)
        directory = tmp_path / plan.package
        save_artifacts(result, directory, replay_scripts=True)
        paths = sorted((directory / "testcases").glob("*.replay.json"))
        assert len(paths) == len(result.passing_test_cases)
        for path in paths:
            script = ReplayScript.from_json(path.read_text())
            outcome = replay_script(script, Device(), apk=apk,
                                    name=path.name)
            assert outcome.ok, outcome.render()
            replayed += 1
    assert replayed == 297


def test_replayed_launch_that_does_not_start_diverges():
    """A launch whose launcher activity does not come up is a
    divergence at the launch itself, as it is for a test case."""
    spec = make_full_demo_spec()
    spec.activity("MainActivity").crashes_on_launch = True
    apk = build_apk(spec)
    script = ReplayScript(apk.package, [launch_op(), click_op("btn_next")])
    outcome = replay_script(script, Device(), apk=apk)
    assert (outcome.diverged_at, outcome.applied) == (0, 0)
    assert outcome.reason == "app-died"
    assert outcome.crashed
    assert outcome.detail == f"{apk.package}: launcher did not start"

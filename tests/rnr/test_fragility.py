"""The fragility study (repro.rnr.fragility)."""

import json

import pytest

from repro.core.config import FragDroidConfig
from repro.core.queue import OpKind
from repro.corpus import demo_tabbed_app
from repro.rnr import run_fragility
from repro.rnr.fragility import CONTROL, plan_mutations
from repro.rnr import ReplayScript
from tests.conftest import make_full_demo_spec


@pytest.fixture(scope="module")
def report():
    return run_fragility(demo_tabbed_app(), seed=7)


def test_control_replays_divergence_free(report):
    assert report.control_ok
    control = next(r for r in report.rows if r.mutation == CONTROL)
    assert control.broken == 0
    assert control.events_applied == control.events_total
    assert control.surviving == control.recorded


def test_mutations_actually_break_scripts(report):
    assert report.breakage_total > 0
    names = [r.mutation for r in report.rows]
    assert names[0] == CONTROL
    assert "rename-widget" in names
    assert "rename-fragment" in names
    assert "add-activity" in names
    assert "shuffle-widget-ids" in names


def test_breakages_name_step_and_reason(report):
    breakages = [b for r in report.rows for b in r.breakages]
    assert breakages
    for breakage in breakages:
        assert breakage["script"]
        assert isinstance(breakage["step"], int)
        assert breakage["reason"]


def test_render_is_a_table(report):
    text = report.render()
    assert "mutation" in text
    assert CONTROL in text
    assert "breakages:" in text


def test_fragility_is_deterministic_under_a_seed(report):
    again = run_fragility(demo_tabbed_app(), seed=7)
    assert again.render() == report.render()
    assert json.dumps(again.to_dict(), sort_keys=True) == \
        json.dumps(report.to_dict(), sort_keys=True)


def test_to_dict_round_trips_through_json(report):
    data = json.loads(json.dumps(report.to_dict()))
    assert data["control_ok"] is True
    assert data["breakage_total"] == report.breakage_total
    assert len(data["rows"]) == len(report.rows)


def test_plan_mutations_is_seeded():
    spec = make_full_demo_spec()
    plans = plan_mutations(spec, [], seed=3)
    again = plan_mutations(make_full_demo_spec(), [], seed=3)
    assert [p.name for p in plans] == [p.name for p in again]
    assert [p.description for p in plans] == \
        [p.description for p in again]
    # Every planned spec still validates and differs from the original.
    for plan in plans:
        assert plan.spec is not spec


def test_plan_prefers_clicked_widgets():
    from repro import Device, FragDroid
    from repro.apk import build_apk

    spec = demo_tabbed_app()
    result = FragDroid(Device()).explore(build_apk(spec))
    scripts = [ReplayScript(c.package, c.operations)
               for c in result.passing_test_cases]
    clicked = {e.target for s in scripts for e in s.events
               if e.kind is OpKind.CLICK}
    plan = next(p for p in plan_mutations(spec, scripts, seed=0)
                if p.name == "rename-widget")
    renamed = plan.description.split(" -> ")[0]
    assert renamed in clicked


def test_custom_event_budget_flows_through():
    report = run_fragility(demo_tabbed_app(), seed=1,
                           config=FragDroidConfig(max_events=50))
    assert report.scripts > 0
    assert report.control_ok


def test_forced_start_suite_replays_on_the_unchanged_app():
    """cnn's suite holds forced-start cases; its control row replays
    divergence-free because replay installs the instrumented package."""
    from repro.corpus import build_table1_app

    report = run_fragility(build_table1_app("com.cnn.mobile.android.phone"),
                           seed=0)
    assert report.control_ok

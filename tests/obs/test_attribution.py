"""The coverage-attribution engine: a typed cause for every miss."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import Device, FragDroid, FragDroidConfig
from repro.apk import build_apk
from repro.bench.parallel import SweepOutcome, explore_many
from repro.corpus import TABLE1_PLANS, AppPlan, build_app
from repro.errors import ReproError, StoreError
from repro.obs import (
    CoverageExplanation,
    EventLog,
    ExplanationStore,
    explain_outcomes,
    explain_result,
    fleet_cause_census,
    newly_unreached,
    render_explanation,
    top_blocking_widgets,
)
from repro.obs.attribution import (
    CAUSE_ACTION_DIVERGED,
    CAUSE_BLOCKED_BY_FAULT,
    CAUSE_FRONTIER_NEVER_EXPANDED,
    CAUSE_UNCLASSIFIED,
    CAUSE_WIDGET_NEVER_CLICKED,
    CAUSE_WORKER_DIED,
    CAUSES,
    EXPLANATION_SCHEMA,
)


def _explore(plan, **config_kwargs):
    config_kwargs.setdefault("event_log", EventLog())
    config = FragDroidConfig(**config_kwargs)
    return FragDroid(Device(), config).explore(build_apk(build_app(plan)))


# -- per-cause classification ------------------------------------------------

def test_fully_explored_app_explains_to_zero_misses():
    result = _explore(AppPlan("com.attr.clean", visited_activities=3,
                              visited_fragments=2))
    explanation = explain_result(result)
    assert explanation.targets == []
    assert explanation.cause_census == {}
    assert explanation.apps[0]["missed"] == 0


def test_login_locked_activity_is_action_diverged():
    result = _explore(AppPlan("com.attr.locked", visited_activities=2,
                              login_locked=1))
    explanation = explain_result(result)
    misses = explanation.miss_targets()
    locked = [m for m in misses if m.kind == "activity"]
    assert locked, "the locked activity must be a miss"
    for miss in locked:
        assert miss.cause == CAUSE_ACTION_DIVERGED
        assert miss.blocking_widget is not None
        assert miss.witness, "a reachable-in-principle miss has a witness"
        assert miss.nearest_visited is not None


def test_budget_exhaustion_is_frontier_never_expanded():
    result = _explore(AppPlan("com.attr.budget", visited_activities=6),
                      max_events=3)
    explanation = explain_result(result)
    frontier = [m for m in explanation.miss_targets()
                if m.cause == CAUSE_FRONTIER_NEVER_EXPANDED]
    assert frontier, "a starved run must blame the budget"
    for miss in frontier:
        assert miss.witness


def test_unbound_popup_listener_is_widget_never_clicked():
    result = _explore(AppPlan("com.attr.popup", visited_activities=2,
                              popup_locked=1))
    explanation = explain_result(result)
    popup = [m for m in explanation.miss_targets()
             if m.kind == "activity"]
    assert popup
    assert {m.cause for m in popup} == {CAUSE_WIDGET_NEVER_CLICKED}


def test_failed_outcomes_roll_up_to_one_app_target():
    outcomes = {
        "com.attr.dead": SweepOutcome(package="com.attr.dead",
                                      fault_kind="worker-died"),
        "com.attr.packed": SweepOutcome(package="com.attr.packed",
                                        fault_kind="packed"),
    }
    explanation = explain_outcomes(outcomes)
    by_package = {m.package: m for m in explanation.miss_targets()}
    assert by_package["com.attr.dead"].cause == CAUSE_WORKER_DIED
    assert by_package["com.attr.packed"].cause == CAUSE_BLOCKED_BY_FAULT
    assert all(not row["ok"] for row in explanation.apps)


def test_table1_corpus_has_zero_unclassified():
    config = FragDroidConfig(event_log=EventLog())
    outcomes = explore_many(config=config, max_workers=2)
    explanation = explain_outcomes(outcomes)
    assert explanation.targets, "the corpus leaves known coverage gaps"
    assert explanation.unclassified() == []
    assert CAUSE_UNCLASSIFIED not in explanation.cause_census


def test_explanations_are_byte_identical_across_backends():
    def sweep(backend):
        config = FragDroidConfig(event_log=EventLog())
        return explore_many(config=config, max_workers=2, backend=backend)

    threaded = explain_outcomes(sweep("thread"))
    processed = explain_outcomes(sweep("process"))
    assert threaded.to_json() == processed.to_json()
    assert threaded.explanation_id == processed.explanation_id
    assert hashlib.sha256(threaded.to_json().encode("utf-8")).hexdigest() \
        == TABLE1_EXPLANATION_SHA256


def test_report_only_static_fields_are_computed_where_they_are_read():
    """A process worker never reads an outcome's sensitive scan or
    view-components JSON, so neither crosses back with its StaticInfo;
    the parent computes each on first read, equal to the thread
    backend's, and explains the sweep byte for byte alike."""
    threaded = explore_many(max_workers=2, backend="thread")
    processed = explore_many(max_workers=2, backend="process")
    fields = {"static_api_map", "view_components_json"}
    for package, outcome in processed.items():
        info = outcome.unwrap().info
        assert not fields & set(info.__dict__), package
        expected = threaded[package].unwrap().info
        for name in sorted(fields):
            assert getattr(info, name) == getattr(expected, name), package
    assert explain_outcomes(processed).to_json() == \
        explain_outcomes(threaded).to_json()


#: sha256 of the event-logged Table-I sweep's explanation JSON, as it
#: was before default runs kept a run record: the record must not move
#: a single verdict of a logged run.
TABLE1_EXPLANATION_SHA256 = (
    "a7525a37cd7e96b22a94efdf11f059fdc07f9ed929075aa79e10c725b50eb3a9")


@pytest.mark.parametrize("plan", TABLE1_PLANS,
                         ids=[plan.package for plan in TABLE1_PLANS])
def test_default_run_explains_like_an_event_logged_run(plan):
    """The classifier reads the run record, which every run keeps: an
    event log adds a consumer, never evidence."""
    apk = build_apk(build_app(plan))
    plain = FragDroid(Device()).explore(apk)
    logged = FragDroid(Device(), FragDroidConfig(event_log=EventLog())
                       ).explore(apk)
    assert explain_result(plain).to_json() == \
        explain_result(logged).to_json()


# -- the artifact ------------------------------------------------------------

def test_explanation_round_trips_and_is_content_addressed():
    result = _explore(AppPlan("com.attr.rt", visited_activities=2,
                              login_locked=1))
    explanation = explain_result(result, label="rt",
                                 source_run_id="feedc0de00000000",
                                 meta={"backend": "thread"})
    clone = CoverageExplanation.from_dict(
        json.loads(explanation.to_json()))
    assert clone.to_json() == explanation.to_json()
    assert clone.explanation_id == explanation.compute_id()
    # meta never feeds the content id.
    clone.meta["created"] = "2026-08-07"
    assert clone.compute_id() == explanation.compute_id()


def test_foreign_schema_is_rejected():
    data = {"schema": EXPLANATION_SCHEMA + 1, "targets": []}
    with pytest.raises(ValueError, match="schema"):
        CoverageExplanation.from_dict(data)


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)

_FIELDS = ("label", "source_run_id", "apps", "targets", "cause_census",
           "meta", "schema", "explanation_id")


def _parse_or_repro_error(data) -> None:
    try:
        CoverageExplanation.from_dict(data)
    except ReproError:
        pass


@settings(max_examples=200, deadline=None)
@given(value=_json)
def test_from_dict_of_any_json_value_parses_or_raises_repro_error(value):
    _parse_or_repro_error(value)


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(_FIELDS), value=_json, drop=st.booleans())
def test_from_dict_of_a_damaged_field_parses_or_raises_repro_error(
        field, value, drop):
    data = CoverageExplanation(
        source_run_id="feedc0de00000000",
        apps=[{"package": "com.a", "ok": True}],
        targets=[{"package": "com.a", "kind": "activity", "name": "A"}],
        cause_census={"no-static-path": 1}).to_dict()
    if drop:
        data.pop(field)
    else:
        data[field] = value
    _parse_or_repro_error(data)


@pytest.mark.parametrize("data", [
    None,
    [],
    {"schema": "one"},
    {"schema": EXPLANATION_SCHEMA, "apps": 3},
    {"schema": EXPLANATION_SCHEMA, "targets": ["row"]},
    {"schema": EXPLANATION_SCHEMA, "meta": "created"},
], ids=["null", "list", "schema-text", "apps-number", "targets-row-text",
        "meta-text"])
def test_from_dict_rejects_malformed_explanations_with_store_error(data):
    with pytest.raises(StoreError):
        CoverageExplanation.from_dict(data)


def test_explain_cli_reports_a_malformed_stored_explanation(tmp_path,
                                                            capsys):
    from repro.cli import main

    stored = tmp_path / "explanations" / "abc123.json"
    stored.parent.mkdir()
    stored.write_text(json.dumps({"schema": EXPLANATION_SCHEMA,
                                  "apps": 3}))
    assert main(["explain", "abc123", "--dir", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "cannot load explanation 'abc123'" in out
    assert "coverage explanation.apps: expected list" in out


# -- the store ---------------------------------------------------------------

def _stored(tmp_path, run_id, label="a"):
    result = _explore(AppPlan(f"com.attr.store.{label}",
                              visited_activities=2, login_locked=1))
    explanation = explain_result(result, label=label, source_run_id=run_id)
    ExplanationStore(tmp_path).save(explanation)
    return explanation


def test_store_saves_and_loads_by_either_id(tmp_path):
    explanation = _stored(tmp_path, "aaaa000011112222")
    store = ExplanationStore(tmp_path)
    assert store.ids() == ["aaaa000011112222"]
    by_run = store.load("aaaa0000")
    assert by_run.to_json() == explanation.to_json()
    by_explanation = store.load(explanation.explanation_id[:8])
    assert by_explanation.to_json() == explanation.to_json()


def test_store_rejects_ambiguous_and_unknown_refs(tmp_path):
    _stored(tmp_path, "aaaa000011112222", label="a")
    _stored(tmp_path, "aaaa999911112222", label="b")
    store = ExplanationStore(tmp_path)
    with pytest.raises(KeyError, match="ambiguous"):
        store.load("aaaa")
    with pytest.raises(KeyError, match="no explanation"):
        store.load("ffff")
    with pytest.raises(ValueError, match="source_run_id"):
        store.save(CoverageExplanation())


# -- rendering ---------------------------------------------------------------

def test_render_lists_census_and_drills_into_one_target():
    result = _explore(AppPlan("com.attr.render", visited_activities=2,
                              login_locked=1))
    explanation = explain_result(result)
    text = render_explanation(explanation)
    assert "cause census:" in text
    assert CAUSE_ACTION_DIVERGED in text
    target = explanation.miss_targets()[0]
    drill = render_explanation(explanation, target=target.simple_name)
    assert "witness path:" in drill
    assert "--[" in drill
    assert "nearest visited ancestor:" in drill
    missing = render_explanation(explanation, target="NoSuchTarget")
    assert "not among the unreached targets" in missing


def test_render_top_truncates_with_a_hint():
    result = _explore(AppPlan("com.attr.top", visited_activities=2,
                              login_locked=2))
    explanation = explain_result(result)
    assert len(explanation.targets) > 1
    text = render_explanation(explanation, top=1)
    assert "more" in text and "--target" in text


# -- fleet aggregation and diffing -------------------------------------------

def test_fleet_census_and_top_blocking_widgets():
    locked = explain_result(_explore(AppPlan(
        "com.attr.fleet.a", visited_activities=2, login_locked=1)))
    popup = explain_result(_explore(AppPlan(
        "com.attr.fleet.b", visited_activities=2, popup_locked=1)))
    census = fleet_cause_census([locked, popup])
    assert census[CAUSE_ACTION_DIVERGED] >= 1
    assert census[CAUSE_WIDGET_NEVER_CLICKED] >= 1
    widgets = top_blocking_widgets([locked, popup])
    assert widgets and widgets[0][1] >= 1
    assert all(count >= 1 for _, count in widgets)


def test_newly_unreached_is_the_set_difference():
    baseline = explain_result(_explore(AppPlan(
        "com.attr.diff", visited_activities=2, login_locked=1)))
    candidate = explain_result(_explore(AppPlan(
        "com.attr.diff", visited_activities=2, login_locked=2)))
    fresh = newly_unreached(baseline, candidate)
    assert fresh, "the extra locked activity regressed"
    before = {(t.package, t.kind, t.name)
              for t in baseline.miss_targets()}
    assert all((t.package, t.kind, t.name) not in before for t in fresh)
    assert newly_unreached(candidate, candidate) == []


def test_cause_taxonomy_is_closed_and_ranked():
    assert CAUSES[-1] == CAUSE_UNCLASSIFIED
    assert len(set(CAUSES)) == len(CAUSES)

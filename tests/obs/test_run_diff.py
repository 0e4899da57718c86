"""Structured diffs between run records (repro.obs.diff)."""

import json

from repro.obs import RecordDiff, RunRecord, diff_records
from repro.obs.diff import (
    APPEARED,
    SHIFTED,
    STEADY,
    VANISHED,
    Delta,
    diff_numeric,
)


def record(**overrides):
    r = RunRecord(label=overrides.pop("label", "sweep"), **overrides)
    r.run_id = r.compute_id()
    return r


# ---------------------------------------------------------------------------
# Delta semantics
# ---------------------------------------------------------------------------

def test_delta_statuses():
    assert Delta("k", None, 2.0).status == APPEARED
    assert Delta("k", 2.0, None).status == VANISHED
    assert Delta("k", 2.0, 2.0).status == STEADY
    assert Delta("k", 100.0, 100.5, tolerance=0.01).status == STEADY
    assert Delta("k", 100.0, 105.0, tolerance=0.01).status == SHIFTED
    # Exactly-zero baseline: no relative change, but a move off zero is
    # a shift, not noise.
    zero = Delta("k", 0.0, 3.0, tolerance=0.01)
    assert zero.rel is None
    assert zero.status == SHIFTED
    assert Delta("k", 100.0, 105.0).delta == 5.0
    assert Delta("k", None, 2.0).delta is None
    assert Delta("k", 100.0, 95.0).rel == -0.05


def test_diff_numeric_takes_the_key_union():
    deltas = diff_numeric({"a": 1.0, "b": 2.0}, {"b": 2.0, "c": 3.0})
    assert [(d.key, d.status) for d in deltas] == [
        ("a", VANISHED), ("b", STEADY), ("c", APPEARED)]


# ---------------------------------------------------------------------------
# Record diffs
# ---------------------------------------------------------------------------

def make_pair():
    baseline = record(
        config={"max_events": 8000},
        corpus_digest="aaa",
        apps=[{"package": "app.one", "activities_visited": 4,
               "activities_sum": 5, "fragments_visited": 2,
               "fragments_sum": 3, "apis": 7, "events": 40, "crashes": 0},
              {"package": "app.gone", "activities_visited": 1,
               "activities_sum": 1}],
        coverage={"mean_activity_rate": 0.8, "apis": 8.0},
        counters={"sweep.apps": 2.0, "faults.injected": 3.0},
        phases={"explore": {"count": 2, "self_total_s": 2.0},
                "static": {"count": 2, "self_total_s": 1.0}},
    )
    candidate = record(
        config={"max_events": 8000},
        corpus_digest="aaa",
        apps=[{"package": "app.one", "activities_visited": 3,
               "activities_sum": 5, "fragments_visited": 2,
               "fragments_sum": 3, "apis": 7, "events": 40, "crashes": 0},
              {"package": "app.new", "activities_visited": 2,
               "activities_sum": 2}],
        coverage={"mean_activity_rate": 0.6, "apis": 8.0},
        counters={"sweep.apps": 2.0, "retries": 1.0},
        phases={"explore": {"count": 2, "self_total_s": 2.0},
                "static": {"count": 2, "self_total_s": 1.4}},
    )
    return baseline, candidate


def test_diff_records_sections_and_statuses():
    baseline, candidate = make_pair()
    diff = diff_records(baseline, candidate)
    assert diff.comparable
    assert diff.notes == []

    changed = diff.changed()
    assert [d.key for d in changed["coverage"]] == ["mean_activity_rate"]
    assert {d.key: d.status for d in changed["counters"]} == {
        "faults.injected": VANISHED, "retries": APPEARED}
    assert {a.package: a.status for a in changed["apps"]} == {
        "app.gone": VANISHED, "app.new": APPEARED, "app.one": SHIFTED}
    assert [d.key for d in changed["phase_time"]] == ["static"]


def test_diff_flags_incomparable_config_and_corpus():
    baseline, candidate = make_pair()
    candidate.config = {"max_events": 4000}
    candidate.corpus_digest = "bbb"
    diff = diff_records(baseline, candidate)
    assert not diff.comparable
    assert not diff.same_config and not diff.same_corpus
    assert any("max_events" in note for note in diff.notes)
    assert any("corpus digests differ" in note for note in diff.notes)
    # An empty digest on one side is "unknown", not a mismatch.
    candidate.corpus_digest = ""
    assert diff_records(baseline, candidate).same_corpus


def test_identical_records_render_as_no_changes():
    baseline, _ = make_pair()
    diff = diff_records(baseline, baseline)
    assert diff.changed() == {"coverage": [], "counters": [], "apps": [],
                              "phase_time": []}
    assert "no changes outside tolerance" in diff.render_text()


def test_render_text_and_json_round_trip():
    baseline, candidate = make_pair()
    diff = diff_records(baseline, candidate)
    text = diff.render_text()
    assert f"vs baseline {baseline.run_id}" in text
    assert "mean_activity_rate" in text
    assert "-25.0%" in text  # 0.8 -> 0.6
    assert "app.gone" in text and "vanished" in text
    full = diff.render_text(changed_only=False)
    assert "apis" in full  # steady entries appear in the full rendering
    data = json.loads(json.dumps(diff.to_dict()))
    assert data["comparable"] is True
    assert isinstance(diff, RecordDiff)

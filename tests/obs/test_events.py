"""The flight recorder: EventLog, the null log, and persistence."""

import json

from repro.obs import (
    EVENT_KINDS,
    NULL_EVENT_LOG,
    Event,
    EventLog,
    InMemorySink,
    JsonlSink,
    event_census,
    read_events,
)
from repro.obs.events import (
    ALL_EVENT_KINDS,
    ATTRIBUTION_EVENT_KINDS,
    EXPLORATION_EVENT_KINDS,
    SERVE_EVENT_KINDS,
    STATE_DISCOVERED,
    WIDGET_CLICKED,
)


def test_emit_assigns_monotonic_sequence_numbers():
    log = EventLog()
    first = log.emit(STATE_DISCOVERED, step=3, app="com.a", name="A")
    second = log.emit(WIDGET_CLICKED, step=5, app="com.a", widget="w")
    assert (first.seq, second.seq) == (1, 2)
    assert second.wall >= first.wall >= 0.0
    assert first.attributes == {"name": "A"}


def test_events_filter_by_app():
    log = EventLog()
    log.emit(STATE_DISCOVERED, app="com.a", name="A")
    log.emit(STATE_DISCOVERED, app="com.b", name="B")
    log.emit(WIDGET_CLICKED, app="com.a", widget="w")
    assert len(log.events()) == 3
    assert [e.attributes["name"] for e in log.events(app="com.a")
            if e.kind == STATE_DISCOVERED] == ["A"]
    assert len(log.events(app="com.b")) == 1


def test_census_counts_by_kind():
    log = EventLog()
    log.emit(STATE_DISCOVERED, name="A")
    log.emit(STATE_DISCOVERED, name="B")
    log.emit(WIDGET_CLICKED, widget="w")
    assert event_census(log.events()) == {STATE_DISCOVERED: 2,
                                          WIDGET_CLICKED: 1}


def test_bound_view_stamps_and_keeps_only_its_own_events():
    sink = InMemorySink()
    log = EventLog(sinks=[sink])
    view = log.bind(job="j1")
    log.emit(STATE_DISCOVERED, app="com.a", name="before")
    mine = view.emit(STATE_DISCOVERED, app="com.a", name="A")
    other = log.bind(job="j2").emit(WIDGET_CLICKED, app="com.a", widget="w")
    absorbed = view.absorb([Event(seq=99, kind=WIDGET_CLICKED, app="com.a",
                                  wall=1.5, attributes={"widget": "v"})])
    # One sequence, one storage, one set of sinks for the log and views.
    assert [e.seq for e in log.events()] == [1, 2, 3, 4]
    assert [e.seq for e in sink.spans] == [1, 2, 3, 4]
    assert mine.attributes == {"name": "A", "job": "j1"}
    assert other.attributes == {"widget": "w", "job": "j2"}
    assert absorbed[0].seq == 4 and absorbed[0].wall == 1.5
    assert absorbed[0].attributes == {"widget": "v", "job": "j1"}
    # The view reads back only what it recorded.
    assert [e.seq for e in view.events()] == [2, 4]
    assert [e.seq for e in view.events(app="com.a")] == [2, 4]
    assert NULL_EVENT_LOG.bind(job="j1") is NULL_EVENT_LOG


def test_run_record_forwards_to_an_enabled_log():
    sink = InMemorySink()
    log = EventLog(sinks=[sink])
    log.emit(STATE_DISCOVERED, app="com.other", name="X")
    record = log.bind(job="j1").run_record("com.a")
    first = record.emit(STATE_DISCOVERED, step=2, name="A")
    second = record.emit(WIDGET_CLICKED, step=3, app="com.b", widget="w")
    # The record holds the log's own objects: same seq, app filed,
    # the job stamp applied, every sink fed.
    assert record.events() == [first, second]
    assert log.events()[1:] == [first, second]
    assert [e.seq for e in sink.spans] == [1, 2, 3]
    assert (first.app, second.app) == ("com.a", "com.b")
    assert first.attributes == {"name": "A", "job": "j1"}


def test_run_record_over_the_null_log_is_private():
    record = NULL_EVENT_LOG.run_record("com.a")
    first = record.emit(STATE_DISCOVERED, step=2, name="A")
    second = record.emit(WIDGET_CLICKED, step=3, widget="w")
    assert [e.seq for e in record.events()] == [1, 2]
    assert (first.app, second.app) == ("com.a", "com.a")
    assert record.sinks == []
    # Nothing leaks into the shared null log.
    assert NULL_EVENT_LOG.events() == []


def test_null_event_log_is_disabled_and_records_nothing():
    assert NULL_EVENT_LOG.enabled is False
    event = NULL_EVENT_LOG.emit(STATE_DISCOVERED, step=9, name="A")
    assert event.seq == 0
    assert NULL_EVENT_LOG.events() == []
    assert EventLog().enabled is True


def test_event_round_trip_via_jsonl(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(sinks=[JsonlSink(path)])
    log.emit(STATE_DISCOVERED, step=7, app="com.a",
             component="fragment", name="F", hosts=["A"])
    log.emit(WIDGET_CLICKED, step=9, app="com.a", widget="btn")
    log.close()

    loaded = read_events(path)
    assert len(loaded) == 2
    for got, want in zip(loaded, log.events()):
        assert got.seq == want.seq
        assert got.kind == want.kind
        assert got.step == want.step
        assert got.app == want.app
        assert got.attributes == want.attributes


def test_jsonl_lines_are_flushed_before_close(tmp_path):
    # The crash-durability property: the line must be on disk as soon
    # as emit returns, not when the sink is closed.
    path = tmp_path / "events.jsonl"
    log = EventLog(sinks=[JsonlSink(path)])
    log.emit(STATE_DISCOVERED, step=1, name="A")
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["kind"] == STATE_DISCOVERED
    log.close()


def test_all_kind_constants_are_registered():
    # The grouped tuples are the single source of truth; the frozenset
    # is derived from their concatenation, so the registry cannot drift.
    assert STATE_DISCOVERED in EVENT_KINDS
    assert EVENT_KINDS == frozenset(ALL_EVENT_KINDS)
    assert len(ALL_EVENT_KINDS) == len(EVENT_KINDS), "duplicate kind"
    assert ALL_EVENT_KINDS == (EXPLORATION_EVENT_KINDS
                               + SERVE_EVENT_KINDS
                               + ATTRIBUTION_EVENT_KINDS)
    for kind in ALL_EVENT_KINDS:
        assert kind == kind.lower()


def test_from_dict_tolerates_minimal_records():
    event = Event.from_dict({"seq": 4, "kind": "transition"})
    assert event.step == 0
    assert event.app == ""
    assert event.attributes == {}

"""Coverage-over-time analytics on synthetic and real flight records."""

from repro import Device, FragDroid, FragDroidConfig
from repro.apk import build_apk
from repro.core.artifacts import coverage_curve
from repro.corpus import build_table1_app, table1_packages
from repro.obs import (
    EventLog,
    coverage_timeline,
    discovery_stats,
    stalls,
    time_to_fraction,
)
from repro.obs.events import API_OBSERVED, RUN_END, STATE_DISCOVERED, Event


def _event(seq, kind, step, **attrs):
    return Event(seq=seq, kind=kind, step=step, attributes=attrs)


def _discovery_record():
    return [
        _event(1, STATE_DISCOVERED, 2, component="activity", name="A"),
        _event(2, API_OBSERVED, 3, api="net/openConnection"),
        _event(3, STATE_DISCOVERED, 5, component="fragment", name="F1",
               hosts=["A"]),
        _event(4, STATE_DISCOVERED, 9, component="fragment", name="F2",
               hosts=["B"]),
        _event(5, STATE_DISCOVERED, 11, component="activity", name="B"),
        _event(6, RUN_END, 80, termination="queue-drained"),
    ]


def test_coverage_timeline_checkpoints_and_fivas():
    points = coverage_timeline(_discovery_record())
    assert [p.to_dict() for p in points] == [
        {"step": 0, "activities": 0, "fragments": 0, "fivas": 0, "apis": 0},
        {"step": 2, "activities": 1, "fragments": 0, "fivas": 0, "apis": 0},
        # F1's host A is visited -> FIVA; the API at step 3 now counts.
        {"step": 5, "activities": 1, "fragments": 1, "fivas": 1, "apis": 1},
        # F2's host B is not visited yet -> not a FIVA.
        {"step": 9, "activities": 1, "fragments": 2, "fivas": 1, "apis": 1},
        # Visiting B promotes F2 to FIVA retroactively.
        {"step": 11, "activities": 2, "fragments": 2, "fivas": 2, "apis": 1},
    ]


def test_stalls_detects_plateaus_including_the_terminal_one():
    found = stalls(_discovery_record(), min_events=10)
    # Only one gap of >= 10 events: the terminal 11 -> 80 plateau.
    assert [(s.start_step, s.end_step, s.events) for s in found] == \
        [(11, 80, 69)]
    # At a lower threshold the longest plateau still sorts first.
    found = stalls(_discovery_record(), min_events=4)
    assert found[0].events == 69
    assert (found[1].start_step, found[1].end_step) == (5, 9)


def test_time_to_fraction_and_discovery_stats():
    points = coverage_timeline(_discovery_record())
    assert time_to_fraction(points, "activities", 0.5) == 2
    assert time_to_fraction(points, "activities", 0.9) == 11
    assert time_to_fraction(points, "fragments", 0.5) == 5
    stats = discovery_stats(_discovery_record())
    assert stats["activities_t50"] == 2
    assert stats["activities_t90"] == 11
    assert stats["apis_t50"] == 5  # first checkpoint with the API counted


def test_time_to_fraction_empty_series():
    assert time_to_fraction([], "activities", 0.5) is None
    points = coverage_timeline([_event(1, RUN_END, 10)])
    assert time_to_fraction(points, "apis", 0.5) is None


def test_zero_event_run_degenerates_to_the_origin():
    # A run that recorded nothing still yields a well-formed curve
    # (the origin point), no stalls, and all-None discovery stats.
    points = coverage_timeline([])
    assert [p.to_dict() for p in points] == [
        {"step": 0, "activities": 0, "fragments": 0, "fivas": 0, "apis": 0},
    ]
    assert stalls([]) == []
    stats = discovery_stats([])
    assert stats == {key: None for key in stats}


def test_single_checkpoint_curve_reaches_every_fraction_at_once():
    # One discovery and nothing else: every threshold of the series is
    # met at that single checkpoint's step; untouched series stay None.
    events = [_event(1, STATE_DISCOVERED, 7, component="activity",
                     name="A")]
    points = coverage_timeline(events)
    assert len(points) == 2
    for fraction in (0.1, 0.5, 0.9, 1.0):
        assert time_to_fraction(points, "activities", fraction) == 7
    assert time_to_fraction(points, "fragments", 0.5) is None
    # The only plateau is the lead-in (0 -> 7): nothing follows the
    # discovery, so there is no terminal stretch to count.
    assert [(s.start_step, s.end_step) for s in stalls(events,
                                                       min_events=1)] \
        == [(0, 7)]


def test_all_events_in_one_tick_only_stalls_on_the_lead_in():
    # Every event landing on the same step means zero-width gaps: the
    # only plateau left is the lead-in (0 -> 4), and raising the
    # threshold past it leaves nothing.
    events = [
        _event(1, STATE_DISCOVERED, 4, component="activity", name="A"),
        _event(2, STATE_DISCOVERED, 4, component="fragment", name="F",
               hosts=["A"]),
        _event(3, API_OBSERVED, 4, api="net/openConnection"),
        _event(4, RUN_END, 4, termination="queue-drained"),
    ]
    assert [(s.start_step, s.end_step) for s in stalls(events,
                                                       min_events=1)] \
        == [(0, 4)]
    assert stalls(events, min_events=5) == []
    points = coverage_timeline(events)
    assert [(p.step, p.activities, p.fragments, p.fivas) for p in points] \
        == [(0, 0, 0, 0), (4, 1, 0, 0), (4, 1, 1, 1)]
    stats = discovery_stats(events)
    assert stats["activities_t50"] == 4
    assert stats["fivas_t90"] == 4


def test_stall_threshold_boundary_is_inclusive():
    # A gap of exactly min_events counts; one event fewer does not.
    events = [
        _event(1, STATE_DISCOVERED, 10, component="activity", name="A"),
        _event(2, RUN_END, 20, termination="budget-exhausted"),
    ]
    assert [(s.start_step, s.end_step) for s in stalls(events,
                                                       min_events=10)] \
        == [(0, 10), (10, 20)]
    assert stalls(events, min_events=11) == []


def test_event_curve_matches_trace_curve_on_a_real_run():
    # The acceptance invariant: the record's curve steps exactly at the
    # trace's visit lines, and an event log does not change it.
    package = table1_packages()[0]
    apk = build_apk(build_table1_app(package))
    result = FragDroid(Device()).explore(apk)
    visits = [e for e in result.trace if e.kind == "visit"]
    points = coverage_timeline(result.events)
    assert [p.step for p in points] == [0] + [e.step for e in visits]
    assert points[-1].activities == sum(
        1 for e in visits if e.detail.startswith("activity "))
    logged = FragDroid(Device(), FragDroidConfig(event_log=EventLog())
                       ).explore(apk)
    assert coverage_curve(logged) == coverage_curve(result)

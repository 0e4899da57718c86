"""WidgetQuarantine: the circuit breaker for chronically bad widgets."""

from repro.faults import WidgetQuarantine


def test_trips_at_threshold_and_blocks():
    q = WidgetQuarantine(threshold=3)
    assert not q.record("btn_flaky", "hang")
    assert not q.record("btn_flaky", "hang")
    assert q.record("btn_flaky", "crash")  # third strike trips
    assert q.blocked("btn_flaky")
    assert len(q) == 1


def test_strikes_are_per_widget():
    q = WidgetQuarantine(threshold=2)
    q.record("a", "hang")
    q.record("b", "hang")
    assert not q.blocked("a") and not q.blocked("b")
    assert q.record("a", "hang")
    assert q.blocked("a") and not q.blocked("b")
    assert q.strikes("a") == 2 and q.strikes("b") == 1


def test_reason_remembers_the_tripping_strike():
    q = WidgetQuarantine(threshold=1)
    q.record("w", "crash")
    assert q.reason("w") == "crash"
    assert q.reason("never-seen") == ""


def test_trip_reported_once():
    q = WidgetQuarantine(threshold=2)
    q.record("w", "hang")
    assert q.record("w", "hang")       # trips now
    assert not q.record("w", "hang")   # already tripped: not a new trip
    assert q.strikes("w") == 3


def test_inactive_quarantine_never_blocks():
    q = WidgetQuarantine(threshold=1, active=False)
    for _ in range(5):
        assert not q.record("w", "hang")
    assert not q.blocked("w")
    assert len(q) == 0

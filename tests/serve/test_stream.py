"""The SSE broker: per-job history, matching, bounded buffers, cleanup."""

from repro.obs.events import Event, EventLog
from repro.obs.metrics import Metrics
from repro.serve import EventBroker, Subscription, event_matches


def _event(seq, kind="job.state", app="", **attributes):
    return Event(seq=seq, kind=kind, step=0, wall=float(seq),
                 app=app, attributes=attributes)


def test_event_matches_prefers_the_job_stamp():
    assert event_matches(_event(1, app="com.a", job="j1"), "j1")
    assert not event_matches(_event(1, app="com.a", job="j2"), "j1")
    # No stamp: not the job's, even for an app the job explores (an
    # unstamped event for the app belongs to some other run).
    assert not event_matches(_event(2, app="com.a"), "j1")


def test_broker_fans_out_only_to_matching_subscriptions():
    broker = EventBroker()
    mine, _ = broker.subscribe("j1")
    other, _ = broker.subscribe("j2")
    broker.emit(_event(1, app="com.a", job="j1"))
    broker.emit(_event(2, app="com.a"))  # unstamped: nobody's
    broker.emit(_event(3, job="j2"))
    assert mine.pending() == 1
    assert other.pending() == 1
    assert mine.get(timeout=0.1).seq == 1
    assert mine.get(timeout=0.01) is None  # quiet stream -> heartbeat
    assert [e.seq for e in broker.history("j1")] == [1]
    assert broker.history("unknown") == []


def test_subscribe_snapshots_the_backlog_after_a_seq():
    broker = EventBroker()
    for seq in range(1, 5):
        broker.emit(_event(seq, job="j1"))
    subscription, backlog = broker.subscribe("j1", after=2)
    assert [e.seq for e in backlog] == [3, 4]
    assert subscription.pending() == 0  # the backlog is not re-queued
    broker.emit(_event(5, job="j1"))
    assert subscription.get(timeout=0.1).seq == 5
    assert [e.seq for e in broker.history("j1")] == [1, 2, 3, 4, 5]


def test_broker_attaches_to_an_event_log_as_a_sink():
    broker = EventBroker()
    log = EventLog(sinks=[broker])
    subscription, _ = broker.subscribe("j1")
    log.emit("job.state", job="j1", state="running")
    got = subscription.get(timeout=0.1)
    assert got is not None and got.attributes["state"] == "running"


def test_slow_client_overflows_and_stops_receiving():
    metrics = Metrics()
    broker = EventBroker(metrics=metrics, buffer=2)
    slow, _ = broker.subscribe("j1")
    for seq in range(1, 6):
        broker.emit(_event(seq, job="j1"))
    assert slow.overflowed is True
    assert slow.pending() == 2  # bounded: nothing past the buffer
    # Drops are counted once per discarded event.
    assert metrics.snapshot()["counters"]["serve.sse.dropped"] == 3
    # An overflowed subscription refuses further events outright.
    assert slow.offer(_event(9, job="j1")) is False


def test_unsubscribe_is_idempotent_and_leaves_no_buffer_behind():
    metrics = Metrics()
    broker = EventBroker(metrics=metrics)
    subscription, _ = broker.subscribe("j1")
    assert broker.subscriber_count() == 1
    broker.unsubscribe(subscription)
    broker.unsubscribe(subscription)  # second detach is a no-op
    assert broker.subscriber_count() == 0
    assert subscription.closed is True
    assert subscription.offer(_event(1, job="j1")) is False
    broker.emit(_event(2, job="j1"))  # nobody buffers it
    assert subscription.pending() == 0
    counters = metrics.snapshot()["counters"]
    assert counters["serve.sse.subscribed"] == 1
    assert counters["serve.sse.unsubscribed"] == 1


def test_emit_with_no_subscribers_is_a_no_op():
    broker = EventBroker()
    broker.emit(_event(1, job="j1"))  # must not raise or buffer
    assert broker.subscriber_count() == 0


def test_subscription_buffer_floor_is_one():
    subscription = Subscription("j1", buffer=0)
    assert subscription.offer(_event(1, job="j1")) is True
    assert subscription.offer(_event(2, job="j1")) is False
    assert subscription.overflowed is True

"""The SSE broker: per-job history, matching, bounded buffers, cleanup."""

import threading

import pytest

from repro.errors import StoreError
from repro.obs.events import Event, EventLog
from repro.obs.metrics import Metrics
from repro.serve import EventBroker, Subscription, event_matches
from repro.serve import stream
from repro.serve.stream import Filed


def _event(seq, kind="job.state", app="", **attributes):
    return Event(seq=seq, kind=kind, step=0, wall=float(seq),
                 app=app, attributes=attributes)


def test_event_matches_prefers_the_job_stamp():
    assert event_matches(_event(1, app="com.a", job="j1"), "j1")
    assert not event_matches(_event(1, app="com.a", job="j2"), "j1")
    # No stamp: not the job's, even for an app the job explores (an
    # unstamped event for the app belongs to some other run).
    assert not event_matches(_event(2, app="com.a"), "j1")


def test_broker_fans_out_only_to_matching_subscriptions(tmp_path):
    broker = EventBroker(tmp_path)
    mine, _ = broker.subscribe("j1")
    other, _ = broker.subscribe("j2")
    broker.emit(_event(1, app="com.a", job="j1"))
    broker.emit(_event(2, app="com.a"))  # unstamped: nobody's
    broker.emit(_event(3, job="j2"))
    assert mine.pending() == 1
    assert other.pending() == 1
    assert mine.get(timeout=0.1).event.seq == 1
    assert mine.get(timeout=0.01) is None  # quiet stream -> heartbeat
    assert [f.event.seq for f in broker.history("j1")] == [1]
    assert broker.history("unknown") == []


def test_subscribe_snapshots_the_backlog_after_a_seq(tmp_path):
    broker = EventBroker(tmp_path)
    for seq in range(1, 5):
        broker.emit(_event(seq, job="j1"))
    subscription, backlog = broker.subscribe("j1", after=2)
    assert [f.event.seq for f in backlog] == [3, 4]
    assert subscription.pending() == 0  # the backlog is not re-queued
    broker.emit(_event(5, job="j1"))
    assert subscription.get(timeout=0.1).event.seq == 5
    assert [f.event.seq for f in broker.history("j1")] == [1, 2, 3, 4, 5]


def test_broker_attaches_to_an_event_log_as_a_sink(tmp_path):
    broker = EventBroker(tmp_path)
    log = EventLog(sinks=[broker])
    subscription, _ = broker.subscribe("j1")
    log.emit("job.state", job="j1", state="running")
    got = subscription.get(timeout=0.1)
    assert got is not None and got.event.attributes["state"] == "running"


def test_slow_client_overflows_and_stops_receiving(tmp_path):
    metrics = Metrics()
    broker = EventBroker(tmp_path, metrics=metrics, buffer=2)
    slow, _ = broker.subscribe("j1")
    for seq in range(1, 6):
        broker.emit(_event(seq, job="j1"))
    assert slow.overflowed is True
    assert slow.pending() == 2  # bounded: nothing past the buffer
    # Drops are counted once per discarded event.
    assert metrics.snapshot()["counters"]["serve.sse.dropped"] == 3
    # An overflowed subscription refuses further events outright.
    assert slow.offer(Filed.encode(_event(9, job="j1"))) is False


def test_unsubscribe_is_idempotent_and_leaves_no_buffer_behind(tmp_path):
    metrics = Metrics()
    broker = EventBroker(tmp_path, metrics=metrics)
    subscription, _ = broker.subscribe("j1")
    assert broker.subscriber_count() == 1
    broker.unsubscribe(subscription)
    broker.unsubscribe(subscription)  # second detach is a no-op
    assert broker.subscriber_count() == 0
    assert subscription.closed is True
    assert subscription.offer(Filed.encode(_event(1, job="j1"))) is False
    broker.emit(_event(2, job="j1"))  # nobody buffers it
    assert subscription.pending() == 0
    counters = metrics.snapshot()["counters"]
    assert counters["serve.sse.subscribed"] == 1
    assert counters["serve.sse.unsubscribed"] == 1


def test_emit_with_no_subscribers_is_a_no_op(tmp_path):
    broker = EventBroker(tmp_path)
    broker.emit(_event(1, job="j1"))  # must not raise or buffer
    assert broker.subscriber_count() == 0


def test_subscription_buffer_floor_is_one():
    subscription = Subscription("j1", buffer=0)
    assert subscription.offer(Filed.encode(_event(1, job="j1"))) is True
    assert subscription.offer(Filed.encode(_event(2, job="j1"))) is False
    assert subscription.overflowed is True


def test_release_spills_the_history_and_later_reads_serve_the_file(
        tmp_path):
    broker = EventBroker(tmp_path)
    for seq in range(1, 4):
        broker.emit(_event(seq, job="j1", note="ünïcode line"))
    broker.emit(_event(4, job="j2"))
    before = [f.text for f in broker.history("j1")]
    broker.release("j1")
    assert broker._history.keys() == {"j2"}
    spilled = (tmp_path / "j1.events.jsonl").read_text(encoding="utf-8")
    assert spilled == "".join(text + "\n" for text in before)
    assert [f.text for f in broker.history("j1")] == before
    _, backlog = broker.subscribe("j1", after=1)
    assert [(f.event.seq, f.text) for f in backlog] == \
        [(2, before[1]), (3, before[2])]
    assert broker.history("never-seen") == []


def test_a_damaged_spill_line_is_a_store_error_naming_its_line(tmp_path):
    broker = EventBroker(tmp_path)
    for seq in (1, 2):
        broker.emit(_event(seq, job="j1"))
    broker.release("j1")
    path = tmp_path / "j1.events.jsonl"
    first, second = path.read_text(encoding="utf-8").splitlines()
    path.write_text(f"{first}\n{second[:-5]}\n", encoding="utf-8")
    with pytest.raises(StoreError, match=r"j1\.events\.jsonl:2: malformed"):
        broker.history("j1")


def test_a_failed_spill_keeps_the_history_in_memory(tmp_path):
    metrics = Metrics()
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    broker = EventBroker(blocker, metrics=metrics)
    broker.emit(_event(1, job="j1"))
    broker.release("j1")
    assert [f.event.seq for f in broker.history("j1")] == [1]
    assert metrics.snapshot()["counters"]["serve.spill.failed"] == 1


def test_release_writes_outside_the_lock_and_keeps_what_is_filed_meanwhile(
        tmp_path, monkeypatch):
    """Other jobs emit while a spill is being written; an event the
    released job files during the write is spilled too."""
    broker = EventBroker(tmp_path)
    broker.emit(_event(1, job="j1"))
    write = stream.atomic_write
    during = []

    def write_while_emitting(path, text):
        if not during:
            for event in (_event(2, job="j2"), _event(3, job="j1")):
                emitter = threading.Thread(target=broker.emit,
                                           args=(event,))
                emitter.start()
                emitter.join(timeout=10.0)
                during.append(not emitter.is_alive())
        write(path, text)

    monkeypatch.setattr(stream, "atomic_write", write_while_emitting)
    broker.release("j1")
    assert during == [True, True]  # neither emit waited on the write
    assert broker._history.keys() == {"j2"}
    assert [f.event.seq for f in broker.history("j1")] == [1, 3]


def test_a_second_release_extends_the_spill_file(tmp_path):
    broker = EventBroker(tmp_path)
    broker.emit(_event(1, job="j1"))
    broker.release("j1")
    broker.emit(_event(2, job="j1"))  # reaches the job after its release
    broker.release("j1")
    assert [f.event.seq for f in broker.history("j1")] == [1, 2]

"""The HTTP/JSON front door, end to end over a real socket."""

import threading

import pytest

from repro.bench.parallel import explore_many
from repro.obs.registry import RunRegistry
from repro.obs.sinks import InMemorySink
from repro.serve import JobLimits, ReproServer, ServeClient, ServeClientError
from tests.conftest import wait_until
from tests.serve.test_scheduler import WatchedJob

ALPHA = "com.serve.demo.alpha"
BETA = "com.serve.demo.beta"


@pytest.fixture
def server(tmp_path):
    instance = ReproServer(journal_dir=tmp_path / "journal",
                           registry_dir=tmp_path / "runs", port=0)
    instance.start()
    yield instance
    instance.stop(timeout=2.0)


@pytest.fixture
def client(server):
    return ServeClient(server.url, timeout_s=10.0)


def test_submit_runs_to_done_and_lands_in_registry(server, client):
    job = client.submit([ALPHA, BETA], max_events=200)
    assert job["state"] in ("admitted", "running")
    done = client.wait(job["job_id"], timeout_s=60.0)
    assert done["state"] == "done"
    assert sorted(done["completed"]) == [ALPHA, BETA]
    assert all(row["ok"] for row in done["completed"].values())

    records = RunRegistry(server.registry.directory).list()
    assert len(records) == 1
    assert records[0].run_id == done["run_id"]
    assert records[0].meta["job_id"] == job["job_id"]

    events = client.logs(job["job_id"])
    kinds = {event["kind"] for event in events}
    assert "job.state" in kinds and "job.app.done" in kinds

    health = client.health()
    assert health["ok"] is True
    assert health["jobs"]["done"] == 1
    assert client.metrics()["counters"]["serve.admitted"] == 1
    assert any(row["job_id"] == job["job_id"] for row in client.jobs())


def test_error_statuses_are_typed(server, client):
    with pytest.raises(ServeClientError) as excinfo:
        client.submit([ALPHA], bogus_knob=3)
    assert excinfo.value.status == 400
    assert excinfo.value.kind == "AdmissionError"

    with pytest.raises(ServeClientError) as excinfo:
        client.submit(["com.not.a.known.app"])
    assert excinfo.value.status == 400

    with pytest.raises(ServeClientError) as excinfo:
        client.submit([ALPHA], max_events=10**9)
    assert excinfo.value.status == 400
    assert excinfo.value.kind == "JobBudgetError"

    with pytest.raises(ServeClientError) as excinfo:
        client.job("feedfacecafe")
    assert excinfo.value.status == 404
    assert excinfo.value.kind == "UnknownJobError"
    # No job was admitted, and no rejected submit's span stays behind.
    assert client.jobs() == []
    assert server.tracer.finished_spans() == []


def test_cancel_done_job_conflicts(client):
    job = client.submit([ALPHA], max_events=200)
    done = client.wait(job["job_id"], timeout_s=60.0)
    with pytest.raises(ServeClientError) as excinfo:
        client.cancel(done["job_id"])
    assert excinfo.value.status == 409
    assert excinfo.value.kind == "JobStateError"


def test_a_damaged_spill_file_is_a_typed_500(server, client):
    """A released job's logs come from its spill file; a damaged line
    there answers a typed 500 naming it, and the service keeps going."""
    job_id = client.submit([ALPHA], max_events=200)["job_id"]
    assert client.wait(job_id, timeout_s=60.0)["state"] == "done"
    spill = server.broker.spill_path(job_id)
    assert wait_until(spill.exists)
    lines = spill.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = lines[1][:len(lines[1]) // 2] + "\n"
    spill.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ServeClientError) as excinfo:
        client.logs(job_id)
    assert excinfo.value.status == 500
    assert excinfo.value.kind == "StoreError"
    assert f"{job_id}.events.jsonl:2" in str(excinfo.value)
    assert client.health()["ok"] is True


def test_unreachable_service_reports_transport_failure():
    client = ServeClient("http://127.0.0.1:1", timeout_s=2.0)
    with pytest.raises(ServeClientError) as excinfo:
        client.health()
    assert excinfo.value.status == 0
    assert "repro serve" in str(excinfo.value)


def test_full_queue_returns_429_and_cancel_drains(tmp_path):
    """Backpressure over the wire: a held scheduler, a bounded queue,
    a typed 429 — then cancelling the queued job frees the slot."""
    gate = threading.Event()

    def held_sweep(plans, config=None, max_workers=None, backend=None):
        gate.wait(30.0)
        return explore_many(plans, config=config, max_workers=1,
                            backend="thread")

    server = ReproServer(journal_dir=tmp_path / "journal",
                         registry_dir=tmp_path / "runs", port=0,
                         limits=JobLimits(queue_depth=1),
                         sweep_fn=held_sweep)
    server.start()
    try:
        client = ServeClient(server.url, timeout_s=10.0)
        running = client.submit([ALPHA], max_events=200)
        # Wait for the scheduler to pick it up and block in the sweep.
        for _ in range(200):
            if client.job(running["job_id"])["state"] == "running":
                break
            threading.Event().wait(0.02)
        queued = client.submit([BETA], max_events=200)
        with pytest.raises(ServeClientError) as excinfo:
            client.submit([BETA], max_events=200)
        assert excinfo.value.status == 429
        assert excinfo.value.kind == "QueueFullError"
        assert client.metrics()["counters"]["serve.rejected.queue_full"] == 1

        cancelled = client.cancel(queued["job_id"])
        assert cancelled["state"] == "cancelled"
        client.submit([BETA], max_events=200)  # the slot is free again

        gate.set()
        assert client.wait(running["job_id"], timeout_s=60.0)["state"] \
            == "done"
    finally:
        gate.set()
        server.stop(timeout=2.0)


def test_restart_resumes_journaled_jobs(tmp_path):
    """The restart story over the full stack: a service that dies with
    a running job comes back, resumes it from the journal, and does
    not re-analyze the journaled apps."""
    from repro.serve import Job, JobJournal

    interrupted = Job(apps=[ALPHA, BETA], max_events=200)
    interrupted.state = "running"
    interrupted.completed[ALPHA] = {"package": ALPHA, "ok": True}
    JobJournal(tmp_path / "journal").write(interrupted)

    swept = []

    def recording_sweep(plans, config=None, max_workers=None,
                        backend=None):
        swept.extend(plan.package for plan in plans)
        return explore_many(plans, config=config, max_workers=1,
                            backend="thread")

    server = ReproServer(journal_dir=tmp_path / "journal",
                         registry_dir=tmp_path / "runs", port=0,
                         sweep_fn=recording_sweep)
    server.start()
    try:
        assert server.resumed == 1
        client = ServeClient(server.url, timeout_s=10.0)
        done = client.wait(interrupted.job_id, timeout_s=60.0)
        assert done["state"] == "done"
        assert swept == [BETA]  # the journaled app was not re-analyzed
    finally:
        server.stop(timeout=2.0)


def test_metrics_content_negotiation(server, client):
    job = client.submit([ALPHA], max_events=200)
    client.wait(job["job_id"], timeout_s=60.0)

    # JSON stays the default shape, now with quantile summaries.
    snapshot = client.metrics()
    waits = snapshot["histograms"]["serve.queue.wait_s"]
    assert waits["count"] >= 1
    assert set(waits) >= {"count", "total", "min", "max",
                          "mean", "p50", "p90", "p99"}
    assert "serve.job.run_s" in snapshot["histograms"]
    assert "serve.job.start_s" in snapshot["histograms"]

    # ?format=prometheus (or Accept: text/plain) switches exposition.
    text = client.metrics_prometheus()
    assert "# TYPE fragdroid_serve_admitted_total counter" in text
    assert "# TYPE fragdroid_serve_queue_wait_s summary" in text
    assert 'fragdroid_serve_queue_wait_s{quantile="0.99"}' in text
    assert "fragdroid_serve_job_run_s_count 1" in text


def test_job_trace_correlates_across_the_process_boundary(server, client):
    """The tentpole end to end: one job submitted over HTTP against the
    process backend yields ONE trace — the submit root, the recorded
    queue wait, the scheduler rounds and the absorbed worker spans all
    under the trace id the job carries.  A finished job's spans leave
    the tracer's memory, so the trace is read from a span sink."""
    sink = InMemorySink()
    server.tracer.add_sink(sink)
    job = client.submit([ALPHA, BETA], max_events=200,
                        backend="process", workers=2)
    done = client.wait(job["job_id"], timeout_s=120.0)
    assert done["state"] == "done"
    trace_id = done["trace_id"]
    assert trace_id > 0

    spans = [span for span in sink.spans if span.trace_id == trace_id]
    names = {span.name for span in spans}
    assert {"job.submit", "queue.wait", "job.run",
            "schedule.round", "sweep.app"} <= names
    # Both workers' app spans (and their children) were re-homed.
    apps = {span.attributes.get("app") for span in spans
            if span.name == "sweep.app"}
    assert apps == {ALPHA, BETA}
    assert sum(1 for span in spans if span.depth > 0) > 0


def test_sse_stream_follows_a_job_to_completion(server, client):
    job = client.submit([ALPHA], max_events=200)
    events = list(client.stream_events(job["job_id"], timeout_s=30.0))
    kinds = [event["kind"] for event in events]
    assert "job.state" in kinds
    assert "job.round" in kinds
    assert "job.app.done" in kinds
    states = [event["attributes"]["state"] for event in events
              if event["kind"] == "job.state"]
    assert states[-1] == "done"
    # No duplicate delivery across the backlog/live seam.
    seqs = [event["seq"] for event in events]
    assert seqs == sorted(set(seqs))
    # The handler detached its subscription on the way out.
    assert wait_until(lambda: server.broker.subscriber_count() == 0)


def test_sse_stream_replays_the_backlog_of_a_finished_job(server, client):
    job = client.submit([ALPHA], max_events=200)
    client.wait(job["job_id"], timeout_s=60.0)
    events = list(client.stream_events(job["job_id"], timeout_s=10.0))
    assert events, "a finished job still streams its backlog"
    assert events[-1]["attributes"].get("state") == "done"
    # The handler's finally-block can lag the client's exit by a beat.
    assert wait_until(lambda: server.broker.subscriber_count() == 0)


def _resumed_stream(server, job_id, last_event_id):
    """The whole SSE response to a resume from ``last_event_id``, read
    until the service closes it; a stream still open after 5 s of
    quiet raises ``socket.timeout`` (heartbeats come every 15 s)."""
    import http.client
    from urllib.parse import urlparse

    url = urlparse(server.url)
    connection = http.client.HTTPConnection(url.hostname, url.port,
                                            timeout=5.0)
    try:
        connection.request("GET", f"/jobs/{job_id}/events",
                           headers={"Last-Event-ID": str(last_event_id)})
        response = connection.getresponse()
        assert response.status == 200
        return response.read().decode("utf-8")
    finally:
        connection.close()


def _assert_resumes_past_the_end_are_ended(server, client, job_id):
    last_seq = client.logs(job_id)[-1]["seq"]
    for last_event_id in (last_seq, last_seq + 1, last_seq + 1000):
        body = _resumed_stream(server, job_id, last_event_id)
        assert body == "event: end\ndata: {}\n\n", last_event_id
    assert wait_until(lambda: server.broker.subscriber_count() == 0)


def test_sse_resume_at_or_past_a_done_jobs_end_gets_end(server, client):
    job_id = client.submit([ALPHA], max_events=200)["job_id"]
    assert client.wait(job_id, timeout_s=60.0)["state"] == "done"
    _assert_resumes_past_the_end_are_ended(server, client, job_id)
    # A resume before the end still replays the rest, then ends.
    events = client.logs(job_id)
    body = _resumed_stream(server, job_id, events[-2]["seq"])
    assert body.startswith(f"id: {events[-1]['seq']}\n")
    assert body.endswith("event: end\ndata: {}\n\n")


def _per_event_frames(history):
    """What the stream wrote for ``history`` with one write per event."""
    return "".join(f"id: {filed.event.seq}\nevent: {filed.event.kind}\n"
                   f"data: {filed.text}\n\n" for filed in history)


def test_sse_streams_of_a_done_job_are_its_frames_in_one_write(
        server, client, monkeypatch):
    """The full and the resumed stream of a finished job carry the same
    bytes as the per-event frames, then ``end``, in one write each."""
    from repro.serve import api

    writes = []
    write = api._Handler._sse_write

    def counted(self, frames):
        if frames:
            writes.append(len(frames))
        write(self, frames)

    monkeypatch.setattr(api._Handler, "_sse_write", counted)
    job_id = client.submit([ALPHA], max_events=200)["job_id"]
    assert client.wait(job_id, timeout_s=60.0)["state"] == "done"
    end = "event: end\ndata: {}\n\n"
    history = server.broker.history(job_id)
    middle = history[len(history) // 2].event.seq
    resumed = server.broker.history(job_id, middle)
    assert _resumed_stream(server, job_id, 0) == (
        _per_event_frames(history) + end)
    assert _resumed_stream(server, job_id, middle) == (
        _per_event_frames(resumed) + end)
    assert writes == [len(history) + 1, len(resumed) + 1]


def test_a_job_reads_done_only_once_its_terminal_event_is_filed(tmp_path):
    """The moment the queue's job turns done, the broker's history of
    it already ends with the terminal ``job.state`` event, so a client
    that polls ``done`` and then reads ``/logs`` always finds it."""
    gate = threading.Event()

    def held_sweep(plans, config=None, max_workers=None, backend=None):
        gate.wait(30.0)
        return explore_many(plans, config=config, max_workers=1,
                            backend="thread")

    server = ReproServer(journal_dir=tmp_path / "journal",
                         registry_dir=tmp_path / "runs", port=0,
                         sweep_fn=held_sweep)
    server.start()
    try:
        client = ServeClient(server.url, timeout_s=10.0)
        job_id = client.submit([ALPHA], max_events=200)["job_id"]
        assert wait_until(lambda: client.job(job_id)["state"] == "running")
        seen = []

        def watch(state):
            last = server.broker.history(job_id)[-1].event
            seen.append((state, last.kind, last.attributes.get("state")))

        job = server.queue.get(job_id)
        job.__class__ = WatchedJob
        job.watch = watch
        gate.set()
        assert client.wait(job_id, timeout_s=60.0)["state"] == "done"
        assert seen == [("done", "job.state", "done")]
        assert client.logs(job_id)[-1]["attributes"]["state"] == "done"
    finally:
        gate.set()
        server.stop(timeout=2.0)


def test_sse_resume_past_a_job_cancelled_while_queued_gets_end(tmp_path):
    gate = threading.Event()

    def held_sweep(plans, config=None, max_workers=None, backend=None):
        gate.wait(30.0)
        return explore_many(plans, config=config, max_workers=1,
                            backend="thread")

    server = ReproServer(journal_dir=tmp_path / "journal",
                         registry_dir=tmp_path / "runs", port=0,
                         sweep_fn=held_sweep)
    server.start()
    try:
        client = ServeClient(server.url, timeout_s=10.0)
        running = client.submit([ALPHA], max_events=200)
        assert wait_until(
            lambda: client.job(running["job_id"])["state"] == "running")
        queued = client.submit([BETA], max_events=200)["job_id"]
        assert client.cancel(queued)["state"] == "cancelled"
        _assert_resumes_past_the_end_are_ended(server, client, queued)
    finally:
        gate.set()
        server.stop(timeout=2.0)


def test_a_job_cancelled_while_queued_reads_cancelled_only_once_its_event_is_filed(
        tmp_path):
    """Cancel-before-start follows the scheduler's terminal order: the
    moment the queued job turns cancelled, its journal entry reads
    cancelled and the broker's history of it ends with the terminal
    ``job.state`` event."""
    gate = threading.Event()

    def held_sweep(plans, config=None, max_workers=None, backend=None):
        gate.wait(30.0)
        return explore_many(plans, config=config, max_workers=1,
                            backend="thread")

    server = ReproServer(journal_dir=tmp_path / "journal",
                         registry_dir=tmp_path / "runs", port=0,
                         sweep_fn=held_sweep)
    server.start()
    try:
        client = ServeClient(server.url, timeout_s=10.0)
        running = client.submit([ALPHA], max_events=200)
        assert wait_until(
            lambda: client.job(running["job_id"])["state"] == "running")
        queued = client.submit([BETA], max_events=200)["job_id"]
        seen = []

        def watch(state):
            last = server.broker.history(queued)[-1].event
            seen.append((state, server.journal.load(queued).state,
                         last.kind, last.attributes.get("state")))

        job = server.queue.get(queued)
        job.__class__ = WatchedJob
        job.watch = watch
        assert client.cancel(queued)["state"] == "cancelled"
        assert seen == [("cancelled", "cancelled", "job.state", "cancelled")]
        assert client.logs(queued)[-1]["attributes"]["state"] == "cancelled"
    finally:
        gate.set()
        server.stop(timeout=2.0)


def test_sse_stream_resumes_after_the_service_drops_a_slow_reader(
        tmp_path, monkeypatch):
    """The service closes a stream that overflows its buffer; the
    client resumes from its last seq, so a slow reader still gets the
    job's whole history exactly once, in order."""
    import time

    from repro.serve.stream import Subscription

    server = ReproServer(journal_dir=tmp_path / "journal",
                         registry_dir=tmp_path / "runs", port=0,
                         sse_buffer=1)
    sweep = server.scheduler.sweep_fn

    def sweep_once_followed(plans, **kwargs):
        # Explore only once the reader subscribed, so the job's events
        # reach it live instead of as a finished backlog.
        wait_until(lambda: server.broker.subscriber_count() == 1,
                   timeout_s=30.0)
        return sweep(plans, **kwargs)

    get = Subscription.get

    def slow_get(self, timeout):
        time.sleep(0.02)
        return get(self, timeout)

    server.scheduler.sweep_fn = sweep_once_followed
    monkeypatch.setattr(Subscription, "get", slow_get)
    server.start()
    try:
        client = ServeClient(server.url, timeout_s=30.0)
        job_id = client.submit([ALPHA], max_events=200)["job_id"]
        seqs = [event["seq"] for event in client.stream_events(job_id)]
        assert server.tracer.metrics.counter("serve.sse.dropped") >= 1
        assert seqs == [event["seq"] for event in client.logs(job_id)]
        assert client.job(job_id)["state"] == "done"
    finally:
        server.stop(timeout=2.0)


def test_sse_stream_of_unknown_job_is_a_404(client):
    with pytest.raises(ServeClientError) as excinfo:
        next(client.stream_events("feedfacecafe"))
    assert excinfo.value.status == 404


def test_disconnecting_sse_client_is_cleaned_up(server, client):
    """A client that walks away mid-stream must not leak its
    subscription (the bounded buffer dies with it)."""
    import urllib.request

    gate = threading.Event()
    original = server.scheduler.sweep_fn

    def held_sweep(plans, **kwargs):
        gate.wait(30.0)
        return original(plans, **kwargs)

    server.scheduler.sweep_fn = held_sweep
    try:
        job = client.submit([ALPHA], max_events=200)
        response = urllib.request.urlopen(
            server.url + f"/jobs/{job['job_id']}/events", timeout=10.0)
        response.readline()  # the stream is live
        assert wait_until(lambda: server.broker.subscriber_count() == 1)
        response.close()  # hang up without reading to the end
        gate.set()
        client.wait(job["job_id"], timeout_s=60.0)
        assert wait_until(lambda: server.broker.subscriber_count() == 0)
    finally:
        gate.set()
        server.scheduler.sweep_fn = original


def test_shutdown_endpoint_stops_the_service(tmp_path):
    server = ReproServer(journal_dir=tmp_path / "journal",
                         registry_dir=tmp_path / "runs", port=0)
    server.start()
    client = ServeClient(server.url, timeout_s=10.0)
    assert client.shutdown()["ok"] is True
    for _ in range(100):
        try:
            client.health()
        except ServeClientError:
            break
        threading.Event().wait(0.05)
    else:
        pytest.fail("service still answering after /shutdown")


def test_job_explanation_is_served_once_terminal(server, client):
    job = client.submit([ALPHA], max_events=200)
    done = client.wait(job["job_id"], timeout_s=60.0)
    assert done["state"] == "done"
    explanation = client.explanation(job["job_id"])
    assert explanation["schema"] == 1
    assert explanation["source_run_id"] == done["run_id"]
    assert [row["package"] for row in explanation["apps"]] == [ALPHA]
    assert "unclassified" not in explanation["cause_census"]
    assert explanation["meta"]["job_id"] == job["job_id"]

    with pytest.raises(ServeClientError) as excinfo:
        client.explanation("0" * 12)
    assert excinfo.value.status == 404


def test_a_damaged_stored_explanation_is_a_typed_500(server, client):
    from repro.obs import ExplanationStore

    done = client.wait(client.submit([ALPHA], max_events=200)["job_id"],
                       timeout_s=60.0)
    store = ExplanationStore(server.registry.directory)
    store.path_of(done["run_id"]).write_text('{"schema": 1, "apps": 7}',
                                            encoding="utf-8")
    with pytest.raises(ServeClientError) as excinfo:
        client.explanation(done["job_id"])
    assert excinfo.value.status == 500
    assert excinfo.value.kind == "StoreError"
    assert "coverage explanation" in str(excinfo.value)


def test_terminal_state_is_published_after_its_run_record(server,
                                                          client):
    """A poller that sees a terminal state finds its run id set and
    the explanation served, however slow the registry write is."""
    import time

    record = server.registry.record

    def slow_record(run):
        time.sleep(0.2)
        return record(run)

    server.registry.record = slow_record
    for _ in range(3):
        job_id = client.submit([ALPHA], max_events=200)["job_id"]
        job = client.job(job_id)
        while job["state"] not in ("done", "failed", "cancelled"):
            job = client.job(job_id)
        assert job["state"] == "done"
        assert job["run_id"]
        assert client.explanation(job_id)["source_run_id"] == job["run_id"]


def test_job_explanation_before_any_run_is_a_409(tmp_path):
    from repro.errors import JobStateError
    from repro.serve import Job

    server = ReproServer(journal_dir=tmp_path / "journal",
                         registry_dir=tmp_path / "runs", port=0)
    # The scheduler never starts, so the job stays queued: asking for
    # its explanation is a typed state error (HTTP 409 over the wire).
    job = Job(apps=[ALPHA], max_events=200)
    server.queue.submit(job)
    with pytest.raises(JobStateError, match="no recorded run"):
        server.job_explanation(job.job_id)


def test_cancel_of_a_running_job_finishing_meanwhile_is_not_ended_twice(
        tmp_path):
    """The scheduler may end a running job between the queue's cancel
    and the server's next step: the server must not take it for a job
    cancelled before start (a second terminal event and release)."""
    server = ReproServer(journal_dir=tmp_path / "journal",
                         registry_dir=tmp_path / "runs", port=0)
    job = server.submit({"apps": [ALPHA]})
    assert server.queue.next_job() is job  # running, not started here
    cancel = server.queue.cancel

    def cancel_then_finish(job_id, **kwargs):
        cancelled = cancel(job_id, **kwargs)
        cancelled.state = "cancelled"  # the scheduler's _finish, racing
        return cancelled

    server.queue.cancel = cancel_then_finish
    server.cancel(job.job_id)
    states = [event.attributes["state"]
              for event in server.event_log.events()
              if event.kind == "job.state"]
    assert states == ["admitted"]
    assert not server.broker.spill_path(job.job_id).exists()


def test_a_job_ending_before_its_submit_span_closes_leaves_no_span(
        tmp_path):
    """A job can reach its terminal state, and be released, while the
    submit span that roots its trace is still open."""
    server = ReproServer(journal_dir=tmp_path / "journal",
                         registry_dir=tmp_path / "runs", port=0)
    publish = server._publish_state

    def publish_then_finish(job):
        publish(job)
        job.state = "failed"  # a job the scheduler fails at once
        server.release(job)

    server._publish_state = publish_then_finish
    job = server.submit({"apps": [ALPHA]})
    assert job.state == "failed"
    assert server.tracer.spans_in_trace(job.trace_id) == []
    assert server.tracer.finished_spans() == []

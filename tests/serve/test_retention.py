"""A finished job leaves the server's memory.

Once a job's terminal ``job.state`` event has reached every sink, the
server spills the job's events beside its journal entry and drops its
events and spans from memory.  Over a long run, what the server keeps
per finished job stays small, and a released job still serves the same
``/logs`` and SSE bytes it served from memory.
"""

import gc
import http.client
import json
import threading
import tracemalloc

import pytest

from repro.bench.parallel import explore_many
from repro.corpus import TABLE1_PLANS
from repro.serve import ReproServer, ServeClient
from repro.serve.stream import SPILL_SUFFIX

HELD = "com.serve.demo.alpha"      # its job waits on a gate
QUEUED = "com.serve.demo.beta"     # cancelled while HELD runs
CRASHING = "com.serve.demo.gamma"  # its sweep raises: the crash path

#: Jobs measured after the warm-up, and the per-job bound on what the
#: server may keep of them (the job rows and metric samples).
MEASURED_JOBS = 60
RETAINED_BYTES_PER_JOB = 10 * 1024


def _get(server, path, last_event_id=None):
    """The raw response body of one GET (an SSE stream is read to its
    close)."""
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        headers = ({"Last-Event-ID": str(last_event_id)}
                   if last_event_id else {})
        connection.request("GET", path, headers=headers)
        response = connection.getresponse()
        assert response.status == 200, path
        return response.read()
    finally:
        connection.close()


def _read_back(server, job_id):
    """The job's ``/logs`` body and its SSE bytes: the full replay and
    the replay after its middle event's seq."""
    logs = _get(server, f"/jobs/{job_id}/logs")
    seqs = [event["seq"] for event in ServeClient(server.url).logs(job_id)]
    middle = seqs[(len(seqs) - 1) // 2]  # the terminal event stays after it
    return {
        "logs": logs,
        "sse": _get(server, f"/jobs/{job_id}/events"),
        "sse_after_middle": _get(server, f"/jobs/{job_id}/events",
                                 last_event_id=middle),
    }


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A server run: warm-up, the three special jobs, then the measured
    jobs.  Yields (server, captured bytes per job, bytes kept per job,
    special job ids)."""
    tmp = tmp_path_factory.mktemp("retention")
    gate = threading.Event()
    # A watched job's sweep waits until its id is in ``watched``: a job
    # that ends at once could otherwise reach capture_then_release
    # first.  Each gate stays open, so later runs of its app pass.
    first_app = TABLE1_PLANS[0].package
    until_watched = {first_app: threading.Event(),
                     CRASHING: threading.Event()}

    def sweep(plans, **kwargs):
        packages = {plan.package for plan in plans}
        for package in packages & until_watched.keys():
            until_watched[package].wait(60.0)
        if CRASHING in packages:
            raise RuntimeError("scripted scheduler failure")
        if HELD in packages:
            gate.wait(60.0)
        return explore_many(plans, **kwargs)

    server = ReproServer(journal_dir=tmp / "journal",
                         registry_dir=tmp / "runs", port=0, sweep_fn=sweep)
    captured, watched = {}, set()
    release = server.release

    def capture_then_release(job):
        # Read over HTTP before the release: these bytes come from memory.
        if job.job_id in watched:
            assert not server.broker.spill_path(job.job_id).exists()
            captured[job.job_id] = _read_back(server, job.job_id)
        release(job)

    server.scheduler.on_terminal = capture_then_release
    server.release = capture_then_release
    server.start()
    client = ServeClient(server.url, timeout_s=30.0)

    def run(apps):
        job_id = client.submit(apps)["job_id"]
        client.wait(job_id, timeout_s=120.0, poll_s=0.01)
        return job_id

    def watch(job_id, app):
        watched.add(job_id)
        until_watched[app].set()

    try:
        first = client.submit([first_app])["job_id"]
        watch(first, first_app)
        client.wait(first, timeout_s=120.0, poll_s=0.01)
        for plan in TABLE1_PLANS[1:]:
            run([plan.package])

        held = client.submit([HELD])["job_id"]
        while client.job(held)["state"] != "running":
            gate.wait(0.01)
        queued = client.submit([QUEUED])["job_id"]
        watched.add(queued)
        assert client.cancel(queued)["state"] == "cancelled"
        gate.set()
        assert client.wait(held, timeout_s=120.0)["state"] == "done"

        crashed = client.submit([CRASHING])["job_id"]
        watch(crashed, CRASHING)
        crashed_job = client.wait(crashed, timeout_s=120.0, poll_s=0.01)
        assert crashed_job["state"] == "failed"
        assert "scheduler failure" in crashed_job["error"]

        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for index in range(MEASURED_JOBS):
                run([TABLE1_PLANS[index % len(TABLE1_PLANS)].package])
            gc.collect()
            kept = (tracemalloc.get_traced_memory()[0] - before) \
                / MEASURED_JOBS
        finally:
            if not tracing:
                tracemalloc.stop()
        yield server, captured, kept, {
            "first": first, "queued": queued, "crashed": crashed}
    finally:
        gate.set()
        for opened in until_watched.values():
            opened.set()
        server.stop(timeout=5.0)


def test_the_server_keeps_little_per_finished_job(served):
    _server, _captured, kept, _ids = served
    assert kept < RETAINED_BYTES_PER_JOB, f"{kept:.0f} bytes per job"


def test_no_events_or_spans_stay_in_memory_once_every_job_is_terminal(
        served):
    server, _captured, _kept, _ids = served
    jobs = server.queue.jobs()
    assert all(job.state in ("done", "failed", "cancelled") for job in jobs)
    assert server.event_log.events() == []
    assert server.tracer.finished_spans() == []
    assert server.broker._history == {}


def test_each_terminal_job_has_one_spill_file_the_journal_never_lists(
        served):
    server, _captured, _kept, _ids = served
    job_ids = sorted(job.job_id for job in server.queue.jobs())
    directory = server.journal.directory
    spilled = sorted(path.name[:-len(SPILL_SUFFIX)]
                     for path in directory.glob(f"*{SPILL_SUFFIX}"))
    assert spilled == job_ids
    assert server.journal.ids() == job_ids


@pytest.mark.parametrize("which", ["first", "queued", "crashed"])
def test_a_released_job_reads_back_the_bytes_it_served_from_memory(
        served, which):
    server, captured, _kept, ids = served
    job_id = ids[which]
    before = captured[job_id]
    assert before["logs"].startswith(b'{"events": [{')
    assert before["sse"].endswith(b"event: end\ndata: {}\n\n")
    assert 0 < len(before["sse_after_middle"]) < len(before["sse"])
    assert _read_back(server, job_id) == before
    # The bodies are what encoding the decoded events gives.
    assert before["logs"] == _reencoded(before["logs"])
    for line in before["sse"].split(b"\n"):
        if line.startswith(b"data: "):
            assert line[6:] == _reencoded(line[6:])


def _reencoded(body):
    return json.dumps(json.loads(body), sort_keys=True).encode("utf-8")


@pytest.mark.parametrize("which,state", [("queued", "cancelled"),
                                         ("crashed", "failed")])
def test_following_a_job_ends_with_its_terminal_state(served, which, state):
    server, _captured, _kept, ids = served
    events = list(ServeClient(server.url).stream_events(ids[which],
                                                        timeout_s=10.0))
    states = [event["attributes"]["state"] for event in events
              if event["kind"] == "job.state"]
    assert states[0] == "admitted" and states[-1] == state

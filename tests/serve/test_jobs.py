"""The job model and the admission-controlled queue."""

import threading

import pytest

from repro.errors import (
    AdmissionError,
    JobBudgetError,
    JobStateError,
    QueueFullError,
    UnknownJobError,
)
from repro.obs.metrics import Metrics
from repro.serve import (
    ADMITTED,
    CANCELLED,
    DONE,
    JOB_SCHEMA,
    RUNNING,
    Job,
    JobLimits,
    JobQueue,
)

APPS = ["com.serve.demo.alpha", "com.serve.demo.beta"]


# ---------------------------------------------------------------------------
# Limits
# ---------------------------------------------------------------------------

def test_limits_reject_nonsense():
    with pytest.raises(ValueError):
        JobLimits(queue_depth=0)
    with pytest.raises(ValueError):
        JobLimits(max_apps=-1)
    with pytest.raises(ValueError):
        JobLimits(max_events_cap=True)
    with pytest.raises(ValueError):
        JobLimits(max_time_budget_s=0.0)


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

def test_submit_admits_and_counts():
    metrics = Metrics()
    queue = JobQueue(metrics=metrics)
    job = queue.submit(Job(apps=list(APPS)))
    assert job.state == ADMITTED
    assert queue.depth() == 1
    assert metrics.counter("serve.admitted") == 1
    assert queue.get(job.job_id) is job


@pytest.mark.parametrize("kwargs", [
    {"apps": []},
    {"apps": APPS, "max_events": 0},
    {"apps": APPS, "max_events": 10**9},
    {"apps": APPS, "time_budget_s": 0.0},
    {"apps": APPS, "time_budget_s": 10**9},
    {"apps": APPS, "workers": 0},
])
def test_budget_violations_are_typed_and_counted(kwargs):
    metrics = Metrics()
    queue = JobQueue(metrics=metrics)
    with pytest.raises(JobBudgetError):
        queue.submit(Job(**kwargs))
    assert metrics.counter("serve.rejected.budget") == 1
    assert queue.depth() == 0


def test_bad_backend_and_duplicates_rejected():
    queue = JobQueue()
    with pytest.raises(AdmissionError):
        queue.submit(Job(apps=list(APPS), backend="fiber"))
    with pytest.raises(AdmissionError):
        queue.submit(Job(apps=["com.a", "com.a"]))


def test_too_many_apps_rejected():
    queue = JobQueue(JobLimits(max_apps=2))
    with pytest.raises(JobBudgetError):
        queue.submit(Job(apps=["com.a", "com.b", "com.c"]))


def test_full_queue_applies_backpressure():
    metrics = Metrics()
    queue = JobQueue(JobLimits(queue_depth=2), metrics=metrics)
    queue.submit(Job(apps=list(APPS)))
    queue.submit(Job(apps=list(APPS)))
    with pytest.raises(QueueFullError):
        queue.submit(Job(apps=list(APPS)))
    assert metrics.counter("serve.rejected.queue_full") == 1
    # The bound held: nothing was queued past it.
    assert queue.depth() == 2


def test_draining_a_slot_readmits():
    queue = JobQueue(JobLimits(queue_depth=1))
    first = queue.submit(Job(apps=list(APPS)))
    with pytest.raises(QueueFullError):
        queue.submit(Job(apps=list(APPS)))
    assert queue.next_job() is first
    queue.submit(Job(apps=list(APPS)))  # a slot freed up


# ---------------------------------------------------------------------------
# Draining and cancellation
# ---------------------------------------------------------------------------

def test_next_job_is_fifo_and_skips_cancelled():
    queue = JobQueue()
    first = queue.submit(Job(apps=list(APPS)))
    second = queue.submit(Job(apps=list(APPS)))
    queue.cancel(first.job_id)
    assert first.state == CANCELLED
    assert first.error == "cancelled before start"
    assert queue.depth() == 1  # the cancelled job freed its slot
    assert queue.next_job() is second
    assert queue.next_job() is None


def test_a_queued_cancel_publishes_before_the_job_reads_cancelled():
    queue = JobQueue()
    job = queue.submit(Job(apps=list(APPS)))
    order = []

    def publish(ended):
        # The terminal snapshot, while the shared job is still queued;
        # a second cancel in this window finds the job mid-cancel.
        order.append(("publish", ended.state, ended.error, job.state))
        with pytest.raises(JobStateError):
            queue.cancel(job.job_id)

    def on_cancelled(cancelled):
        order.append(("cancelled", cancelled.state, cancelled.finished))

    queue.cancel(job.job_id, publish=publish, on_cancelled=on_cancelled)
    assert order == [
        ("publish", CANCELLED, "cancelled before start", ADMITTED),
        ("cancelled", CANCELLED, job.finished),
    ]
    assert job.finished > 0
    assert queue.depth() == 0


def test_cancel_running_is_cooperative():
    queue = JobQueue()
    job = queue.submit(Job(apps=list(APPS)))
    job.state = RUNNING
    cancelled = queue.cancel(job.job_id)
    assert cancelled.state == RUNNING
    assert cancelled.cancel_requested is True


def test_next_job_turns_the_job_running_so_a_cancel_is_cooperative():
    queue = JobQueue()
    job = queue.submit(Job(apps=list(APPS)))
    assert queue.next_job() is job and job.state == RUNNING
    assert queue.cancel(job.job_id).cancel_requested is True
    assert job.state == RUNNING


def _waiting_next_job(queue):
    """``next_job(timeout=30)`` on a thread: (taken event, result box)."""
    taken, box = threading.Event(), []

    def take():
        box.append(queue.next_job(timeout=30.0))
        taken.set()

    threading.Thread(target=take, daemon=True).start()
    return taken, box


def test_a_submit_from_another_thread_wakes_a_waiting_next_job():
    queue = JobQueue()
    taken, box = _waiting_next_job(queue)
    job = Job(apps=list(APPS))
    threading.Thread(target=queue.submit, args=(job,), daemon=True).start()
    # Well before the 30 s timeout: the submit woke the waiter.
    assert taken.wait(10.0)
    assert box == [job]


def test_wake_ends_a_waiting_next_job_with_none():
    queue = JobQueue()
    taken, box = _waiting_next_job(queue)
    queue.wake()
    # A wake that lands before the waiter waits is lost; repeat it.
    while not taken.wait(0.05):
        queue.wake()
    assert box == [None]


def test_restore_wakes_a_waiting_next_job():
    queue = JobQueue()
    taken, box = _waiting_next_job(queue)
    interrupted = Job(apps=list(APPS))
    interrupted.state = RUNNING
    queue.restore(interrupted)
    assert taken.wait(10.0)
    assert box == [interrupted]


def test_cancel_terminal_conflicts():
    queue = JobQueue()
    job = queue.submit(Job(apps=list(APPS)))
    job.state = DONE
    with pytest.raises(JobStateError):
        queue.cancel(job.job_id)


def test_unknown_job_is_typed():
    queue = JobQueue()
    with pytest.raises(UnknownJobError):
        queue.get("feedfacecafe")
    with pytest.raises(UnknownJobError):
        queue.cancel("feedfacecafe")


def test_counts_by_state():
    queue = JobQueue()
    queue.submit(Job(apps=list(APPS)))
    done = queue.submit(Job(apps=list(APPS)))
    done.state = DONE
    counts = queue.counts()
    assert counts["admitted"] == 1 and counts["done"] == 1


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_job_round_trips_through_dict():
    job = Job(apps=list(APPS), backend="process", workers=2,
              fault_profile="mild", fault_seed=9)
    job.state = RUNNING
    job.completed["com.serve.demo.alpha"] = {"package": APPS[0], "ok": True}
    job.attempts["com.serve.demo.beta"] = 1
    clone = Job.from_dict(job.to_dict())
    assert clone.to_dict() == job.to_dict()
    assert clone.remaining() == ["com.serve.demo.beta"]


def test_schema_v2_carries_the_trace_id():
    job = Job(apps=list(APPS), trace_id=314)
    data = job.to_dict()
    assert data["schema"] == JOB_SCHEMA == 2
    assert data["trace_id"] == 314
    assert Job.from_dict(data).trace_id == 314
    # trace_id is optional in the record: absent means untraced.
    del data["trace_id"]
    assert Job.from_dict(data).trace_id == 0


def test_foreign_schema_is_refused():
    data = Job(apps=list(APPS)).to_dict()
    data["schema"] = JOB_SCHEMA + 1
    with pytest.raises(ValueError):
        Job.from_dict(data)


def test_unknown_state_is_refused():
    data = Job(apps=list(APPS)).to_dict()
    data["state"] = "exploded"
    with pytest.raises(ValueError):
        Job.from_dict(data)


def test_degradation_accounts_for_adversity():
    job = Job(apps=list(APPS))
    job.attempts = {"com.serve.demo.alpha": 2}
    job.quarantined = ["com.serve.demo.alpha"]
    job.completed["com.serve.demo.alpha"] = {"ok": False,
                                             "fault_kind": "worker-died"}
    account = job.degradation()
    assert account["worker_deaths"] == 2
    assert account["quarantined_apps"] == ["com.serve.demo.alpha"]
    assert account["failed_apps"] == ["com.serve.demo.alpha"]


# ---------------------------------------------------------------------------
# Restart recovery
# ---------------------------------------------------------------------------

def test_restore_readmits_in_flight_jobs():
    queue = JobQueue()
    interrupted = Job(apps=list(APPS))
    interrupted.state = RUNNING
    interrupted.completed[APPS[0]] = {"package": APPS[0], "ok": True}
    queue.restore(interrupted)
    assert interrupted.state == ADMITTED
    assert queue.next_job() is interrupted
    # Completed work rides along: only the second app remains.
    assert interrupted.remaining() == [APPS[1]]


def test_restore_keeps_terminal_jobs_out_of_the_queue():
    queue = JobQueue()
    finished = Job(apps=list(APPS))
    finished.state = DONE
    queue.restore(finished)
    assert queue.next_job() is None
    assert queue.get(finished.job_id) is finished


def test_on_cancelled_runs_only_for_a_job_cancelled_while_queued():
    queue = JobQueue()
    queued = queue.submit(Job(apps=list(APPS)))
    running = queue.submit(Job(apps=list(APPS)))
    running.state = RUNNING
    ended = []
    queue.cancel(queued.job_id, on_cancelled=ended.append)
    queue.cancel(running.job_id, on_cancelled=ended.append)
    assert ended == [queued]

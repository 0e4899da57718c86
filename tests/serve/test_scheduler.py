"""The supervised scheduler: recovery, watchdog, journaling, registry.

The unit tests script worker deaths through a fake ``sweep_fn``; the
integration test at the bottom kills real pool processes via the chaos
hook in ``bench.parallel`` and checks the service-level guarantee: a
transiently killed worker costs nothing but a re-admission, and the
surviving apps' rows match a fault-free run exactly.
"""

import threading

import pytest

from repro.bench.parallel import SweepOutcome, explore_many
from repro.corpus import TABLE1_PLANS
from repro.errors import WorkerDiedError
from repro.obs import EventLog, Tracer
from repro.obs.attribution import ExplanationStore
from repro.obs.events import JOB_STATE
from repro.obs.registry import RunRegistry
from repro.serve import scheduler as scheduler_module
from repro.serve import (
    CANCELLED,
    DONE,
    FAILED,
    Job,
    JobJournal,
    JobQueue,
    Scheduler,
)
from tests.conftest import wait_until

ALPHA = "com.serve.demo.alpha"
BETA = "com.serve.demo.beta"
GAMMA = "com.serve.demo.gamma"
DEMO_APPS = [ALPHA, BETA, GAMMA]


def scripted_sweep(deaths):
    """A sweep that kills the named packages' workers first.

    ``deaths[package]`` is how many rounds the package fails with a
    worker death before exploring for real; ``-1`` means every round.
    ``sweep.calls`` records each call's package list, so tests can
    assert what was (and was not) re-analyzed.
    """
    budget = dict(deaths)
    calls = []

    def sweep(plans, config=None, max_workers=None, backend=None):
        calls.append([plan.package for plan in plans])
        outcomes = {}
        healthy = []
        for plan in plans:
            left = budget.get(plan.package, 0)
            if left:
                if left > 0:
                    budget[plan.package] = left - 1
                outcomes[plan.package] = SweepOutcome(
                    package=plan.package,
                    error=WorkerDiedError("scripted worker death"),
                    fault_kind="worker-died")
            else:
                healthy.append(plan)
        if healthy:
            outcomes.update(explore_many(healthy, config=config,
                                         max_workers=1, backend="thread"))
        return outcomes

    sweep.calls = calls
    return sweep


def make_scheduler(tmp_path, sweep_fn=explore_many, max_restarts=2,
                   **kwargs):
    tracer = Tracer()
    scheduler = Scheduler(
        queue=JobQueue(metrics=tracer.metrics),
        journal=JobJournal(tmp_path / "journal"),
        registry=RunRegistry(tmp_path / "runs"),
        sweep_fn=sweep_fn,
        max_restarts=max_restarts,
        tracer=tracer,
        event_log=EventLog(),
        **kwargs,
    )
    return scheduler


def submit_demo_job(scheduler, **kwargs):
    job = Job(apps=list(DEMO_APPS), max_events=200, **kwargs)
    scheduler.queue.submit(job)
    return job


def _rows_sans_duration(job):
    return {package: {key: value for key, value in row.items()
                      if key != "duration_s"}
            for package, row in job.completed.items()}


# ---------------------------------------------------------------------------
# The happy path
# ---------------------------------------------------------------------------

def test_job_trace_id_correlates_the_whole_lifecycle(tmp_path):
    """A job carrying a trace id yields one trace: the recorded queue
    wait, the job.run root, the per-round spans and the worker spans
    (thread backend: bound live via trace_span)."""
    scheduler = make_scheduler(tmp_path)
    job = submit_demo_job(scheduler, trace_id=4242)
    scheduler.run_job(job)
    assert job.state == DONE

    spans = scheduler.tracer.spans_in_trace(4242)
    names = {span.name for span in spans}
    assert {"queue.wait", "job.run", "schedule.round",
            "sweep.app"} <= names
    wait = next(span for span in spans if span.name == "queue.wait")
    assert wait.attributes["job"] == job.job_id
    assert wait.duration >= 0.0
    # schedule.round nests under job.run on the scheduler thread;
    # worker spans run on pool threads, so they join the trace as
    # additional roots (that is what trace_span is for).
    rounds = [span for span in spans if span.name == "schedule.round"]
    job_run = next(span for span in spans if span.name == "job.run")
    assert all(span.parent_id == job_run.span_id for span in rounds)
    roots = {span.name for span in spans if span.parent_id is None}
    assert roots == {"queue.wait", "job.run", "sweep.app"}

    histograms = scheduler.tracer.metrics.snapshot()["histograms"]
    assert histograms["serve.queue.wait_s"]["count"] == 1
    assert histograms["serve.job.start_s"]["count"] == 1
    assert histograms["serve.job.run_s"]["count"] == 1


class _TraceAtTerminalState:
    """An event sink that reads the job's trace the moment the
    scheduler publishes a terminal state (what an SSE client or a
    status poll sees first)."""

    def __init__(self, tracer, trace_id):
        self.tracer = tracer
        self.trace_id = trace_id
        self.seen = {}

    def emit(self, event):
        state = event.attributes.get("state")
        if event.kind == JOB_STATE and state in (DONE, FAILED, CANCELLED):
            self.seen[state] = {span.name for span in
                                self.tracer.spans_in_trace(self.trace_id)}


def test_job_run_span_is_in_the_trace_when_the_job_turns_done(tmp_path):
    scheduler = make_scheduler(tmp_path)
    probe = _TraceAtTerminalState(scheduler.tracer, 4343)
    scheduler.event_log.add_sink(probe)
    job = submit_demo_job(scheduler, trace_id=4343)
    scheduler.run_job(job)
    assert job.state == DONE
    assert list(probe.seen) == [DONE]
    assert {"queue.wait", "job.run", "schedule.round"} <= probe.seen[DONE]


def test_untraced_job_still_runs_with_local_spans(tmp_path):
    """trace_id 0 (a job submitted straight to the queue, no HTTP
    front door) degrades cleanly: spans exist, each rooted normally."""
    scheduler = make_scheduler(tmp_path)
    job = submit_demo_job(scheduler)
    assert job.trace_id == 0
    scheduler.run_job(job)
    assert job.state == DONE
    names = {span.name for span in scheduler.tracer.finished_spans()}
    assert {"queue.wait", "job.run", "schedule.round"} <= names


def test_retry_rounds_observe_the_delay_histogram(tmp_path):
    scheduler = make_scheduler(tmp_path, sweep_fn=scripted_sweep({ALPHA: 1}))
    job = submit_demo_job(scheduler)
    scheduler.run_job(job)
    assert job.state == DONE
    histograms = scheduler.tracer.metrics.snapshot()["histograms"]
    assert histograms["serve.retry.delay_s"]["count"] == 1


def test_clean_job_completes_and_lands_in_registry(tmp_path):
    scheduler = make_scheduler(tmp_path)
    job = submit_demo_job(scheduler)
    scheduler.run_job(job)
    assert job.state == DONE and job.error == ""
    assert sorted(job.completed) == sorted(DEMO_APPS)
    assert all(row["ok"] for row in job.completed.values())
    assert job.degradation()["worker_deaths"] == 0

    records = scheduler.registry.list()
    assert len(records) == 1 and job.run_id == records[0].run_id
    record = records[0]
    assert record.meta["job_id"] == job.job_id
    assert record.meta["state"] == "done"
    assert len(record.apps) == len(DEMO_APPS)
    # The journal holds the terminal snapshot.
    assert scheduler.journal.load(job.job_id).state == DONE


def test_a_repeat_job_is_served_from_the_static_memo_like_a_fresh_one(
        tmp_path):
    """The second job of an app skips its static analysis, and yields
    the first job's row, run record and explanation bytes (ids and
    timings aside).  The app is one whose misses attribution explains
    from the decoded APK."""
    scheduler = make_scheduler(tmp_path)
    counters = scheduler.tracer.metrics.counter
    jobs = []
    for _ in range(2):
        job = Job(apps=[TABLE1_PLANS[0].package], max_events=200)
        scheduler.queue.submit(job)
        scheduler.run_job(job)
        assert job.state == DONE
        jobs.append(job)
        if len(jobs) == 1:
            assert counters("static.cache.hit") == 0
    assert counters("static.cache.hit") == 1
    assert counters("static.cache.miss") == 1
    first, second = jobs
    assert _rows_sans_duration(second) == _rows_sans_duration(first)

    def record(job):
        data = scheduler.registry.load(job.run_id).to_dict()
        del data["run_id"], data["meta"]["created"], data["meta"]["job_id"]
        for row in data["apps"]:
            del row["duration_s"]
        return data

    assert record(second) == record(first)

    def explanation(job):
        store = ExplanationStore(scheduler.registry.directory)
        return (store.path_of(job.run_id).read_text(encoding="utf-8"),
                store.load(job.run_id).explanation_id)

    first_text, first_id = explanation(first)
    second_text, second_id = explanation(second)
    for mine, theirs in ((second.run_id, first.run_id),
                         (second.job_id, first.job_id),
                         (second_id, first_id)):
        second_text = second_text.replace(mine, theirs)
    assert second_text == first_text


# ---------------------------------------------------------------------------
# Worker-death recovery
# ---------------------------------------------------------------------------

def test_worker_death_readmits_until_recovery(tmp_path):
    sweep = scripted_sweep({BETA: 1})
    scheduler = make_scheduler(tmp_path, sweep_fn=sweep)
    job = submit_demo_job(scheduler)
    scheduler.run_job(job)
    assert job.state == DONE
    assert all(row["ok"] for row in job.completed.values())
    assert job.attempts == {BETA: 1}
    counters = scheduler.tracer.metrics.counters()
    assert counters["serve.worker.deaths"] == 1
    assert counters["serve.readmitted"] == 1
    kinds = {event.kind for event in scheduler.event_log.events(app=BETA)}
    assert {"job.worker.died", "job.readmitted"} <= kinds


def test_readmitted_apps_run_isolated(tmp_path):
    """Re-admission rounds sweep one app per pool, so one poison app
    cannot take another re-admitted app's retry down with it."""
    sweep = scripted_sweep({ALPHA: 1, BETA: 1})
    scheduler = make_scheduler(tmp_path, sweep_fn=sweep)
    job = submit_demo_job(scheduler)
    scheduler.run_job(job)
    assert job.state == DONE
    assert sweep.calls[0] == DEMO_APPS
    assert sorted(map(tuple, sweep.calls[1:])) == [(ALPHA,), (BETA,)]


def test_requeue_is_bounded_and_quarantines(tmp_path):
    sweep = scripted_sweep({BETA: -1})
    scheduler = make_scheduler(tmp_path, sweep_fn=sweep, max_restarts=2)
    job = submit_demo_job(scheduler)
    scheduler.run_job(job)
    # The job itself completes: the poison app is never dropped, it is
    # recorded as a failed row after max_restarts re-admissions.
    assert job.state == DONE
    beta_sweeps = sum(1 for call in sweep.calls if BETA in call)
    assert beta_sweeps == 3  # the first run + max_restarts re-admissions
    row = job.completed[BETA]
    assert row["ok"] is False and row["fault_kind"] == "worker-died"
    assert job.quarantined == [BETA]
    account = job.degradation()
    assert account["quarantined_apps"] == [BETA]
    assert account["failed_apps"] == [BETA]
    counters = scheduler.tracer.metrics.counters()
    assert counters["serve.worker.deaths"] == 3
    assert counters["serve.readmitted"] == 2
    assert counters["serve.quarantined"] == 1
    # The degradation account rides into the registry record.
    record = scheduler.registry.load(job.run_id)
    assert record.meta["degradation"]["quarantined_apps"] == [BETA]


def test_survivors_match_a_fault_free_run(tmp_path):
    clean = make_scheduler(tmp_path / "clean")
    clean_job = submit_demo_job(clean)
    clean.run_job(clean_job)

    dirty = make_scheduler(tmp_path / "dirty",
                           sweep_fn=scripted_sweep({BETA: -1}))
    dirty_job = submit_demo_job(dirty)
    dirty.run_job(dirty_job)

    clean_rows = _rows_sans_duration(clean_job)
    dirty_rows = _rows_sans_duration(dirty_job)
    for package in (ALPHA, GAMMA):
        assert dirty_rows[package] == clean_rows[package]


# ---------------------------------------------------------------------------
# The watchdog and the time budget
# ---------------------------------------------------------------------------

def test_watchdog_fails_hung_sweeps(tmp_path):
    def hung_sweep(plans, config=None, max_workers=None, backend=None):
        threading.Event().wait(30.0)

    scheduler = make_scheduler(tmp_path, sweep_fn=hung_sweep)
    job = submit_demo_job(scheduler, time_budget_s=0.3)
    scheduler.run_job(job)
    assert job.state == FAILED
    assert "watchdog" in job.error
    # Nothing is dropped silently: every app has an explicit row.
    assert sorted(job.completed) == sorted(DEMO_APPS)
    assert all(row["fault_kind"] == "hung"
               for row in job.completed.values())
    assert scheduler.tracer.metrics.counter("serve.watchdog.hung") == 1
    # A failed job still lands in the registry, degradation and all.
    assert scheduler.registry.load(job.run_id).meta["state"] == "failed"


def test_exhausted_budget_records_timeout_rows(tmp_path):
    ticks = iter([0.0, 100.0, 200.0, 300.0, 400.0])
    scheduler = make_scheduler(tmp_path, wall=lambda: next(ticks))
    job = submit_demo_job(scheduler, time_budget_s=5.0)
    scheduler.run_job(job)
    assert job.state == FAILED
    assert "time budget" in job.error
    assert all(row["fault_kind"] == "timeout"
               for row in job.completed.values())


# ---------------------------------------------------------------------------
# Cancellation and supervisor resilience
# ---------------------------------------------------------------------------

def test_cancel_between_rounds(tmp_path):
    def sweep(plans, config=None, max_workers=None, backend=None):
        job.cancel_requested = True  # a client cancel lands mid-round
        return {plan.package: SweepOutcome(
            package=plan.package,
            error=WorkerDiedError("died"),
            fault_kind="worker-died") for plan in plans}

    scheduler = make_scheduler(tmp_path, sweep_fn=sweep)
    job = submit_demo_job(scheduler)
    scheduler.run_job(job)
    assert job.state == CANCELLED
    # Cancelled jobs never become registry records.
    assert job.run_id == "" and scheduler.registry.list() == []


def test_a_crashing_job_never_kills_the_service(tmp_path):
    def broken_sweep(plans, config=None, max_workers=None, backend=None):
        raise RuntimeError("scheduler bug")

    scheduler = make_scheduler(tmp_path, sweep_fn=broken_sweep)
    job = submit_demo_job(scheduler)
    stop = threading.Event()
    thread = threading.Thread(target=scheduler.run_forever, args=(stop,),
                              daemon=True)
    thread.start()
    try:
        for _ in range(200):
            if job.state == FAILED:
                break
            threading.Event().wait(0.02)
    finally:
        stop.set()
        thread.join(timeout=5.0)
    assert job.state == FAILED
    assert "scheduler failure" in job.error
    assert scheduler.tracer.metrics.counter("serve.job.crashed") == 1
    assert not thread.is_alive()


def test_the_crash_path_emits_the_terminal_state_and_releases(tmp_path):
    def broken_sweep(plans, config=None, max_workers=None, backend=None):
        raise RuntimeError("scheduler bug")

    released = []
    scheduler = make_scheduler(tmp_path, sweep_fn=broken_sweep,
                               on_terminal=released.append)
    job = submit_demo_job(scheduler)
    stop = threading.Event()
    thread = threading.Thread(target=scheduler.run_forever, args=(stop,),
                              daemon=True)
    thread.start()
    try:
        assert wait_until(lambda: released == [job], timeout_s=30.0)
    finally:
        stop.set()
        thread.join(timeout=5.0)
    states = [event.attributes["state"]
              for event in scheduler.event_log.events()
              if event.kind == JOB_STATE]
    assert states == ["running", FAILED]


def test_a_submit_wakes_an_idle_scheduler(tmp_path, monkeypatch):
    """With the idle wait stretched to 30 s, only the submit's wake
    can start the job inside the 10 s window."""
    monkeypatch.setattr(scheduler_module, "IDLE_WAIT_S", 30.0)
    swept = threading.Event()

    def sweep(plans, **kwargs):
        swept.set()
        return explore_many(plans, **kwargs)

    scheduler = make_scheduler(tmp_path, sweep_fn=sweep)
    stop = threading.Event()
    thread = threading.Thread(target=scheduler.run_forever, args=(stop,),
                              daemon=True)
    thread.start()
    try:
        # Idle first: the scheduler is waiting on the empty queue.
        assert not swept.wait(0.2)
        submitter = threading.Thread(target=submit_demo_job,
                                     args=(scheduler,), daemon=True)
        submitter.start()
        assert swept.wait(10.0)
    finally:
        stop.set()
        scheduler.queue.wake()
        thread.join(timeout=10.0)
    assert not thread.is_alive()


# ---------------------------------------------------------------------------
# Crash-safety: the journal is the restart story
# ---------------------------------------------------------------------------

class FlakyJournal(JobJournal):
    """Raises on the Nth write — the injected crash point."""

    def __init__(self, directory, fail_at):
        super().__init__(directory)
        self.fail_at = fail_at
        self.writes = 0

    def write(self, job):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError("injected crash between journal writes")
        super().write(job)


def _crashing_scheduler(tmp_path, sweep_fn, fail_at, registry):
    tracer = Tracer()
    return Scheduler(
        queue=JobQueue(metrics=tracer.metrics),
        journal=FlakyJournal(tmp_path / "journal", fail_at=fail_at),
        registry=registry,
        sweep_fn=sweep_fn,
        tracer=tracer,
        event_log=EventLog(),
    )


def _resume(tmp_path, sweep_fn, registry):
    """A restarted service: fresh queue + scheduler over the same
    journal directory, re-admitting the journaled in-flight jobs."""
    journal = JobJournal(tmp_path / "journal")
    scheduler = Scheduler(queue=JobQueue(), journal=journal,
                          registry=registry, sweep_fn=sweep_fn)
    for job in journal.in_flight():
        scheduler.queue.restore(job)
    resumed = scheduler.queue.next_job()
    if resumed is not None:
        scheduler.run_job(resumed)
    return resumed


def test_crash_mid_job_resumes_without_reanalysis(tmp_path):
    """Crash after round 0 is journaled: the restart re-analyzes only
    the apps without a journaled row, and the registry gets exactly
    one record."""
    registry = RunRegistry(tmp_path / "runs")
    # Writes: 1 = running, 2 = after round 0, 3 = after round 1.
    crashy = _crashing_scheduler(tmp_path, scripted_sweep({BETA: 1}),
                                 fail_at=3, registry=registry)
    job = submit_demo_job(crashy)
    with pytest.raises(OSError, match="injected crash"):
        crashy.run_job(job)
    assert registry.list() == []  # crashed before the terminal record

    resume_sweep = scripted_sweep({})
    resumed = _resume(tmp_path, resume_sweep, registry)
    assert resumed is not None and resumed.state == DONE
    # Only the unfinished app was swept again.
    assert resume_sweep.calls == [[BETA]]
    assert sorted(resumed.completed) == sorted(DEMO_APPS)
    # Re-admission budgets survive the restart too.
    assert resumed.attempts == {BETA: 1}
    assert len(registry.list()) == 1


def test_crash_between_registry_and_journal_does_not_duplicate(tmp_path):
    """Crash after the registry record but before the terminal journal
    write: the restart re-records the identical content-addressed
    payload, so the registry still holds exactly one record."""
    registry = RunRegistry(tmp_path / "runs")
    # Writes: 1 = running, 2 = after the only round, 3 = terminal.
    crashy = _crashing_scheduler(tmp_path, scripted_sweep({}),
                                 fail_at=3, registry=registry)
    job = submit_demo_job(crashy)
    with pytest.raises(OSError, match="injected crash"):
        crashy.run_job(job)
    assert len(registry.list()) == 1  # the record made it out

    resume_sweep = scripted_sweep({})
    resumed = _resume(tmp_path, resume_sweep, registry)
    assert resumed is not None and resumed.state == DONE
    assert resume_sweep.calls == []  # nothing left to analyze
    records = registry.list()
    assert len(records) == 1  # identical payload, same run id
    assert resumed.run_id == records[0].run_id


# ---------------------------------------------------------------------------
# Integration: real killed worker processes
# ---------------------------------------------------------------------------

def test_real_worker_death_recovery_end_to_end(tmp_path, monkeypatch):
    """A process-backend job whose worker is SIGKILLed mid-chunk
    completes after re-admission, and its rows match a clean run.  The
    clean run goes first, so the kill is set after its pool forked and
    the killed job's first round leases that warm pool."""
    clean = make_scheduler(tmp_path / "clean")
    clean_job = submit_demo_job(clean, backend="process", workers=2,
                                time_budget_s=120.0)
    clean.run_job(clean_job)

    monkeypatch.setenv("FRAGDROID_CHAOS_KILL", f"{BETA}:1")
    monkeypatch.setenv("FRAGDROID_CHAOS_KILL_STATE",
                       str(tmp_path / "chaos"))
    scheduler = make_scheduler(tmp_path)
    job = submit_demo_job(scheduler, backend="process", workers=2,
                          time_budget_s=120.0)
    scheduler.run_job(job)
    assert job.state == DONE
    assert all(row["ok"] for row in job.completed.values())
    counters = scheduler.tracer.metrics.counters()
    assert counters["sweep.worker.died"] >= 1
    assert counters["serve.readmitted"] >= 1
    assert _rows_sans_duration(job) == _rows_sans_duration(clean_job)

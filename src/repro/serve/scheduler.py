"""The supervised job scheduler: sweeps with a safety net.

One :class:`Scheduler` drains the admission-controlled
:class:`~repro.serve.jobs.JobQueue` and runs each job as a sequence of
*rounds* over the existing sweep machinery
(:func:`repro.bench.parallel.explore_many`, thread or process
backend).  What turns the batch sweep into a service is everything
around the rounds:

* **Worker-death recovery** — a process-backend worker killed mid-chunk
  surfaces as ``fault_kind "worker-died"`` outcomes (the
  ``BrokenProcessPool`` handling in ``bench.parallel``).  The scheduler
  re-admits exactly those apps into the next round, with backoff from
  the existing :class:`~repro.faults.RetryPolicy`; each death is a
  strike in a :class:`~repro.faults.WidgetQuarantine`-style circuit
  breaker, and after ``max_restarts`` re-admissions the app is
  quarantined and recorded as *failed* — bounded requeue, never an
  infinite loop, never a silently dropped app.
* **Watchdog** — each round runs under the job's remaining wall-clock
  budget; a sweep that hangs past it is abandoned (the thread is
  daemonized, so a wedged pool cannot wedge the service) and the job
  fails with its unfinished apps recorded as ``hung``.
* **Crash-safe journaling** — the job snapshot is journaled after every
  round, so a service restart resumes mid-job without re-analyzing any
  app whose row was already journaled.
* **One static analysis per APK** — every job's sweep shares the
  scheduler's memory-only :class:`~repro.static.cache.StaticCache`, so
  an app the service has analysed skips decode and Algorithms 1–3 (by
  APK digest; its LRU bound exceeds the apps the default resolver
  admits).  A hit shares its miss's decoded APK, so rows, records and
  explanations match a fresh run's.
* **Registry hand-off** — a terminal ``done``/``failed`` job lands as
  one content-addressed record in the
  :class:`~repro.obs.registry.RunRegistry`, its ``meta`` carrying the
  job id and the degradation account (deaths, re-admissions,
  quarantines), exactly once even across restarts.
* **Release** — every path into a terminal state (``_finish``, the
  crash path of :meth:`Scheduler.run_forever`) publishes the terminal
  ``job.state`` event before the job reads terminal, and then calls
  ``on_terminal(job)``; the service passes the hook that moves the
  job's events and spans out of memory.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from repro import FragDroidConfig
from repro.bench.parallel import SweepOutcome, explore_many, sweep_rows
from repro.corpus.synth import AppPlan
from repro.corpus.table1_apps import plan_for
from repro.errors import AdmissionError
from repro.faults import RetryPolicy, SimulatedClock, WidgetQuarantine
from repro.obs import NULL_EVENT_LOG, NULL_TRACER, EventLog, Tracer
from repro.obs.events import (
    JOB_APP_DONE,
    JOB_READMITTED,
    JOB_ROUND,
    JOB_STATE,
    JOB_WORKER_DIED,
)
from repro.obs.registry import (
    RunRegistry,
    capture_run_record,
    corpus_digest_of,
)
from repro.serve.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    RUNNING,
    Job,
    JobQueue,
)
from repro.serve.journal import JobJournal
from repro.static.cache import StaticCache

#: How long an idle scheduler waits for work before it looks at its
#: stop event again; a submit (or the service's stop) wakes it sooner.
IDLE_WAIT_S = 1.0

#: Fault kinds the scheduler re-admits: the app did not fail, its
#: execution vehicle did.
_READMIT_KINDS = frozenset({"worker-died"})

#: Tiny demo corpus for service smoke tests: three healthy apps small
#: enough that a full job finishes in seconds.
SERVE_DEMO_PLANS = (
    AppPlan(package="com.serve.demo.alpha", visited_activities=2,
            visited_fragments=1),
    AppPlan(package="com.serve.demo.beta", visited_activities=3),
    AppPlan(package="com.serve.demo.gamma", visited_activities=2,
            visited_fragments=2),
)


def default_resolver(name: str) -> AppPlan:
    """App name -> plan, over the Table-I corpus and the serve demos.

    Unknown names raise :class:`~repro.errors.AdmissionError` — the
    submit is rejected up front, not after the job is queued.
    """
    for plan in SERVE_DEMO_PLANS:
        if plan.package == name:
            return plan
    try:
        return plan_for(name)
    except KeyError:
        raise AdmissionError(
            f"unknown app {name!r}; known apps are the Table-I corpus "
            f"and the serve demos "
            f"({', '.join(p.package for p in SERVE_DEMO_PLANS)})"
        ) from None


class WallClock:
    """The production sleeper (tests pass a SimulatedClock instead)."""

    def __init__(self) -> None:
        self.now = 0.0

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)
        self.now += seconds


class Scheduler:
    """Runs queued jobs with recovery, journaling and registry hand-off.

    ``sweep_fn`` is the round primitive (default
    :func:`~repro.bench.parallel.explore_many`); tests inject a fake to
    script worker deaths and hangs without real process pools.
    ``backoff_clock`` spaces re-admission rounds under ``retry_policy``
    — the default :class:`~repro.faults.SimulatedClock` makes recovery
    immediate and deterministic; pass :class:`WallClock` to actually
    wait.  ``wall`` is the watchdog's monotonic time source.
    ``on_terminal`` runs once per job, after its terminal ``job.state``
    event has reached every sink.
    """

    def __init__(
        self,
        queue: JobQueue,
        journal: JobJournal,
        registry: Optional[RunRegistry] = None,
        resolver: Callable[[str], AppPlan] = default_resolver,
        sweep_fn: Callable[..., Dict[str, SweepOutcome]] = explore_many,
        max_restarts: int = 2,
        retry_policy: Optional[RetryPolicy] = None,
        backoff_clock=None,
        tracer: Tracer = NULL_TRACER,
        event_log: EventLog = NULL_EVENT_LOG,
        wall: Callable[[], float] = time.monotonic,
        on_terminal: Optional[Callable[[Job], None]] = None,
    ) -> None:
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, "
                             f"got {max_restarts}")
        self.queue = queue
        self.journal = journal
        self.registry = registry
        self.resolver = resolver
        self.sweep_fn = sweep_fn
        self.max_restarts = max_restarts
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=max_restarts + 1, max_total_delay=30.0)
        self.backoff_clock = backoff_clock or SimulatedClock()
        self.tracer = tracer
        self.event_log = event_log
        self.wall = wall
        self.on_terminal = on_terminal or (lambda job: None)
        self.static_cache = StaticCache()
        # Live sweep outcomes per running job, so the terminal record
        # can be explained (per-target miss causes) before the results
        # are dropped.  Journal-resumed rows have no outcome — their
        # apps are simply absent from the job's explanation.
        self._live_outcomes: Dict[str, Dict[str, SweepOutcome]] = {}
        # Each running job's view of the event log, bound with its id:
        # everything the job causes is stamped, and the explorer's
        # ``result.events`` reads only the job's own events.
        self._job_logs: Dict[str, EventLog] = {}

    # -- the service loop ----------------------------------------------------

    def run_forever(self, stop: threading.Event) -> None:
        """Drain the queue until ``stop`` is set, waiting on the queue
        while it is idle.  A job whose run raises (a scheduler bug, a
        full disk) is marked failed — one broken job never takes the
        service down."""
        while not stop.is_set():
            job = self.queue.next_job(timeout=IDLE_WAIT_S)
            if job is None:
                continue
            try:
                self.run_job(job)
            except Exception as exc:  # noqa: BLE001 - service supervisor
                self.tracer.inc("serve.job.crashed")
                self._live_outcomes.pop(job.job_id, None)
                self._publish_terminal(
                    job, self.event_log.bind(job=job.job_id), FAILED,
                    f"scheduler failure: {exc!r}", round(time.time(), 3),
                    journal_errors=OSError)
                self.on_terminal(job)

    # -- one job -------------------------------------------------------------

    def run_job(self, job: Job) -> Job:
        """Run one admitted job to a terminal state.

        Everything the job does — the ``queue.wait`` it already paid,
        every ``schedule.round``, every worker's spans (thread or
        process backend) — lands on one trace, the job's ``trace_id``,
        so collapsed-stack flamegraphs show one tree per job.
        """
        trace = job.trace_id or None
        wait_s = max(0.0, time.time() - job.created)
        # The wait is only known at pickup — record it retrospectively.
        self.tracer.record_span("queue.wait", wait_s, trace_id=trace,
                                job=job.job_id)
        self.tracer.observe("serve.queue.wait_s", wait_s)
        self.tracer.observe("serve.queue.depth", float(self.queue.depth()))
        self._job_logs[job.job_id] = self.event_log.bind(job=job.job_id)
        try:
            with self.tracer.trace_span("job.run", trace, job=job.job_id,
                                        apps=len(job.apps)):
                state, error = self._run_admitted(job)
            # job.run closes before the terminal state is published, so
            # a reader that sees the job finished sees its whole trace.
            return self._finish(job, state, error)
        finally:
            self._job_logs.pop(job.job_id, None)

    def _events(self, job: Job) -> EventLog:
        """The running job's view of the event log."""
        return self._job_logs[job.job_id]

    def _run_admitted(self, job: Job) -> Tuple[str, str]:
        """Sweep the job's apps round by round; the terminal state and
        error it ends in, for :meth:`_finish` to publish."""
        job.state = RUNNING
        job.started = job.started or round(time.time(), 3)
        self.tracer.observe("serve.job.start_s",
                            max(0.0, job.started - job.created))
        self.journal.write(job)
        self._events(job).emit(JOB_STATE, state=job.state, error=job.error)
        deadline = self.wall() + job.time_budget_s

        # Re-seed the circuit breaker from journaled attempts, so a
        # restarted service does not grant a fresh restart budget.
        quarantine = WidgetQuarantine(threshold=self.max_restarts + 1)
        for package, strikes in job.attempts.items():
            for _ in range(strikes):
                quarantine.record(package, "worker-died")

        plans = [self.resolver(name) for name in job.remaining()]
        backed_off = 0.0
        round_index = 0
        while plans:
            if job.cancel_requested:
                return CANCELLED, "cancelled mid-flight"
            # Round 0 sweeps the whole job at once.  Re-admission
            # rounds sweep one app per pool, so a poison app that keeps
            # killing its worker can never take a surviving app's
            # retry down with it (a broken pool fails every chunk
            # still pending in it).
            batches = ([plans] if round_index == 0
                       else [[plan] for plan in plans])
            outcomes: Dict[str, SweepOutcome] = {}
            failure = ""
            with self.tracer.span("schedule.round", job=job.job_id,
                                  round=round_index,
                                  apps=len(plans)) as round_span:
                for batch in batches:
                    remaining_s = deadline - self.wall()
                    if remaining_s <= 0:
                        failure = failure or "timeout"
                        break
                    part = self._guarded_sweep(job, batch, remaining_s)
                    if part is None:
                        # The hang consumed the remaining budget; stop.
                        failure = "hung"
                        break
                    outcomes.update(part)
                if failure:
                    round_span.set_attribute("failure", failure)
            requeue: List[AppPlan] = []
            for plan in plans:
                outcome = outcomes.get(plan.package)
                if outcome is None:
                    continue  # unfinished: handled by the failure path
                if outcome.fault_kind in _READMIT_KINDS:
                    if self._readmit(job, plan, quarantine):
                        requeue.append(plan)
                        continue
                self._complete_app(job, outcome)
            self.journal.write(job)
            self._events(job).emit(
                JOB_ROUND, round=round_index, apps=len(plans),
                requeued=len(requeue),
                **({"failure": failure} if failure else {}))
            if failure:
                unfinished = [plan for plan in plans
                              if plan.package not in job.completed]
                self._record_unfinished(job, unfinished, failure)
                return FAILED, (
                    f"{'watchdog: sweep hung past' if failure == 'hung' else 'exhausted'} "
                    f"the time budget ({job.time_budget_s:g}s) with "
                    f"{len(unfinished)} app(s) unfinished")
            if requeue:
                delay = self.retry_policy.delay_for(round_index,
                                                    elapsed=backed_off)
                backed_off += delay
                self.tracer.observe("serve.retry.delay_s", delay)
                self.backoff_clock.sleep(delay)
                round_index += 1
            plans = requeue
        if job.cancel_requested:
            return CANCELLED, "cancelled mid-flight"
        return DONE, ""

    # -- round plumbing ------------------------------------------------------

    def _guarded_sweep(self, job: Job, plans: List[AppPlan],
                       timeout_s: float,
                       ) -> Optional[Dict[str, SweepOutcome]]:
        """One sweep round under the watchdog; None when it hung."""
        box: Dict[str, object] = {}

        def run() -> None:
            try:
                box["outcomes"] = self.sweep_fn(
                    plans, config=self._job_config(job),
                    max_workers=job.workers, backend=job.backend)
            except BaseException as exc:  # noqa: BLE001 - crosses threads
                box["error"] = exc

        thread = threading.Thread(target=run, daemon=True,
                                  name=f"serve-sweep-{job.job_id}")
        thread.start()
        thread.join(timeout=timeout_s)
        if thread.is_alive():
            self.tracer.inc("serve.watchdog.hung")
            return None
        if "error" in box:
            raise box["error"]  # type: ignore[misc]
        return box["outcomes"]  # type: ignore[return-value]

    def _job_config(self, job: Job,
                    observed: bool = True) -> FragDroidConfig:
        """A fresh per-round config: the job's budgets plus (when
        ``observed``) the service's shared observers and static cache
        (which a process worker receives as no cache).  No registry —
        the scheduler writes the one terminal record itself.  The
        terminal record passes ``observed=False`` so each job's record
        carries its own fingerprint, not the whole service's spans."""
        config = FragDroidConfig(
            max_events=job.max_events,
            fault_profile=job.fault_profile,
            fault_seed=job.fault_seed,
        )
        if observed:
            config.tracer = self.tracer
            config.event_log = self._events(job)
            # Worker spans — thread or process backend — land on the
            # job's trace (observer-only: not part of the fingerprint).
            config.trace_id = job.trace_id or None
            config.static_cache = self.static_cache
        return config

    def _readmit(self, job: Job, plan: AppPlan,
                 quarantine: WidgetQuarantine) -> bool:
        """Count one worker-killing strike; True to requeue the app,
        False once its restart budget is spent (it gets a failed row)."""
        package = plan.package
        quarantine.record(package, "worker-died")
        self.tracer.inc("serve.worker.deaths")
        self._events(job).emit(JOB_WORKER_DIED, app=package,
                               strikes=quarantine.strikes(package))
        if not quarantine.blocked(package):
            job.attempts[package] = job.attempts.get(package, 0) + 1
            self.tracer.inc("serve.readmitted")
            self._events(job).emit(JOB_READMITTED, app=package)
            return True
        if package not in job.quarantined:
            job.quarantined.append(package)
        self.tracer.inc("serve.quarantined")
        return False

    def _complete_app(self, job: Job, outcome: SweepOutcome) -> None:
        row = sweep_rows({outcome.package: outcome})[0]
        row["apk_digest"] = outcome.apk_digest
        job.completed[outcome.package] = row
        self._live_outcomes.setdefault(job.job_id, {})[
            outcome.package] = outcome
        self._events(job).emit(JOB_APP_DONE, app=outcome.package,
                               ok=outcome.ok)

    def _record_unfinished(self, job: Job, plans: List[AppPlan],
                           kind: str) -> None:
        """Never drop an app silently: unfinished work gets explicit
        failed rows (fault kind ``timeout``/``hung``)."""
        for plan in plans:
            job.completed[plan.package] = {
                "package": plan.package,
                "ok": False,
                "duration_s": 0.0,
                "fault_kind": kind,
                "activities_visited": 0, "activities_sum": 0,
                "fragments_visited": 0, "fragments_sum": 0,
                "apis": 0, "events": 0, "crashes": 0,
                "apk_digest": None,
            }

    # -- terminal transition -------------------------------------------------

    def _finish(self, job: Job, state: str, error: str) -> Job:
        finished = round(time.time(), 3)
        if job.started:
            self.tracer.observe("serve.job.run_s",
                                max(0.0, finished - job.started))
        if state in (DONE, FAILED) and self.registry is not None:
            # The run record and explanation exist before any reader
            # can see the terminal state, so run_id lands first.
            job.run_id = self._record_run(job, state)
        self._live_outcomes.pop(job.job_id, None)
        self._publish_terminal(job, self._events(job), state, error,
                               finished)
        self.tracer.inc(f"serve.jobs.{state}")
        self.on_terminal(job)
        return job

    def _record_run(self, job: Job, state: str) -> str:
        rows = [job.completed[package] for package in sorted(job.completed)]
        census: Dict[str, int] = {}
        for row in rows:
            if not row.get("ok", True):
                kind = row.get("fault_kind") or "other"
                census[kind] = census.get(kind, 0) + 1
        record = capture_run_record(
            "serve-job",
            config=self._job_config(job, observed=False),
            apps=[{key: value for key, value in row.items()
                   if key != "apk_digest"} for row in rows],
            fault_census=census,
            corpus_digest=corpus_digest_of(
                {row["package"]: row.get("apk_digest") for row in rows}),
            meta={
                "job_id": job.job_id,
                "backend": job.backend,
                "workers": job.workers,
                "state": state,
                "degradation": job.degradation(),
            },
        )
        run_id = self.registry.record(record)
        self._record_explanation(job, run_id)
        return run_id

    def _record_explanation(self, job: Job, run_id: str) -> None:
        """Explain the job's misses and store the artifact next to its
        run record, so ``GET /jobs/<id>/explanation`` and ``repro
        explain <run id>`` answer from the same file.  Best-effort: an
        attribution failure never fails the job."""
        outcomes = self._live_outcomes.get(job.job_id) or {}
        if not outcomes:
            return
        from repro.obs.attribution import ExplanationStore, explain_outcomes

        try:
            explanation = explain_outcomes(
                outcomes, label="serve-job", source_run_id=run_id,
                meta={"job_id": job.job_id}, event_log=self._events(job))
            ExplanationStore(self.registry.directory).save(explanation)
        except Exception:  # noqa: BLE001 - post-hoc analysis only
            self.tracer.inc("serve.explanation.failed")

    def _publish_terminal(self, job: Job, events: EventLog, state: str,
                          error: str, finished: float,
                          journal_errors=()) -> None:
        """Journal ``job``'s terminal snapshot (skipping a write that
        raises ``journal_errors``), file its terminal ``job.state``
        event, and only then set the shared job's state: a reader that
        sees it terminal finds that event in its history."""
        try:
            self.journal.write(replace(job, state=state, error=error,
                                       finished=finished))
        except journal_errors:
            pass
        events.emit(JOB_STATE, state=state, error=error)
        job.error = error
        job.finished = finished
        job.state = state

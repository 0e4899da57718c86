"""The job model and admission-controlled queue of the analysis service.

A :class:`Job` is one analysis request — a list of corpus apps plus its
budgets — moving through a fixed lifecycle::

    submitted -> admitted -> running -> done
                                     -> failed
              -> cancelled (any non-terminal state)

The :class:`JobQueue` is where admission control lives: every submit is
validated against the server's :class:`JobLimits` *before* it is
queued, and a queue already at its depth bound rejects the submit with
a typed :class:`~repro.errors.QueueFullError` (backpressure — the
client resubmits later) instead of growing without bound.  Every
rejection is counted in the queue's metrics, so overload is observable,
never silent.

Jobs are plain data: :meth:`Job.to_dict`/:meth:`Job.from_dict` round-
trip through JSON, which is what the crash-safe journal
(:mod:`repro.serve.journal`) persists and the HTTP API serves.
"""

from __future__ import annotations

import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, List, Optional

from repro.bench.parallel import BACKENDS
from repro.errors import (
    AdmissionError,
    JobBudgetError,
    JobStateError,
    QueueFullError,
    UnknownJobError,
)
from repro.obs.metrics import NULL_METRICS, Metrics
from repro.store import check_schema, shaped_fields

#: Bump whenever the journaled job shape changes; journal entries
#: written by another schema version are skipped, never mis-parsed.
#: v2 added the correlation ``trace_id``.
JOB_SCHEMA = 2

# -- lifecycle states --------------------------------------------------------

SUBMITTED = "submitted"    # accepted by admission control, not yet queued
ADMITTED = "admitted"      # waiting in the queue for a scheduler slot
RUNNING = "running"        # the scheduler is sweeping its apps
DONE = "done"              # every app has a journaled outcome
FAILED = "failed"          # the job as a whole failed (budget, crash)
CANCELLED = "cancelled"    # cancelled before completion

JOB_STATES = (SUBMITTED, ADMITTED, RUNNING, DONE, FAILED, CANCELLED)
ACTIVE_STATES = frozenset({SUBMITTED, ADMITTED, RUNNING})
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})


@dataclass(frozen=True)
class JobLimits:
    """The server's admission caps, validated at submit time.

    A submit beyond any cap is rejected with a typed
    :class:`~repro.errors.JobBudgetError` — the service never accepts
    work it is not configured to finish.
    """

    queue_depth: int = 16
    max_apps: int = 500
    max_events_cap: int = 20000
    max_time_budget_s: float = 3600.0

    def __post_init__(self) -> None:
        for rail in ("queue_depth", "max_apps", "max_events_cap"):
            value = getattr(self, rail)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise ValueError(
                    f"{rail} must be a positive integer, got {value!r}")
        if self.max_time_budget_s <= 0:
            raise ValueError(f"max_time_budget_s must be positive, "
                             f"got {self.max_time_budget_s!r}")


def new_job_id() -> str:
    """A fresh, unguessable job id (jobs are identities, not content —
    two identical submissions are two jobs)."""
    return uuid.uuid4().hex[:12]


@dataclass
class Job:
    """One analysis request and everything the service knows about it."""

    apps: List[str]
    job_id: str = field(default_factory=new_job_id)
    state: str = SUBMITTED
    # Per-job budgets, validated against JobLimits at submit.
    max_events: int = 2000
    time_budget_s: float = 300.0
    # Execution knobs (the sweep contract of bench.parallel).
    backend: str = "thread"
    workers: Optional[int] = None
    fault_profile: str = "none"
    fault_seed: int = 0
    # Lifecycle timestamps (wall clock, 0.0 until reached).
    created: float = field(default_factory=lambda: round(time.time(), 3))
    started: float = 0.0
    finished: float = 0.0
    # package -> sweep row (the bench.parallel.sweep_rows shape): the
    # journaled per-app outcomes.  An app present here is never
    # re-analyzed, even across a service restart.
    completed: Dict[str, Dict] = field(default_factory=dict)
    # package -> worker-death re-admissions spent so far.
    attempts: Dict[str, int] = field(default_factory=dict)
    # Apps whose worker-killing strikes tripped the circuit breaker.
    quarantined: List[str] = field(default_factory=list)
    # Why the job failed / was cancelled ("" while healthy).
    error: str = ""
    # Cooperative cancellation: checked by the scheduler between rounds.
    cancel_requested: bool = False
    # The run-registry record id once the job is done.
    run_id: str = ""
    # Correlation id for the job's one trace: assigned at submit from
    # the server tracer's id space, stamped on every span the job's
    # rounds and workers record (0 = none assigned — tracing off).
    trace_id: int = 0
    schema: int = JOB_SCHEMA

    # -- views ---------------------------------------------------------------

    def remaining(self) -> List[str]:
        """Apps without a journaled outcome yet, in submit order."""
        return [app for app in self.apps if app not in self.completed]

    @property
    def active(self) -> bool:
        return self.state in ACTIVE_STATES

    def degradation(self) -> Dict[str, object]:
        """The job's account of its own adversity: worker deaths
        absorbed, re-admissions spent, apps abandoned to quarantine."""
        failed = sorted(package for package, row in self.completed.items()
                        if not row.get("ok", True))
        return {
            "worker_deaths": int(sum(self.attempts.values())),
            "readmitted_apps": sorted(self.attempts),
            "quarantined_apps": list(self.quarantined),
            "failed_apps": failed,
        }

    def summary_row(self) -> Dict[str, object]:
        """The compact row the job listing renders."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "apps": len(self.apps),
            "completed": len(self.completed),
            "failed": sum(1 for row in self.completed.values()
                          if not row.get("ok", True)),
            "created": self.created,
            "error": self.error,
            "run_id": self.run_id,
        }

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "job_id": self.job_id,
            "state": self.state,
            "apps": list(self.apps),
            "max_events": self.max_events,
            "time_budget_s": self.time_budget_s,
            "backend": self.backend,
            "workers": self.workers,
            "fault_profile": self.fault_profile,
            "fault_seed": self.fault_seed,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "completed": {package: dict(row)
                          for package, row in self.completed.items()},
            "attempts": dict(self.attempts),
            "quarantined": list(self.quarantined),
            "error": self.error,
            "cancel_requested": self.cancel_requested,
            "run_id": self.run_id,
            "trace_id": self.trace_id,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "Job":
        """The job ``data`` holds.  Raises
        :class:`~repro.errors.StoreError` for anything else: a
        non-object, another schema, a field of the wrong shape.  An
        absent ``created`` reads 0.0 and an absent or empty ``job_id``
        a fresh id."""
        check_schema(data, JOB_SCHEMA, "job")
        fields = {"apps": [], "created": 0.0,
                  **shaped_fields(data, _JOB_SHAPE, "job")}
        if not fields.get("job_id"):
            fields["job_id"] = new_job_id()
        return cls(**fields)


#: What :meth:`Job.to_dict` writes (see :func:`repro.store.check_shape`).
_JOB_SHAPE = {
    "schema": int, "?job_id": str, "?state": frozenset(JOB_STATES),
    "?apps": [str], "?max_events": int, "?time_budget_s": float,
    "?backend": str, "?workers": (int, type(None)), "?fault_profile": str,
    "?fault_seed": int, "?created": float, "?started": float,
    "?finished": float, "?completed": {str: dict}, "?attempts": {str: int},
    "?quarantined": [str], "?error": str, "?cancel_requested": bool,
    "?run_id": str, "?trace_id": int,
}


# ---------------------------------------------------------------------------
# The queue
# ---------------------------------------------------------------------------

class JobQueue:
    """Bounded, admission-controlled FIFO of jobs.

    ``submit`` validates and either admits (state ``admitted``) or
    raises a typed :class:`~repro.errors.AdmissionError` subclass —
    nothing is ever queued past ``limits.queue_depth`` and every
    rejection lands in the metrics (``serve.rejected.*``).  The
    scheduler drains with ``next_job``, which can wait for work:
    ``submit`` and ``restore`` wake it, and so does ``wake`` (the
    service calls it on stop).  Terminal jobs stay readable by id so
    clients can poll a finished job's status.
    """

    def __init__(self, limits: Optional[JobLimits] = None,
                 metrics: Metrics = NULL_METRICS) -> None:
        self.limits = limits or JobLimits()
        self.metrics = metrics
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._jobs: Dict[str, Job] = {}
        self._pending: Deque[str] = deque()

    # -- admission -----------------------------------------------------------

    def validate(self, job: Job) -> None:
        """Admission-control validation; raises on any violation."""
        if not job.apps:
            raise JobBudgetError("a job needs at least one app")
        if len(job.apps) > self.limits.max_apps:
            raise JobBudgetError(
                f"job asks for {len(job.apps)} apps; this server admits "
                f"at most {self.limits.max_apps} per job")
        if len(set(job.apps)) != len(job.apps):
            raise AdmissionError("duplicate apps in one job")
        if not isinstance(job.max_events, int) \
                or isinstance(job.max_events, bool) or job.max_events < 1:
            raise JobBudgetError(
                f"max_events must be a positive integer, "
                f"got {job.max_events!r}")
        if job.max_events > self.limits.max_events_cap:
            raise JobBudgetError(
                f"max_events {job.max_events} exceeds the server cap "
                f"{self.limits.max_events_cap}")
        if job.time_budget_s <= 0:
            raise JobBudgetError(
                f"time_budget_s must be positive, got {job.time_budget_s!r}")
        if job.time_budget_s > self.limits.max_time_budget_s:
            raise JobBudgetError(
                f"time_budget_s {job.time_budget_s} exceeds the server cap "
                f"{self.limits.max_time_budget_s}")
        if job.backend not in BACKENDS:
            raise AdmissionError(
                f"unknown backend {job.backend!r}; choose from {BACKENDS}")
        if job.workers is not None and job.workers < 1:
            raise JobBudgetError(
                f"workers must be a positive integer, got {job.workers!r}")

    def submit(self, job: Job,
               on_admit: Optional[Callable[[Job], None]] = None) -> Job:
        """Admit a job or raise; full queues raise
        :class:`~repro.errors.QueueFullError` (counted), they never
        grow past the bound.  ``on_admit`` runs once the job is
        admitted and before the scheduler can take it, so what it
        records (the journal entry, the ``admitted`` event) precedes
        everything the job does."""
        try:
            self.validate(job)
        except AdmissionError:
            self.metrics.inc("serve.rejected.budget")
            raise
        with self._lock:
            if len(self._pending) >= self.limits.queue_depth:
                self.metrics.inc("serve.rejected.queue_full")
                raise QueueFullError(
                    f"job queue is at its bound "
                    f"({self.limits.queue_depth} pending); retry later")
            job.state = ADMITTED
            self._jobs[job.job_id] = job
            if on_admit is not None:
                try:
                    on_admit(job)
                except Exception:
                    del self._jobs[job.job_id]
                    raise
            self._pending.append(job.job_id)
            self._ready.notify()
        self.metrics.inc("serve.admitted")
        return job

    # -- draining ------------------------------------------------------------

    def next_job(self, timeout: float = 0.0) -> Optional[Job]:
        """The oldest admitted job, now ``running``; None when the
        queue stays idle for ``timeout`` seconds or a :meth:`wake`
        cuts the wait short.  Cancelled-while-queued jobs are skipped,
        not returned.  The job turns ``running`` under the queue lock,
        so a cancel from then on is the cooperative kind."""
        with self._ready:
            job = self._pop_admitted()
            if job is None and timeout > 0:
                self._ready.wait(timeout)
                job = self._pop_admitted()
            return job

    def _pop_admitted(self) -> Optional[Job]:
        while self._pending:
            job = self._jobs[self._pending.popleft()]
            if job.state == ADMITTED:
                job.state = RUNNING
                return job
        return None

    def wake(self) -> None:
        """End a waiting :meth:`next_job` now (the service is
        stopping)."""
        with self._ready:
            self._ready.notify_all()

    # -- access --------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJobError(f"no job {job_id!r}") from None

    def jobs(self) -> List[Job]:
        """Every known job, oldest submission first."""
        with self._lock:
            return sorted(self._jobs.values(),
                          key=lambda j: (j.created, j.job_id))

    def depth(self) -> int:
        with self._lock:
            return len(self._pending)

    def counts(self) -> Dict[str, int]:
        """Job tally by state (the /health payload)."""
        counts = {state: 0 for state in JOB_STATES}
        for job in self.jobs():
            counts[job.state] += 1
        return counts

    # -- cancellation --------------------------------------------------------

    def cancel(self, job_id: str,
               publish: Optional[Callable[[Job], None]] = None,
               on_cancelled: Optional[Callable[[Job], None]] = None) -> Job:
        """Cancel a queued job immediately; flag a running one for
        cooperative cancellation at its next round boundary.  Which case
        applies is decided under the queue lock, not read back from a
        state the scheduler may change meanwhile.  For a queued job,
        after the lock is released, ``publish`` gets its terminal
        snapshot, then the job turns ``cancelled``, then
        ``on_cancelled`` gets the job: a reader that sees it cancelled
        finds what ``publish`` recorded."""
        with self._lock:
            try:
                job = self._jobs[job_id]
            except KeyError:
                raise UnknownJobError(f"no job {job_id!r}") from None
            if job.state in TERMINAL_STATES:
                raise JobStateError(
                    f"job {job_id} is already {job.state}; cannot cancel")
            queued = job.state != RUNNING
            if queued:
                # Free the queue slot now — a cancelled job must not
                # keep holding the admission bound against new submits.
                # A queued job already out of the queue is mid-cancel.
                try:
                    self._pending.remove(job_id)
                except ValueError:
                    raise JobStateError(
                        f"job {job_id} is already being cancelled"
                    ) from None
            else:
                job.cancel_requested = True
        self.metrics.inc("serve.cancel_requested")
        if queued:
            ended = replace(job, state=CANCELLED,
                            finished=round(time.time(), 3),
                            error="cancelled before start")
            if publish is not None:
                publish(ended)
            job.error = ended.error
            job.finished = ended.finished
            job.state = ended.state
            if on_cancelled is not None:
                on_cancelled(job)
        return job

    # -- restart recovery ----------------------------------------------------

    def restore(self, job: Job) -> None:
        """Re-admit a journaled in-flight job after a service restart
        (its completed apps ride along, so nothing re-analyzes)."""
        with self._lock:
            if job.state in (SUBMITTED, RUNNING):
                job.state = ADMITTED
            self._jobs[job.job_id] = job
            if job.state == ADMITTED:
                self._pending.append(job.job_id)
                self._ready.notify()

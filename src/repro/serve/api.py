"""The service front door: a local HTTP/JSON API over the job fleet.

Pure stdlib (``http.server``) — no new dependencies.  One
:class:`ReproServer` owns the whole service: the admission-controlled
:class:`~repro.serve.jobs.JobQueue`, the crash-safe
:class:`~repro.serve.journal.JobJournal`, the recovering
:class:`~repro.serve.scheduler.Scheduler` (on its own thread) and the
HTTP listener (a ``ThreadingHTTPServer``, one thread per request, so a
slow poll never blocks a submit).

Endpoints::

    GET  /health            service liveness, queue depth, job counts
    GET  /metrics           counters + histogram summaries; JSON by
                            default, Prometheus text exposition under
                            ``Accept: text/plain`` or
                            ``?format=prometheus``
    GET  /jobs              every known job (summary rows)
    POST /jobs              submit a job -> 201 {"job": {...}}
    GET  /jobs/<id>         one job's full state
    GET  /jobs/<id>/logs    the job's event stream (progress)
    GET  /jobs/<id>/events  the same stream *live*, as Server-Sent
                            Events: backlog replay (after the
                            ``Last-Event-ID`` seq, when the client sends
                            one), then push until the job reaches a
                            terminal state (heartbeat comments keep
                            idle connections alive)
    POST /jobs/<id>/cancel  cancel (immediate when queued,
                            cooperative when running)
    POST /shutdown          drain and stop the service

Typed failures map onto status codes clients can switch on:
``QueueFullError`` -> **429** (backpressure: resubmit later),
``JobBudgetError``/``AdmissionError`` -> **400**, ``UnknownJobError``
-> **404**, ``JobStateError`` -> **409**.  Every error body is
``{"error": <type>, "message": <text>}``.

Every submitted job is assigned a **trace id** from the server tracer's
id space; queue-wait, scheduler rounds and worker spans all land on
that one trace (see :mod:`repro.serve.scheduler`), and the job carries
it (``"trace_id"`` in its JSON) so a client can slice the trace back
out of a spans export.
"""

from __future__ import annotations

import json
import os
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.bench.parallel import explore_many
from repro.errors import (
    AdmissionError,
    JobBudgetError,
    JobStateError,
    QueueFullError,
    ServeError,
    UnknownJobError,
)
from repro.obs import EventLog, Tracer, prometheus_text
from repro.obs.events import JOB_STATE
from repro.obs.registry import RunRegistry
from repro.serve.jobs import (
    Job,
    JobLimits,
    JobQueue,
    RUNNING,
    TERMINAL_STATES,
)
from repro.serve.journal import JobJournal
from repro.serve.scheduler import Scheduler, default_resolver
from repro.serve.stream import DEFAULT_BUFFER, EventBroker

_JOB_PATH = re.compile(r"^/jobs/([0-9a-f]+)$")
_JOB_LOGS_PATH = re.compile(r"^/jobs/([0-9a-f]+)/logs$")
_JOB_EXPLANATION_PATH = re.compile(r"^/jobs/([0-9a-f]+)/explanation$")
_JOB_EVENTS_PATH = re.compile(r"^/jobs/([0-9a-f]+)/events$")
_JOB_CANCEL_PATH = re.compile(r"^/jobs/([0-9a-f]+)/cancel$")

#: The content type Prometheus scrapers expect from a /metrics target.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Submit-payload fields a client may set; anything else is a 400 (a
#: typo'd budget name must not silently become an unbounded default).
_SUBMIT_FIELDS = frozenset({
    "apps", "max_events", "time_budget_s", "backend", "workers",
    "fault_profile", "fault_seed",
})


class ReproServer:
    """The assembled analysis service (scheduler thread + HTTP thread).

    ``port=0`` binds an ephemeral port; read the real one from
    ``self.address`` after :meth:`start`.  ``registry_dir=None`` uses
    the default run-registry location (``$FRAGDROID_RUNS_DIR``), so
    finished jobs land where ``repro runs``/``repro regress`` already
    look.
    """

    def __init__(
        self,
        journal_dir: Optional[os.PathLike] = None,
        registry_dir: Optional[os.PathLike] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        limits: Optional[JobLimits] = None,
        resolver: Callable = default_resolver,
        sweep_fn: Callable = explore_many,
        max_restarts: int = 2,
        backoff_clock=None,
        default_backend: str = "thread",
        default_workers: Optional[int] = None,
        heartbeat_s: float = 15.0,
        sse_buffer: int = DEFAULT_BUFFER,
    ) -> None:
        self.host = host
        self.port = port
        self.default_backend = default_backend
        self.default_workers = default_workers
        self.heartbeat_s = heartbeat_s
        self.tracer = Tracer()
        self.event_log = EventLog()
        self.broker = EventBroker(metrics=self.tracer.metrics,
                                  buffer=sse_buffer)
        self.event_log.add_sink(self.broker)
        self.queue = JobQueue(limits, metrics=self.tracer.metrics)
        self.journal = JobJournal(journal_dir)
        self.registry = RunRegistry(registry_dir)
        self.resolver = resolver
        self.scheduler = Scheduler(
            queue=self.queue,
            journal=self.journal,
            registry=self.registry,
            resolver=resolver,
            sweep_fn=sweep_fn,
            max_restarts=max_restarts,
            backoff_clock=backoff_clock,
            tracer=self.tracer,
            event_log=self.event_log,
        )
        self._stop = threading.Event()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._threads: list = []
        self.address: Tuple[str, int] = (host, port)
        self.resumed: int = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Resume journaled in-flight jobs, start the scheduler and the
        HTTP listener; returns the bound (host, port)."""
        for job in self.journal.in_flight():
            self.queue.restore(job)
            self.journal.write(job)
            self.resumed += 1
            self.tracer.inc("serve.resumed")
        scheduler_thread = threading.Thread(
            target=self.scheduler.run_forever, args=(self._stop,),
            name="serve-scheduler", daemon=True)
        scheduler_thread.start()
        self._threads.append(scheduler_thread)
        self._httpd = _Server((self.host, self.port), _Handler, self)
        self.address = (self._httpd.server_address[0],
                        self._httpd.server_address[1])
        http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="serve-http",
            daemon=True)
        http_thread.start()
        self._threads.append(http_thread)
        return self.address

    def stop(self, timeout: float = 5.0) -> None:
        """Stop accepting requests and let the scheduler finish its
        current round; running jobs stay journaled for the next start."""
        self._stop.set()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    @property
    def url(self) -> str:
        return f"http://{self.address[0]}:{self.address[1]}"

    @property
    def stopping(self) -> bool:
        """Whether shutdown has been requested (SSE loops drain on it)."""
        return self._stop.is_set()

    # -- operations (shared by HTTP and in-process callers) ------------------

    def submit(self, payload: Dict) -> Job:
        """Validate + admit one job from a submit payload."""
        if not isinstance(payload, dict):
            raise AdmissionError("submit payload must be a JSON object")
        unknown = set(payload) - _SUBMIT_FIELDS
        if unknown:
            raise AdmissionError(
                f"unknown submit field(s): {', '.join(sorted(unknown))}")
        apps = payload.get("apps")
        if not isinstance(apps, list) or \
                not all(isinstance(a, str) for a in apps):
            raise AdmissionError("'apps' must be a list of app names")
        try:
            job = Job(
                apps=list(apps),
                max_events=payload.get("max_events", 2000),
                time_budget_s=float(payload.get("time_budget_s", 300.0)),
                backend=str(payload.get("backend", self.default_backend)),
                workers=(int(payload["workers"])
                         if payload.get("workers") is not None
                         else self.default_workers),
                fault_profile=str(payload.get("fault_profile", "none")),
                fault_seed=int(payload.get("fault_seed", 0)),
            )
        except (TypeError, ValueError) as exc:
            raise JobBudgetError(f"malformed submit payload: {exc}") from exc
        # The submit span roots the job's one trace: its trace id is
        # stamped on the job, and the scheduler hangs queue.wait,
        # schedule.round and every worker's spans off the same id.
        with self.tracer.span("job.submit", job=job.job_id,
                              apps=len(job.apps)) as span:
            job.trace_id = span.trace_id
            for app in job.apps:
                self.resolver(app)  # unknown apps are an admission failure
            self.queue.submit(job)
        self.journal.write(job)
        self.event_log.emit(JOB_STATE, job=job.job_id, state=job.state,
                            error="")
        return job

    def cancel(self, job_id: str) -> Job:
        job = self.queue.cancel(job_id)
        if job.state != RUNNING:
            self.journal.write(job)
        return job

    def job_logs(self, job_id: str) -> list:
        """The job's events: exactly those stamped with its id."""
        job = self.queue.get(job_id)  # 404 on unknown ids
        return [event.to_dict() for event in self.broker.history(job.job_id)]

    def job_explanation(self, job_id: str) -> Dict:
        """The job's coverage explanation (miss causes per unreached
        target), computed at the terminal transition and stored next to
        the job's run record."""
        from repro.obs.attribution import ExplanationStore

        job = self.queue.get(job_id)  # 404 on unknown ids
        if not job.run_id:
            raise JobStateError(
                f"job {job_id} has no recorded run yet (state "
                f"{job.state!r}) — explanations exist once the job is "
                "terminal")
        try:
            explanation = ExplanationStore(
                self.registry.directory).load(job.run_id)
        except (KeyError, ValueError, OSError) as exc:
            raise UnknownJobError(
                f"no stored explanation for job {job_id} "
                f"(run {job.run_id}): {exc}") from exc
        return explanation.to_dict()

    def metrics_snapshot(self) -> Dict:
        """Counters *and* histogram summaries (count/sum/min/max/mean
        plus p50/p90/p99) — the /metrics JSON body."""
        return self.tracer.metrics.snapshot()

    def health(self) -> Dict:
        return {
            "ok": True,
            "queue_depth": self.queue.depth(),
            "queue_bound": self.queue.limits.queue_depth,
            "jobs": self.queue.counts(),
            "resumed": self.resumed,
        }


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, repro: ReproServer) -> None:
        self.repro = repro
        super().__init__(address, handler)


class _Handler(BaseHTTPRequestHandler):
    server: _Server  # narrowed for attribute access

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # the event log is the service's record, not stderr

    def _json(self, status: int, payload: Dict) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, exc: Exception) -> None:
        self._json(status, {"error": type(exc).__name__,
                            "message": str(exc)})

    def _body(self) -> Dict:
        length = int(self.headers.get("Content-Length", 0) or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise AdmissionError(f"request body is not JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise AdmissionError("request body must be a JSON object")
        return data

    def _dispatch(self, handler: Callable[[], None]) -> None:
        try:
            handler()
        except QueueFullError as exc:
            self._error(429, exc)
        except (JobBudgetError, AdmissionError) as exc:
            self._error(400, exc)
        except UnknownJobError as exc:
            self._error(404, exc)
        except JobStateError as exc:
            self._error(409, exc)
        except ServeError as exc:
            self._error(500, exc)

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server contract
        repro = self.server.repro
        parsed = urlparse(self.path)
        route = parsed.path
        if route == "/health":
            return self._json(200, repro.health())
        if route == "/metrics":
            return self._metrics(parsed.query)
        if route == "/jobs":
            return self._json(200, {
                "jobs": [job.summary_row() for job in repro.queue.jobs()]})
        match = _JOB_PATH.match(route)
        if match:
            return self._dispatch(lambda: self._json(
                200, {"job": repro.queue.get(match.group(1)).to_dict()}))
        match = _JOB_LOGS_PATH.match(route)
        if match:
            return self._dispatch(lambda: self._json(
                200, {"events": repro.job_logs(match.group(1))}))
        match = _JOB_EXPLANATION_PATH.match(route)
        if match:
            return self._dispatch(lambda: self._json(
                200, {"explanation":
                      repro.job_explanation(match.group(1))}))
        match = _JOB_EVENTS_PATH.match(route)
        if match:
            return self._dispatch(lambda: self._stream_events(match.group(1)))
        self._json(404, {"error": "NotFound",
                         "message": f"no route {self.path!r}"})

    # -- /metrics ------------------------------------------------------------

    def _metrics(self, query: str) -> None:
        """Content-negotiated metrics: JSON stays the default (existing
        clients keep working), Prometheus text under ``Accept:
        text/plain`` or an explicit ``?format=prometheus``."""
        repro = self.server.repro
        wanted = (parse_qs(query).get("format", [""])[0]
                  or ("prometheus"
                      if "text/plain" in self.headers.get("Accept", "")
                      else "json"))
        snapshot = repro.metrics_snapshot()
        if wanted == "prometheus":
            body = prometheus_text(snapshot).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", PROMETHEUS_CONTENT_TYPE)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
            return
        self._json(200, snapshot)

    # -- /jobs/<id>/events (SSE) ---------------------------------------------

    def _sse_send(self, data: Dict) -> None:
        payload = json.dumps(data, sort_keys=True)
        self.wfile.write(f"id: {data.get('seq', 0)}\n"
                         f"event: {data.get('kind', 'event')}\n"
                         f"data: {payload}\n\n".encode("utf-8"))
        self.wfile.flush()

    @staticmethod
    def _is_terminal(data: Dict) -> bool:
        return (data.get("kind") == JOB_STATE
                and data.get("attributes", {}).get("state")
                in TERMINAL_STATES)

    def _stream_events(self, job_id: str) -> None:
        """Serve one job's event stream as Server-Sent Events.

        Subscribe and take the backlog in one step (no gap, no
        repeat), replay the backlog — only the events after the
        client's ``Last-Event-ID`` seq when it resumes — then push live
        events until the job's terminal ``job.state`` event, then an
        explicit ``end`` event and close.  Heartbeat comment lines flow
        while the stream is quiet, so both sides notice a dead peer.  A
        disconnected or too-slow client is unsubscribed, its buffer
        released with it; a slow one closes without ``end`` and may
        resume from the last seq it got.
        """
        repro = self.server.repro
        job = repro.queue.get(job_id)  # 404 on unknown ids
        try:
            after = int(self.headers.get("Last-Event-ID") or 0)
        except ValueError:
            after = 0
        subscription, backlog = repro.broker.subscribe(job.job_id, after)
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Connection", "close")
            self.end_headers()
            terminal = False
            for event in backlog:
                data = event.to_dict()
                self._sse_send(data)
                terminal = terminal or self._is_terminal(data)
            while not terminal and not repro.stopping:
                event = subscription.get(timeout=repro.heartbeat_s)
                if event is None:
                    self.wfile.write(b": heartbeat\n\n")
                    self.wfile.flush()
                    continue
                data = event.to_dict()
                self._sse_send(data)
                terminal = self._is_terminal(data)
                if subscription.overflowed and not terminal:
                    self.wfile.write(b": overflowed, closing\n\n")
                    self.wfile.flush()
                    break
            if terminal:
                self.wfile.write(b"event: end\ndata: {}\n\n")
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client went away; cleanup below
        finally:
            repro.broker.unsubscribe(subscription)

    def do_POST(self) -> None:  # noqa: N802 - http.server contract
        repro = self.server.repro
        if self.path == "/jobs":
            def submit() -> None:
                job = repro.submit(self._body())
                self._json(201, {"job": job.to_dict()})
            return self._dispatch(submit)
        match = _JOB_CANCEL_PATH.match(self.path)
        if match:
            return self._dispatch(lambda: self._json(
                200, {"job": repro.cancel(match.group(1)).to_dict()}))
        if self.path == "/shutdown":
            self._json(200, {"ok": True, "message": "shutting down"})
            self.wfile.flush()  # the reply must beat the socket close
            # Stop from another thread: shutdown() blocks until
            # serve_forever exits, which must not be this handler.
            threading.Thread(target=repro.stop, daemon=True).start()
            return None
        self._json(404, {"error": "NotFound",
                         "message": f"no route {self.path!r}"})

"""Parallel sweeps: one primitive for every multi-app path.

The Table-I evaluation, the Section VII-A usage study and ``repro
batch`` each run many independent apps.  All three go through
:func:`sweep`, which maps a function over items on a worker pool:

* *Backends.*  ``thread`` (the default) or ``process``: every worker is
  pure-Python CPU-bound work (emulated device plus static analysis), so
  threads serialize on the GIL while processes use the cores.  Items
  ship to process workers in chunks.  A function that does not pickle
  keeps the thread pool and counts ``sweep.backend.fallback``.
  ``FRAGDROID_SWEEP_BACKEND`` and ``FRAGDROID_WORKERS`` set the default
  backend and worker count (``min(items, cpus)`` otherwise).
* *Failure isolation.*  A market contains apps that cannot be processed
  (packed APKs, build failures: the Section VII-A rule-outs), so one
  item's exception is captured into its :class:`SweepOutcome` instead
  of aborting the sweep.  Workers take the next item as they free up,
  so one slow item never holds back the rest.  Exceptions cross the
  process boundary as themselves, so ``SweepOutcome.unwrap()``
  re-raises the real type with its attributes; one that does not
  pickle comes home as a :class:`RemoteSweepError` naming its type.
* *Worker death.*  A process worker killed outright (OOM, SIGKILL)
  breaks the pool and takes its chunk's results with it, plus every
  chunk still pending.  Those items become failed
  :class:`~repro.errors.WorkerDiedError` outcomes (``fault_kind
  "worker-died"``, counted under ``sweep.worker.died``); every completed
  result is still returned.  The service scheduler
  (:mod:`repro.serve.scheduler`) re-admits worker-died apps.
* *Pools.*  A process sweep leases its pool: it takes the idle pool of
  its worker count, or forks one, and hands it back when it ends, so a
  process that sweeps again and again (the ledger, ``repro serve``)
  keeps its workers warm.  A sweep that broke its pool shuts it down,
  so the next one forks afresh; a sweep that finds its size's pool
  leased by another thread forks its own, so concurrent sweeps never
  share workers.  A warm worker runs the code and the module state it
  was forked with: a monkeypatch made after the fork never reaches it,
  and per-sweep settings (the chaos kill below) travel with each
  chunk instead of through the worker's environment.  A process that
  sweeps once, such as a single ``repro table1``, gains nothing.

The callers: :func:`explore_many` sweeps app plans through
:func:`explore_one`.  On the process backend the config itself ships,
and each live observer crosses by its own pickling rule: a tracer as an
empty one, an event log as a null log, a static cache as a fresh
handle on its directory.  A worker unpickles a fresh
config per app; what its tracer recorded comes home on the app's
outcome.  The parent folds those spans and counters into its observers
on join (``Tracer.absorb`` / ``Metrics.merge``), and each result's run
record into its event log (``EventLog.absorb``), so both backends
produce identical ``sweep_rows``/``fault_census`` for a fixed seed.
:func:`repro.bench.runner.run_usage_study` sweeps market apps (on
processes by default when it runs several workers) and re-raises any
failure.  ``repro batch`` sweeps ``.apk`` paths and writes a failed row
for each file that fails.  :class:`SweepRun` hands back the backend and
worker count the sweep resolved, for the callers' run records.
"""

from __future__ import annotations

import os
import pickle
import threading
import tracemalloc
from concurrent.futures import (
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from repro import FragDroid, FragDroidConfig
from repro.apk import build_apk
from repro.core.explorer import ExplorationResult
from repro.corpus import TABLE1_PLANS, build_app
from repro.corpus.synth import AppPlan
from repro.errors import ReproError, WorkerDiedError
from repro.faults import classify_fault, make_device
from repro.obs import NULL_TRACER, Span, Tracer
from repro.obs.registry import capture_run_record, corpus_digest_of

BACKENDS = ("thread", "process")


class RemoteSweepError(ReproError):
    """A worker-process failure whose exception did not pickle."""


@dataclass
class SweepOutcome:
    """What one item contributed to a sweep: a result or a captured
    failure (never both)."""

    # The item's key: an app's package, or an .apk file's name.
    package: str
    # An ExplorationResult for explore_many; whatever the swept
    # function returns otherwise.
    result: Any = None
    error: Optional[BaseException] = None
    duration: float = 0.0
    # The fault family of a captured failure ("adb-transient",
    # "timeout", "disconnect", "crash", "packed-apk", "worker-died");
    # None for a success or an unclassified failure.
    fault_kind: Optional[str] = None
    # Content digest of the built APK (ApkPackage.digest()); None when
    # the failure struck before the build finished.  The sweep's run
    # record derives its corpus digest from these.
    apk_digest: Optional[str] = None
    # What a process worker's own tracer recorded for this item: its
    # spans, counters and raw histogram values.  The parent folds them
    # into the sweep's tracer; empty for an item run in the parent.
    spans: List[Span] = field(default_factory=list, repr=False)
    counters: Dict[str, float] = field(default_factory=dict, repr=False)
    histograms: Dict[str, List[float]] = field(default_factory=dict,
                                               repr=False)

    @property
    def ok(self) -> bool:
        return self.error is None

    def unwrap(self) -> Any:
        """The result, re-raising the captured exception on failure."""
        if self.error is not None:
            raise self.error
        return self.result


@dataclass
class SweepRun:
    """A finished :func:`sweep`: outcomes keyed by item, and the
    backend and worker count it resolved (a run record's ``meta``)."""

    outcomes: Dict[str, SweepOutcome]
    meta: Dict[str, object]


def _default_workers(plan_count: int) -> int:
    """``min(plans, cpus)``, overridable via ``FRAGDROID_WORKERS``."""
    env = os.environ.get("FRAGDROID_WORKERS", "").strip()
    forced = int(env) if env.isdigit() else 0
    return max(1, min(plan_count, forced or os.cpu_count() or 4))


def _resolve_backend(backend: Optional[str],
                     fallback: str = "thread") -> str:
    """``backend``, else ``FRAGDROID_SWEEP_BACKEND``, else ``fallback``."""
    if backend is None:
        backend = os.environ.get("FRAGDROID_SWEEP_BACKEND", "").strip() \
            or fallback
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown sweep backend {backend!r}; choose from {BACKENDS}"
        )
    return backend


# ---------------------------------------------------------------------------
# The sweep primitive
# ---------------------------------------------------------------------------

def sweep(items: Iterable[Any], fn: Callable[[Any], Any], *,
          key: Callable[[Any], str], max_workers: Optional[int] = None,
          backend: Optional[str] = None, chunksize: Optional[int] = None,
          tracer: Tracer = NULL_TRACER,
          default_backend: str = "thread") -> SweepRun:
    """Run ``fn(item)`` for every item; outcomes keyed by ``key(item)``.

    ``max_workers`` defaults to ``min(len(items), os.cpu_count() or
    4)`` (``FRAGDROID_WORKERS`` overrides it) and is clamped to the item
    count.  ``backend`` is ``"thread"`` or ``"process"``; ``None`` reads
    ``FRAGDROID_SWEEP_BACKEND``, then falls back to ``default_backend``
    when more than one worker runs and to threads (one worker runs
    inline) otherwise.  The process
    backend needs ``fn``, items and results to pickle; ``chunksize``
    batches items per task (default ``len(items) / (4 × workers)``, at
    least 1).  An ``fn`` that returns a :class:`SweepOutcome` gives the
    item's outcome itself.  ``tracer`` counts backend fallbacks and
    worker deaths.
    """
    keyed = [(key(item), item) for item in items]
    workers = max(1, min(len(keyed),
                         max_workers or _default_workers(len(keyed))))
    backend = _resolve_backend(
        backend, default_backend if workers > 1 else "thread")
    if backend == "process" and not _picklable(fn):
        tracer.inc("sweep.backend.fallback")
        backend = "thread"
    if backend == "process" and keyed:
        outcomes = _sweep_process(keyed, fn, workers, chunksize, tracer)
    else:
        outcomes = _sweep_thread(keyed, fn, workers)
    return SweepRun(outcomes, {"backend": backend, "workers": workers})


def _run_item(fn: Callable[[Any], Any], package: str,
              item: Any) -> SweepOutcome:
    """``fn(item)`` as an outcome, its exception captured.  An ``fn``
    that returns an outcome itself (:func:`explore_one`) keeps it."""
    started = perf_counter()
    try:
        result = fn(item)
    except Exception as exc:
        return SweepOutcome(package=package, error=exc,
                            duration=perf_counter() - started,
                            fault_kind=classify_fault(exc))
    if isinstance(result, SweepOutcome):
        return result
    return SweepOutcome(package=package, result=result,
                        duration=perf_counter() - started)


def _sweep_thread(keyed: List[Tuple[str, Any]], fn: Callable[[Any], Any],
                  workers: int) -> Dict[str, SweepOutcome]:
    if workers == 1:
        # A one-worker pool only adds a thread handoff per item: about
        # 3% of the 217-app market pass (median of 60 alternating pairs
        # on a 2-vCPU VM; the quartiles span -5% to +10%).
        return {package: _run_item(fn, package, item)
                for package, item in keyed}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = {package: pool.submit(_run_item, fn, package, item)
                   for package, item in keyed}
    return {package: future.result() for package, future in futures.items()}


def _picklable(obj: object) -> bool:
    try:
        pickle.dumps(obj)
        return True
    except Exception:
        return False


def _portable(outcome: SweepOutcome) -> SweepOutcome:
    """A worker's outcome, fit for the trip home: a captured exception
    that does not survive pickling becomes a :class:`RemoteSweepError`,
    so it cannot abort the sweep."""
    exc = outcome.error
    if exc is not None:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            outcome.error = RemoteSweepError(
                f"{type(exc).__qualname__}: {exc}")
    return outcome


def _chaos_kill_check(package: str, target: str, state: str) -> None:
    """Chaos/test instrumentation: die like an OOM-killed worker.

    ``FRAGDROID_CHAOS_KILL="<package>[:<times>]"`` makes a worker
    process ``os._exit`` the moment it reaches the item keyed
    ``<package>`` — the parent sees a ``BrokenProcessPool``, exactly the
    signature of a real SIGKILL.  Without ``:<times>`` every encounter
    kills; with it, only the first ``times`` encounters do, counted
    across pool restarts in the ``FRAGDROID_CHAOS_KILL_STATE``
    directory (one ``O_EXCL`` marker file per kill, so concurrent
    workers never double-spend the budget).  The parent reads both
    variables when the sweep starts (a warm worker's environment is
    the one it was forked with) and ships them with each chunk.  Unset
    in production; the worker-death recovery tests and the chaos CI
    lane set it.
    """
    if not target:
        return
    name, _, times = target.partition(":")
    if name != package:
        return
    if times:
        if not state:
            return  # a bounded kill needs a state dir to count in
        import pathlib

        state_dir = pathlib.Path(state)
        state_dir.mkdir(parents=True, exist_ok=True)
        for attempt in range(int(times)):
            marker = state_dir / f"kill.{attempt}"
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL
                                 | os.O_WRONLY))
            except FileExistsError:
                continue
            os._exit(17)
        return  # kill budget spent: survive from here on
    os._exit(17)


def _run_chunk(fn: Callable[[Any], Any], chunk: List[Tuple[str, Any]],
               chaos: Tuple[str, str]) -> List[SweepOutcome]:
    """Worker-process entry point: run a chunk of items serially."""
    done = []
    for package, item in chunk:
        _chaos_kill_check(package, *chaos)
        done.append(_portable(_run_item(fn, package, item)))
    return done


#: At most one idle process pool per worker count (see *Pools* in the
#: module docstring).  The executor's own exit hook joins idle pools
#: when the interpreter exits.
_IDLE_POOLS: Dict[int, ProcessPoolExecutor] = {}
_IDLE_POOLS_LOCK = threading.Lock()


def _worker_start() -> None:
    # A worker forked while the parent ran tracemalloc would keep
    # tracing (and paying for it) in every later sweep it serves.
    tracemalloc.stop()


def _lease_pool(workers: int) -> ProcessPoolExecutor:
    """The idle pool of ``workers`` processes, or a freshly forked one."""
    with _IDLE_POOLS_LOCK:
        pool = _IDLE_POOLS.pop(workers, None)
    if pool is not None and not pool._broken:
        return pool
    if pool is not None:  # a worker died while the pool idled
        pool.shutdown()
    return ProcessPoolExecutor(max_workers=workers,
                               initializer=_worker_start)


def _release_pool(workers: int, pool: ProcessPoolExecutor,
                  finished: bool) -> None:
    """Idle a pool whose sweep finished without breaking it, unless one
    of its size already idles; shut it down otherwise.  (The executor
    marks itself ``_broken`` before it fails a single future.)"""
    if finished and not pool._broken:
        with _IDLE_POOLS_LOCK:
            if _IDLE_POOLS.setdefault(workers, pool) is pool:
                return
    pool.shutdown()


def _drop_idle_pools() -> None:
    """Shut down every idle pool, so the next process sweep forks."""
    with _IDLE_POOLS_LOCK:
        pools = list(_IDLE_POOLS.values())
        _IDLE_POOLS.clear()
    for pool in pools:
        pool.shutdown()


def _sweep_process(keyed: List[Tuple[str, Any]], fn: Callable[[Any], Any],
                   workers: int, chunksize: Optional[int],
                   tracer: Tracer) -> Dict[str, SweepOutcome]:
    if chunksize is None:
        chunksize = max(1, len(keyed) // (workers * 4))
    chunks = [keyed[i:i + chunksize]
              for i in range(0, len(keyed), chunksize)]
    chaos = (os.environ.get("FRAGDROID_CHAOS_KILL", ""),
             os.environ.get("FRAGDROID_CHAOS_KILL_STATE", ""))
    outcomes: Dict[str, SweepOutcome] = {}
    size = min(workers, len(chunks))
    pool = _lease_pool(size)
    finished = False
    try:
        futures = {pool.submit(_run_chunk, fn, chunk, chaos): chunk
                   for chunk in chunks}
        for future in as_completed(futures):
            try:
                done = future.result()
            except BrokenProcessPool as exc:
                # A worker died mid-chunk (OOM kill, SIGKILL, hard
                # crash).  The whole chunk's results died with it, and
                # once the pool is broken every still-pending chunk
                # fails the same way.  Mark each item failed instead of
                # aborting the sweep.
                tracer.inc("sweep.worker.died")
                for package, _ in futures[future]:
                    outcomes[package] = SweepOutcome(
                        package=package,
                        error=WorkerDiedError(
                            f"worker process died during the chunk "
                            f"containing {package}: {exc}"),
                        fault_kind="worker-died",
                    )
                continue
            for outcome in done:
                outcomes[outcome.package] = outcome
        finished = True
    finally:
        _release_pool(size, pool, finished)
    return outcomes


# ---------------------------------------------------------------------------
# Exploring apps
# ---------------------------------------------------------------------------

def explore_one(plan: AppPlan,
                config: Optional[FragDroidConfig] = None) -> SweepOutcome:
    """Build, install and explore one app on a fresh device.

    Build and exploration failures alike are captured into the returned
    :class:`SweepOutcome` — a packed APK (``PackedApkError``) reports as
    a failed outcome, it does not raise.
    """
    tracer = config.tracer if config is not None else NULL_TRACER
    fault_plan = config.fault_plan if config is not None else None
    trace_id = config.trace_id if config is not None else None
    started = perf_counter()
    digest: Optional[str] = None
    # Bound to the submitting job's trace when the config carries one
    # (repro.serve), so a fleet's spans correlate; a fresh trace root
    # otherwise, exactly as before.
    with tracer.trace_span("sweep.app", trace_id, app=plan.package) as span:
        try:
            apk = build_apk(build_app(plan))
            digest = apk.digest()
            device = make_device(fault_plan, scope=plan.package)
            result = FragDroid(device, config).explore(apk, digest=digest)
        except Exception as exc:
            tracer.inc("sweep.failures")
            span.set_attribute("error", repr(exc))
            kind = classify_fault(exc)
            if kind is not None:
                tracer.inc(f"sweep.faults.{kind}")
            return SweepOutcome(package=plan.package, error=exc,
                                duration=perf_counter() - started,
                                fault_kind=kind, apk_digest=digest)
    tracer.inc("sweep.apps")
    result.spans = tracer.subtree(span)
    return SweepOutcome(package=plan.package, result=result,
                        duration=perf_counter() - started,
                        apk_digest=digest)


class _ExploreTask:
    """:func:`explore_one` bound to a sweep's config.

    Pickled for a worker process it becomes ``partial(_explore_apart,
    <the pickled config>)``, so the worker unpickles a fresh config per
    app: each app explores under fresh observers."""

    def __init__(self, config: Optional[FragDroidConfig]) -> None:
        self.config = config

    def __call__(self, plan: AppPlan) -> SweepOutcome:
        return explore_one(plan, self.config)

    def __reduce__(self):
        return (partial, (_explore_apart, pickle.dumps(self.config)))


def _explore_apart(config_bytes: bytes, plan: AppPlan) -> SweepOutcome:
    """Worker-process body: explore one plan under a fresh config, and
    send what its tracer recorded home on the outcome."""
    config = pickle.loads(config_bytes)
    outcome = explore_one(plan, config)
    if config is not None and config.tracer.enabled:
        outcome.spans = config.tracer.finished_spans()
        outcome.counters = config.tracer.metrics.counters()
        outcome.histograms = config.tracer.metrics.raw_histograms()
    return outcome


def _fold(outcome: SweepOutcome, config: FragDroidConfig) -> None:
    """Fold what a process worker recorded for one app into the
    parent's observers: its spans (re-homed onto the config's trace
    when it names one), counters and histograms, and the result's run
    record.  The result then holds the absorbed spans and events."""
    tracer = config.tracer
    tracer.metrics.merge(outcome.counters, outcome.histograms)
    outcome.spans = tracer.absorb(outcome.spans, into_trace=config.trace_id)
    if outcome.result is not None:
        outcome.result.spans = outcome.spans
        outcome.result.events = config.event_log.absorb(
            outcome.result.events)


def explore_many(
    plans: Sequence[AppPlan] = tuple(TABLE1_PLANS),
    config: Optional[FragDroidConfig] = None,
    max_workers: Optional[int] = None,
    backend: Optional[str] = None,
    chunksize: Optional[int] = None,
) -> Dict[str, SweepOutcome]:
    """Explore a set of apps concurrently; outcomes keyed by package.

    A :func:`sweep` of :func:`explore_one` over ``plans``; the other
    arguments mean what they mean there.  Thread workers share the live
    config; process workers get a fresh copy per app, and what their
    observers recorded is folded back (see the module docstring).
    Per-app failures are carried inside the outcomes, never raised.

    When the config carries a ``run_registry``
    (:class:`repro.obs.registry.RunRegistry`), one content-addressed
    run record — coverage rows, fault census, corpus digest, metrics
    and per-phase timing — is persisted as the sweep ends.
    """
    run = sweep(plans, _ExploreTask(config), key=lambda plan: plan.package,
                max_workers=max_workers, backend=backend,
                chunksize=chunksize,
                tracer=config.tracer if config is not None else NULL_TRACER)
    outcomes = run.outcomes
    if config is not None and run.meta["backend"] == "process":
        for outcome in outcomes.values():
            _fold(outcome, config)
    if outcomes:
        _record_sweep(config, outcomes, run.meta)
    return outcomes


def _record_sweep(config: Optional[FragDroidConfig],
                  outcomes: Dict[str, SweepOutcome],
                  meta: Dict[str, object]) -> None:
    """Persist the sweep's run record when a registry is configured.

    The execution context (backend, worker count) lands in the
    record's unhashed ``meta``, so a thread run and a process run of
    the same sweep produce the same content-addressed payload."""
    registry = getattr(config, "run_registry", None)
    if config is None or registry is None:
        return
    record = capture_run_record(
        "sweep",
        config=config,
        apps=sweep_rows(outcomes),
        fault_census=fault_census(outcomes),
        corpus_digest=corpus_digest_of(
            {package: outcome.apk_digest
             for package, outcome in outcomes.items()}),
        meta=meta,
        api_steps={package: [inv.step
                             for inv in outcome.result.api_invocations]
                   for package, outcome in outcomes.items()
                   if outcome.result is not None},
    )
    registry.record(record)


def unwrap_results(
    outcomes: Dict[str, SweepOutcome],
) -> Dict[str, ExplorationResult]:
    """Results keyed by package; re-raises the first captured failure.

    The strict accessor for sweeps expected to be fully healthy (the
    Table I corpus); use :func:`successful_results` to tolerate
    failures instead.
    """
    return {package: outcome.unwrap()
            for package, outcome in outcomes.items()}


def successful_results(
    outcomes: Dict[str, SweepOutcome],
) -> Dict[str, ExplorationResult]:
    """Only the successful results, failures silently skipped."""
    return {package: outcome.result
            for package, outcome in outcomes.items()
            if outcome.ok and outcome.result is not None}


def sweep_rows(outcomes: Dict[str, SweepOutcome]) -> List[Dict]:
    """Per-app fleet rows, the aggregation the run dashboard's fleet
    table renders (``repro.obs.dashboard.render_fleet_table``).

    One dict per outcome, sorted by package, covering successes and
    failures alike — a failed app keeps its duration and fault family
    so the fleet view shows *what* died, not just who's missing.
    """
    rows: List[Dict] = []
    for package in sorted(outcomes):
        outcome = outcomes[package]
        result = outcome.result
        rows.append({
            "package": package,
            "ok": outcome.ok,
            "duration_s": outcome.duration,
            "fault_kind": outcome.fault_kind,
            "activities_visited": (len(result.visited_activities)
                                   if result else 0),
            "activities_sum": result.activity_total if result else 0,
            "fragments_visited": (len(result.visited_fragments)
                                  if result else 0),
            "fragments_sum": result.fragment_total if result else 0,
            "apis": len(result.api_invocations) if result else 0,
            "events": result.stats.events if result else 0,
            "crashes": result.stats.crashes if result else 0,
        })
    return rows


def fault_census(outcomes: Dict[str, SweepOutcome]) -> Dict[str, int]:
    """Failed outcomes tallied by fault family.

    Classified faults count under their kind ("adb-transient",
    "timeout", "disconnect", "crash", "packed-apk"); anything else
    under "other".  Empty when the sweep was fully healthy.
    """
    census: Dict[str, int] = {}
    for outcome in outcomes.values():
        if outcome.ok:
            continue
        kind = outcome.fault_kind or "other"
        census[kind] = census.get(kind, 0) + 1
    return census

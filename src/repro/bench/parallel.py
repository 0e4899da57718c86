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
  process boundary as ``(module, qualname, message)`` triples and are
  re-hydrated, so ``SweepOutcome.unwrap()`` re-raises the real type.
* *Worker death.*  A process worker killed outright (OOM, SIGKILL)
  breaks the pool and takes its chunk's results with it, plus every
  chunk still pending.  Those items become failed
  :class:`~repro.errors.WorkerDiedError` outcomes (``fault_kind
  "worker-died"``, counted under ``sweep.worker.died``); every completed
  result is still returned.  The service scheduler
  (:mod:`repro.serve.scheduler`) re-admits worker-died apps.

The callers: :func:`explore_many` sweeps app plans through
:func:`explore_one`; on the process backend a picklable *spec* of the
config ships instead of the live one.  Each worker's spans and counters
are folded back into the parent's observers on join (``Tracer.absorb``
/ ``Metrics.merge``), and each result's run record into the parent's
event log (``EventLog.absorb``), so both backends produce identical
``sweep_rows``/``fault_census`` for a fixed seed.
:func:`repro.bench.runner.run_usage_study` sweeps market apps and
re-raises any failure.  ``repro batch`` sweeps ``.apk`` paths and
writes a failed row for each file that fails.  :class:`SweepRun` hands
back the backend and worker count the sweep resolved, for the callers'
run records.
"""

from __future__ import annotations

import importlib
import os
import pickle
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
from repro.obs import NULL_EVENT_LOG, NULL_TRACER, Span, Tracer
from repro.obs.registry import capture_run_record, corpus_digest_of

BACKENDS = ("thread", "process")

#: An exception in transit from a worker process: (module, qualname,
#: message).  Multi-argument constructors break exception pickling.
_FrozenError = Tuple[str, str, str]


class RemoteSweepError(ReproError):
    """A worker-process failure whose concrete type could not be rebuilt."""


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


def _resolve_backend(backend: Optional[str]) -> str:
    if backend is None:
        backend = os.environ.get("FRAGDROID_SWEEP_BACKEND", "").strip() \
            or "thread"
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
          tracer: Tracer = NULL_TRACER) -> SweepRun:
    """Run ``fn(item)`` for every item; outcomes keyed by ``key(item)``.

    ``max_workers`` defaults to ``min(len(items), os.cpu_count() or
    4)`` (``FRAGDROID_WORKERS`` overrides it) and is clamped to the item
    count.  ``backend`` is ``"thread"`` or ``"process"``; ``None`` reads
    ``FRAGDROID_SWEEP_BACKEND``, then falls back to threads.  The process
    backend needs ``fn``, items and results to pickle; ``chunksize``
    batches items per task (default ``len(items) / (4 × workers)``, at
    least 1).  ``tracer`` counts backend fallbacks and worker deaths.
    """
    keyed = [(key(item), item) for item in items]
    backend = _resolve_backend(backend)
    workers = max(1, min(len(keyed),
                         max_workers or _default_workers(len(keyed))))
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
    """``fn(item)`` as an outcome, its exception captured."""
    started = perf_counter()
    try:
        result = fn(item)
    except Exception as exc:
        return SweepOutcome(package=package, error=exc,
                            duration=perf_counter() - started,
                            fault_kind=classify_fault(exc))
    return SweepOutcome(package=package, result=result,
                        duration=perf_counter() - started)


def _sweep_thread(keyed: List[Tuple[str, Any]], fn: Callable[[Any], Any],
                  workers: int) -> Dict[str, SweepOutcome]:
    if workers == 1:
        # A one-worker pool only adds a thread handoff per item: about
        # 5% of the 217-app market pass, measured on a 2-vCPU VM.
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


def _freeze(outcome: SweepOutcome,
            ) -> Tuple[SweepOutcome, Optional[_FrozenError]]:
    """Split a captured exception off a worker's outcome for the trip
    back to the parent."""
    exc, outcome.error = outcome.error, None
    return outcome, (None if exc is None else (
        type(exc).__module__, type(exc).__qualname__, str(exc)))


def _thaw(outcome: SweepOutcome,
          frozen: Optional[_FrozenError]) -> SweepOutcome:
    """Re-attach a frozen exception (see :func:`_freeze`)."""
    if frozen is not None:
        outcome.error = _thaw_error(frozen)
    return outcome


def _thaw_error(frozen: _FrozenError) -> BaseException:
    """Re-hydrate a worker exception; falls back to
    :class:`RemoteSweepError` when the type cannot be rebuilt."""
    module, qualname, message = frozen
    try:
        cls = getattr(importlib.import_module(module), qualname)
        if isinstance(cls, type) and issubclass(cls, BaseException):
            return cls(message)
    except Exception:
        pass
    return RemoteSweepError(f"{qualname}: {message}")


def _chaos_kill_check(package: str) -> None:
    """Chaos/test instrumentation: die like an OOM-killed worker.

    ``FRAGDROID_CHAOS_KILL="<package>[:<times>]"`` makes a worker
    process ``os._exit`` the moment it reaches the item keyed
    ``<package>`` — the parent sees a ``BrokenProcessPool``, exactly the
    signature of a real SIGKILL.  Without ``:<times>`` every encounter
    kills; with it, only the first ``times`` encounters do, counted
    across pool restarts in the ``FRAGDROID_CHAOS_KILL_STATE``
    directory (one ``O_EXCL`` marker file per kill, so concurrent
    workers never double-spend the budget).  Unset in production; the
    worker-death recovery tests and the chaos CI lane set it.
    """
    target = os.environ.get("FRAGDROID_CHAOS_KILL", "")
    if not target:
        return
    name, _, times = target.partition(":")
    if name != package:
        return
    if times:
        state = os.environ.get("FRAGDROID_CHAOS_KILL_STATE", "")
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
               ) -> List[Tuple[SweepOutcome, Optional[_FrozenError]]]:
    """Worker-process entry point: run a chunk of items serially."""
    done = []
    for package, item in chunk:
        _chaos_kill_check(package)
        done.append(_freeze(_run_item(fn, package, item)))
    return done


def _sweep_process(keyed: List[Tuple[str, Any]], fn: Callable[[Any], Any],
                   workers: int, chunksize: Optional[int],
                   tracer: Tracer) -> Dict[str, SweepOutcome]:
    if chunksize is None:
        chunksize = max(1, len(keyed) // (workers * 4))
    chunks = [keyed[i:i + chunksize]
              for i in range(0, len(keyed), chunksize)]
    outcomes: Dict[str, SweepOutcome] = {}
    with ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
        futures = {pool.submit(_run_chunk, fn, chunk): chunk
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
            for outcome, frozen in done:
                outcomes[outcome.package] = _thaw(outcome, frozen)
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
            result = FragDroid(device, config).explore(apk)
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
    return SweepOutcome(package=plan.package, result=result,
                        duration=perf_counter() - started,
                        apk_digest=digest)


#: Config fields a worker process can reconstruct its config from.  The
#: live observers are deliberately absent: a traced worker gets a fresh
#: in-memory tracer, folded back on join, and each result carries its
#: own run record home.
_SPEC_FIELDS = (
    "enable_reflection", "enable_forced_start", "enable_input_file",
    "enable_click_exploration", "input_values", "input_strategy",
    "queue_order", "max_events", "max_queue_items", "max_restarts_per_item",
    "fault_profile", "fault_seed", "fault_plan", "retry_policy",
    "quarantine_threshold", "trace_id",
)


@dataclass
class _ConfigSpec:
    """Everything a worker needs to rebuild an equivalent config."""

    kwargs: Dict[str, object]
    trace: bool = False
    # Whether the parent tracer samples per-span peak memory; workers
    # rebuild their tracer with the same sampling mode.
    memory: bool = False
    # (directory, memory_entries) of the parent's StaticCache; workers
    # open their own handle — the disk tier is the shared medium.
    cache: Optional[Tuple[Optional[str], int]] = None


def _config_spec(config: Optional[FragDroidConfig]) -> Optional[_ConfigSpec]:
    if config is None:
        return None
    spec = _ConfigSpec(
        kwargs={name: getattr(config, name) for name in _SPEC_FIELDS},
        trace=config.tracer.enabled,
        memory=bool(getattr(config.tracer, "memory", False)),
    )
    if config.static_cache is not None:
        directory = config.static_cache.directory
        spec.cache = (str(directory) if directory is not None else None,
                      config.static_cache.memory_entries)
    return spec


def _worker_config(spec: Optional[_ConfigSpec]) -> Optional[FragDroidConfig]:
    if spec is None:
        return None
    config = FragDroidConfig(**spec.kwargs)
    if spec.trace:
        config.tracer = Tracer(memory=spec.memory)
    if spec.cache is not None:
        from repro.static.cache import StaticCache

        directory, memory_entries = spec.cache
        config.static_cache = StaticCache(directory=directory,
                                          memory_entries=memory_entries)
    return config


@dataclass
class _FrozenOutcome:
    """:func:`explore_one`'s outcome in picklable form, plus the
    worker's spans and counters for the parent to fold in."""

    outcome: SweepOutcome
    error: Optional[_FrozenError] = None
    spans: List[Span] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, List[float]] = field(default_factory=dict)


class _ExploreTask:
    """:func:`explore_one` bound to a sweep's config.

    Pickled for a worker process it becomes ``partial(_explore_frozen,
    spec)``: the live config stays in the parent, and the worker
    rebuilds a fresh config per app from the spec."""

    def __init__(self, config: Optional[FragDroidConfig]) -> None:
        self.config = config

    def __call__(self, plan: AppPlan) -> SweepOutcome:
        return explore_one(plan, self.config)

    def __reduce__(self):
        return (partial, (_explore_frozen, _config_spec(self.config)))


def _explore_frozen(spec: Optional[_ConfigSpec],
                    plan: AppPlan) -> _FrozenOutcome:
    """Worker-process body: explore one plan with a fresh config (and a
    fresh tracer)."""
    config = _worker_config(spec)
    entry = _FrozenOutcome(*_freeze(explore_one(plan, config)))
    if config is not None and config.tracer.enabled:
        entry.spans = config.tracer.finished_spans()
        entry.counters = config.tracer.metrics.counters()
        entry.histograms = config.tracer.metrics.raw_histograms()
    return entry


def _thaw_outcome(frozen: _FrozenOutcome,
                  config: Optional[FragDroidConfig]) -> SweepOutcome:
    """Rebuild the outcome in the parent, folding the worker's spans and
    counters and the result's run record into the parent's observers
    and sinks."""
    tracer = config.tracer if config is not None else NULL_TRACER
    event_log = config.event_log if config is not None else NULL_EVENT_LOG
    outcome = _thaw(frozen.outcome, frozen.error)
    result = outcome.result
    if frozen.counters or frozen.histograms:
        tracer.metrics.merge(frozen.counters, frozen.histograms)
    if frozen.spans and tracer.enabled:
        # Re-home worker spans onto the submitting job's trace when the
        # config names one; worker-local trace ids (remapped) otherwise.
        absorbed = tracer.absorb(
            frozen.spans,
            into_trace=config.trace_id if config is not None else None)
        if result is not None:
            result.spans = absorbed
    if result is not None and event_log.enabled:
        result.events = event_log.absorb(result.events)
    return outcome


def _explored(outcome: SweepOutcome,
              config: Optional[FragDroidConfig]) -> SweepOutcome:
    """One plan's outcome: explore_one's own (thawed if it crossed the
    process boundary), or the sweep's if the worker died first."""
    if not outcome.ok:
        return outcome
    if isinstance(outcome.result, _FrozenOutcome):
        return _thaw_outcome(outcome.result, config)
    return outcome.result


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
    config; process workers rebuild it from a picklable spec and their
    observers are folded back (see the module docstring).  Per-app
    failures are carried inside the outcomes, never raised.

    When the config carries a ``run_registry``
    (:class:`repro.obs.registry.RunRegistry`), one content-addressed
    run record — coverage rows, fault census, corpus digest, metrics
    and per-phase timing — is persisted as the sweep ends.
    """
    run = sweep(plans, _ExploreTask(config), key=lambda plan: plan.package,
                max_workers=max_workers, backend=backend,
                chunksize=chunksize,
                tracer=config.tracer if config is not None else NULL_TRACER)
    outcomes = {package: _explored(outcome, config)
                for package, outcome in run.outcomes.items()}
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

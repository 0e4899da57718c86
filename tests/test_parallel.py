"""The parallel sweep runner."""

import os
import pickle
import sys
import threading
import time
from collections import Counter

import pytest

from repro.bench.parallel import (
    _drop_idle_pools,
    explore_many,
    explore_one,
    successful_results,
    sweep,
    unwrap_results,
)
from repro.corpus import TABLE1_PLANS
from repro.corpus.synth import AppPlan
from repro.corpus.table1_apps import TABLE1_EXPECTED, plan_for
from repro.errors import AppCrashError, PackedApkError


def test_explore_one_matches_serial():
    plan = plan_for("net.aviascanner.aviascanner")
    outcome = explore_one(plan)
    assert outcome.ok
    result = outcome.unwrap()
    expected = TABLE1_EXPECTED[plan.package]
    assert len(result.visited_activities) == expected[0]
    assert len(result.visited_fragments) == expected[2]


def test_explore_many_concurrent_results_match_paper():
    plans = [plan_for(p) for p in (
        "au.com.digitalstampede.formula",
        "org.rbc.odb",
        "com.happy2.bbmanga",
        "net.aviascanner.aviascanner",
    )]
    results = unwrap_results(explore_many(plans, max_workers=4))
    assert set(results) == {p.package for p in plans}
    for package, result in results.items():
        expected = TABLE1_EXPECTED[package]
        assert len(result.visited_activities) == expected[0], package
        assert len(result.visited_fragments) == expected[2], package


def test_devices_are_isolated():
    plans = [plan_for("org.rbc.odb"), plan_for("com.happy2.bbmanga")]
    results = unwrap_results(explore_many(plans, max_workers=2))
    # Each result only contains invocations from its own package.
    for package, result in results.items():
        assert all(i.component.package == package
                   for i in result.api_invocations)


# ---------------------------------------------------------------------------
# Failure isolation
# ---------------------------------------------------------------------------

def test_packed_app_does_not_abort_the_sweep():
    """One packed app among healthy ones: the sweep completes, yielding
    the healthy results and one recorded failure."""
    plans = [
        plan_for("org.rbc.odb"),
        AppPlan(package="com.packer.victim", visited_activities=2,
                packed=True),
        plan_for("com.happy2.bbmanga"),
    ]
    outcomes = explore_many(plans, max_workers=3)
    assert set(outcomes) == {p.package for p in plans}

    failed = outcomes["com.packer.victim"]
    assert not failed.ok
    assert isinstance(failed.error, PackedApkError)
    assert failed.result is None
    with pytest.raises(PackedApkError):
        failed.unwrap()

    healthy = successful_results(outcomes)
    assert set(healthy) == {"org.rbc.odb", "com.happy2.bbmanga"}
    for package, result in healthy.items():
        expected = TABLE1_EXPECTED[package]
        assert len(result.visited_activities) == expected[0], package

    # The strict accessor surfaces the captured failure.
    with pytest.raises(PackedApkError):
        unwrap_results(outcomes)


def test_explore_one_captures_build_failures(monkeypatch):
    """APK build failures inside the worker are captured, not raised."""
    import repro.bench.parallel as parallel
    from repro.errors import ApkError

    def broken_build(spec):
        raise ApkError("corrupt resource table")

    monkeypatch.setattr(parallel, "build_apk", broken_build)
    outcome = explore_one(plan_for("org.rbc.odb"))
    assert not outcome.ok
    assert outcome.result is None
    assert isinstance(outcome.error, ApkError)


def test_sweep_outcome_duration_recorded():
    outcome = explore_one(plan_for("org.rbc.odb"))
    assert outcome.ok
    assert outcome.duration > 0


def test_explore_many_empty_plan_list():
    assert explore_many([]) == {}


def test_one_worker_thread_sweep_runs_on_the_calling_thread():
    """A one-worker pool would only add a thread handoff per item, so a
    one-worker thread sweep calls ``fn`` on the calling thread; with two
    workers, pool threads run the items."""
    caller = threading.get_ident()

    def thread_of(item):
        return threading.get_ident()

    def threads(workers):
        run = sweep(range(4), thread_of, key=str, max_workers=workers,
                    backend="thread")
        assert run.meta == {"backend": "thread", "workers": workers}
        return {outcome.result for outcome in run.outcomes.values()}

    assert threads(1) == {caller}
    assert caller not in threads(2)


def test_default_worker_count(monkeypatch):
    from repro.bench.parallel import _default_workers

    monkeypatch.delenv("FRAGDROID_WORKERS", raising=False)
    assert _default_workers(1) == 1
    assert _default_workers(0) == 1
    import os

    cap = os.cpu_count() or 4
    assert _default_workers(10_000) == min(10_000, cap)


def test_workers_env_override(monkeypatch):
    from repro.bench.parallel import _default_workers

    monkeypatch.setenv("FRAGDROID_WORKERS", "3")
    assert _default_workers(10) == 3
    # Still capped by the number of plans.
    assert _default_workers(2) == 2
    # Garbage and non-positive values fall back to the cpu default.
    import os

    cap = os.cpu_count() or 4
    monkeypatch.setenv("FRAGDROID_WORKERS", "many")
    assert _default_workers(10_000) == min(10_000, cap)
    monkeypatch.setenv("FRAGDROID_WORKERS", "0")
    assert _default_workers(10_000) == min(10_000, cap)


# ---------------------------------------------------------------------------
# The process backend
# ---------------------------------------------------------------------------

SWEEP_PACKAGES = (
    "au.com.digitalstampede.formula",
    "org.rbc.odb",
    "com.happy2.bbmanga",
    "net.aviascanner.aviascanner",
    "com.advancedprocessmanager",
)


def _rows_without_durations(outcomes):
    from repro.bench.parallel import sweep_rows

    return [{key: value for key, value in row.items()
             if key != "duration_s"}
            for row in sweep_rows(outcomes)]


def test_process_backend_matches_thread_backend():
    plans = [plan_for(p) for p in SWEEP_PACKAGES]
    thread = explore_many(plans, max_workers=4, backend="thread")
    process = explore_many(plans, max_workers=4, backend="process")
    assert _rows_without_durations(thread) == _rows_without_durations(process)


def test_process_backend_hostile_faults_equivalent():
    """Faults are per-scope seeded, so thread and process sweeps inject
    the identical fault streams: same census, same per-app outcomes."""
    from repro import FragDroidConfig
    from repro.bench.parallel import fault_census

    plans = [plan_for(p) for p in SWEEP_PACKAGES]

    def sweep(backend):
        config = FragDroidConfig(fault_profile="hostile", fault_seed=77)
        return explore_many(plans, config=config, max_workers=4,
                            backend=backend)

    thread = sweep("thread")
    process = sweep("process")
    assert fault_census(thread) == fault_census(process)
    assert _rows_without_durations(thread) == _rows_without_durations(process)
    for package in thread:
        a, b = thread[package], process[package]
        assert a.ok == b.ok, package
        assert a.fault_kind == b.fault_kind, package
        if not a.ok:
            assert type(a.error) is type(b.error), package


def test_process_sweeps_share_the_static_cache_directory(tmp_path):
    """A StaticCache crosses to each process worker as a handle on the
    same directory: the first sweep stores every app, the second hits
    them all, and the workers' counters reach the parent tracer."""
    from repro import FragDroidConfig
    from repro.obs import Tracer
    from repro.static.cache import StaticCache

    plans = [plan_for(p) for p in SWEEP_PACKAGES[:3]]
    counts = []
    for _ in range(2):
        config = FragDroidConfig(tracer=Tracer(),
                                 static_cache=StaticCache(tmp_path))
        unwrap_results(explore_many(plans, config=config, max_workers=2,
                                    backend="process"))
        counters = config.tracer.metrics.counters()
        assert "sweep.backend.fallback" not in counters
        counts.append({kind: counters.get(f"static.cache.{kind}", 0)
                       for kind in ("hit", "miss", "store")})
    assert counts == [{"hit": 0, "miss": 3, "store": 3},
                      {"hit": 3, "miss": 0, "store": 0}]


def test_process_backend_rehydrates_errors():
    plans = [
        plan_for("org.rbc.odb"),
        AppPlan(package="com.packer.victim", visited_activities=2,
                packed=True),
    ]
    outcomes = explore_many(plans, max_workers=2, backend="process")
    failed = outcomes["com.packer.victim"]
    assert not failed.ok
    assert isinstance(failed.error, PackedApkError)
    assert failed.fault_kind == "packed-apk"
    with pytest.raises(PackedApkError):
        failed.unwrap()


class _Unpicklable(Exception):
    """An exception that refuses to leave its process."""

    def __reduce__(self):
        raise TypeError("not for export")


def _fail(name):
    """A sweep body that fails in a way chosen by its item."""
    if name == "crash":
        raise AppCrashError("pkg", "Main", "npe")
    raise _Unpicklable("lost in transit")


def test_process_sweep_errors_come_home_as_themselves():
    """A worker's exception crosses as itself, attributes and all; one
    that does not pickle comes home as a RemoteSweepError naming its
    type, without aborting the sweep."""
    from repro.bench.parallel import RemoteSweepError

    run = sweep(["crash", "opaque"], _fail, key=str, max_workers=2,
                backend="process")
    assert run.meta["backend"] == "process"
    crash = run.outcomes["crash"].error
    assert type(crash) is AppCrashError
    assert (crash.package, crash.component, crash.reason) \
        == ("pkg", "Main", "npe")
    assert str(crash) == "FC in pkg (Main): npe"
    assert run.outcomes["crash"].fault_kind == "crash"
    opaque = run.outcomes["opaque"].error
    assert type(opaque) is RemoteSweepError
    assert str(opaque) == "_Unpicklable: lost in transit"


def test_a_config_with_live_observers_pickles(tmp_path):
    """Each live observer crosses a process boundary by its own rule:
    a tracer empty, an event log as a null log, a static cache as a
    handle on the same directory, a run registry as itself."""
    from repro import FragDroidConfig
    from repro.obs import EventLog, Tracer
    from repro.obs.registry import RunRegistry
    from repro.obs.sinks import InMemorySink
    from repro.static.cache import StaticCache

    config = FragDroidConfig(
        tracer=Tracer(sinks=[InMemorySink()]),
        event_log=EventLog(sinks=[InMemorySink()]).bind(job="j1"),
        static_cache=StaticCache(tmp_path / "cache", memory_entries=5),
        run_registry=RunRegistry(tmp_path / "runs"),
        max_events=500, fault_profile="mild", trace_id=42,
    )
    with config.tracer.span("parent.only"):
        config.event_log.emit("run.start")
    copy = pickle.loads(pickle.dumps(config))
    assert copy == config and copy.trace_id == 42
    assert copy.fault_plan == config.fault_plan
    assert type(copy.tracer) is Tracer
    assert copy.tracer.sinks == [] and copy.tracer.finished_spans() == []
    assert not copy.event_log.enabled and copy.event_log.events() == []
    assert copy.static_cache.directory == tmp_path / "cache"
    assert copy.static_cache.memory_entries == 5
    assert copy.run_registry.directory == tmp_path / "runs"
    assert not pickle.loads(pickle.dumps(FragDroidConfig())).tracer.enabled


def test_a_memory_only_static_cache_pickles_as_no_cache():
    """Its memory cannot cross a process boundary, so a worker gets no
    cache rather than an empty one it would fill and drop per app."""
    from repro import FragDroidConfig
    from repro.static.cache import StaticCache

    config = FragDroidConfig(static_cache=StaticCache())
    assert pickle.loads(pickle.dumps(config)).static_cache is None


def test_non_picklable_config_falls_back_to_thread(monkeypatch):
    """A config the process backend cannot ship keeps the thread pool
    (and the sweep still completes correctly)."""
    import repro.bench.parallel as parallel
    from repro import FragDroidConfig
    from repro.obs import Tracer

    _drop_idle_pools()
    spawned = []
    monkeypatch.setattr(parallel, "ProcessPoolExecutor",
                        lambda *a, **k: spawned.append(1))
    config = FragDroidConfig(tracer=Tracer(),
                             input_values={"no.such.widget": lambda: None})
    plans = [plan_for("org.rbc.odb")]
    results = unwrap_results(explore_many(plans, config=config,
                                          max_workers=1, backend="process"))
    assert not spawned
    assert set(results) == {"org.rbc.odb"}
    assert config.tracer.metrics.counter("sweep.backend.fallback") == 1


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        explore_many([plan_for("org.rbc.odb")], backend="greenlet")


def test_backend_env_override(monkeypatch):
    import repro.bench.parallel as parallel

    monkeypatch.setenv("FRAGDROID_SWEEP_BACKEND", "process")
    assert parallel._resolve_backend(None) == "process"
    # An explicit argument wins over the environment.
    assert parallel._resolve_backend("thread") == "thread"
    monkeypatch.setenv("FRAGDROID_SWEEP_BACKEND", "fiber")
    with pytest.raises(ValueError):
        parallel._resolve_backend(None)


def test_process_backend_merges_observability():
    """Worker spans/events/counters land in the parent's observers: the
    counters total the fleet, the event stream is gap-free, and each
    result points at its absorbed spans and events."""
    from repro import FragDroidConfig
    from repro.obs import EventLog, Tracer

    config = FragDroidConfig(tracer=Tracer(), event_log=EventLog())
    plans = [plan_for(p) for p in SWEEP_PACKAGES[:3]]
    outcomes = explore_many(plans, config=config, max_workers=3,
                            backend="process")
    assert config.tracer.metrics.counter("sweep.apps") == 3
    span_names = {s.name for s in config.tracer.finished_spans()}
    assert "sweep.app" in span_names and "explore" in span_names
    events = config.event_log.events()
    assert [e.seq for e in events] == list(range(1, len(events) + 1))
    for plan in plans:
        result = outcomes[plan.package].unwrap()
        assert result.spans and result.events
        assert all(e.app == plan.package for e in result.events)
        assert ([e.seq for e in config.event_log.events(app=plan.package)]
                == [e.seq for e in result.events])


def test_process_backend_rehomes_spans_onto_the_config_trace():
    """A config carrying a trace_id correlates the whole sweep: worker
    spans absorbed from the process pool — and thread-backend spans
    bound live — all land on that one trace."""
    from repro import FragDroidConfig
    from repro.obs import Tracer

    plans = [plan_for(p) for p in SWEEP_PACKAGES[:2]]
    for backend in ("thread", "process"):
        config = FragDroidConfig(tracer=Tracer(), trace_id=987654)
        explore_many(plans, config=config, max_workers=2, backend=backend)
        spans = config.tracer.spans_in_trace(987654)
        assert spans, f"{backend}: no spans joined the config trace"
        names = {s.name for s in spans}
        assert "sweep.app" in names and "explore" in names, backend
        # Nothing recorded by the sweep lives outside the trace.
        others = [s for s in config.tracer.finished_spans()
                  if s.trace_id != 987654]
        assert others == [], backend


def test_result_spans_hold_one_app_on_both_backends():
    """An app's result.spans is its sweep.app span and everything under
    it, on either backend, and with or without a config trace that the
    whole sweep shares."""
    from repro import FragDroidConfig
    from repro.obs import Tracer

    plans = [plan_for(p) for p in SWEEP_PACKAGES[:3]]
    for trace_id in (None, 4242):
        names = {}
        for backend in ("thread", "process"):
            config = FragDroidConfig(tracer=Tracer(), trace_id=trace_id)
            outcomes = explore_many(plans, config=config, max_workers=2,
                                    backend=backend)
            names[backend] = {
                package: Counter(span.name
                                 for span in outcome.unwrap().spans)
                for package, outcome in outcomes.items()}
        assert names["thread"] == names["process"], trace_id
        for package, counts in names["thread"].items():
            assert counts["sweep.app"] == 1, (trace_id, package)
            assert counts["explore"] == 1, (trace_id, package)


def test_config_trace_id_is_validated_and_fingerprint_neutral():
    from repro import FragDroidConfig
    from repro.obs.registry import config_fingerprint

    with pytest.raises(ValueError):
        FragDroidConfig(trace_id="abc")
    with pytest.raises(ValueError):
        FragDroidConfig(trace_id=True)
    assert (config_fingerprint(FragDroidConfig(trace_id=7))
            == config_fingerprint(FragDroidConfig()))


# ---------------------------------------------------------------------------
# Worker death
# ---------------------------------------------------------------------------

def test_worker_death_marks_chunk_failed_and_continues(monkeypatch,
                                                       tmp_path):
    """A SIGKILLed worker (OOM-killer signature) fails its chunk's apps
    with WorkerDiedError instead of aborting the sweep; chunks that
    finished before the death keep their results."""
    from repro import FragDroidConfig
    from repro.errors import WorkerDiedError
    from repro.obs import Tracer

    victim = SWEEP_PACKAGES[-1]
    monkeypatch.setenv("FRAGDROID_CHAOS_KILL", f"{victim}:1")
    monkeypatch.setenv("FRAGDROID_CHAOS_KILL_STATE", str(tmp_path))
    config = FragDroidConfig(tracer=Tracer())
    # One worker, one app per chunk: everything ahead of the victim is
    # already done when the pool breaks, so the blast radius is exact.
    plans = [plan_for(p) for p in SWEEP_PACKAGES]
    outcomes = explore_many(plans, config=config, max_workers=1,
                            backend="process", chunksize=1)

    assert set(outcomes) == set(SWEEP_PACKAGES)
    dead = outcomes[victim]
    assert not dead.ok
    assert isinstance(dead.error, WorkerDiedError)
    assert dead.fault_kind == "worker-died"
    assert config.tracer.metrics.counter("sweep.worker.died") >= 1

    survivors = {p: o for p, o in outcomes.items() if p != victim}
    assert all(o.ok for o in survivors.values())
    clean = explore_many([plan for plan in plans
                          if plan.package != victim], max_workers=1)
    assert _rows_without_durations(survivors) \
        == _rows_without_durations(clean)


def test_usage_study_worker_death_raises_worker_died_error(monkeypatch):
    """The usage study runs on the same sweep: a worker killed on a
    market app surfaces as the typed WorkerDiedError, never as a raw
    BrokenProcessPool."""
    from repro.bench.runner import run_usage_study
    from repro.corpus import generate_market
    from repro.errors import WorkerDiedError

    victim = generate_market(count=12)[5].package
    _drop_idle_pools()
    monkeypatch.setenv("FRAGDROID_CHAOS_KILL", victim)
    with pytest.raises(WorkerDiedError):
        run_usage_study(count=12, max_workers=2, backend="process")
    # Again on a warm pool of the victim's size, forked before the
    # kill is set: the parent reads it per sweep, not the worker.
    monkeypatch.delenv("FRAGDROID_CHAOS_KILL")
    run_usage_study(count=2, max_workers=2, backend="process")
    monkeypatch.setenv("FRAGDROID_CHAOS_KILL", victim)
    with pytest.raises(WorkerDiedError):
        run_usage_study(count=12, max_workers=2, backend="process")


def test_worker_died_outcomes_cover_every_unfinished_chunk(monkeypatch,
                                                           tmp_path):
    """When the pool breaks, every still-pending chunk fails with the
    worker-died marker — apps are never silently dropped."""
    monkeypatch.setenv("FRAGDROID_CHAOS_KILL", f"{SWEEP_PACKAGES[0]}:1")
    monkeypatch.setenv("FRAGDROID_CHAOS_KILL_STATE", str(tmp_path))
    plans = [plan_for(p) for p in SWEEP_PACKAGES]
    outcomes = explore_many(plans, max_workers=1, backend="process",
                            chunksize=len(plans))
    # A single chunk held everything: the whole sweep reads worker-died.
    assert set(outcomes) == set(SWEEP_PACKAGES)
    assert all(o.fault_kind == "worker-died" for o in outcomes.values())


# ---------------------------------------------------------------------------
# Leased pools
# ---------------------------------------------------------------------------

def _pid_after(item) -> int:
    """A sweep body that reports which worker ran it."""
    time.sleep(item[1])
    return os.getpid()


def _pid_sweep(names, delay=0.0, workers=1):
    run = sweep([(name, delay) for name in names], _pid_after,
                key=lambda item: item[0], max_workers=workers,
                backend="process", chunksize=1)
    return run.outcomes


def _pids(outcomes):
    return {outcome.result for outcome in outcomes.values() if outcome.ok}


def test_a_healthy_sweep_hands_its_workers_to_the_next():
    _drop_idle_pools()
    first = _pids(_pid_sweep(["a", "b"]))
    assert first and first != {os.getpid()}
    assert _pids(_pid_sweep(["c", "d"])) == first


def test_a_worker_death_retires_the_pool(monkeypatch):
    """After a worker death the next sweep forks a new pool: new pids."""
    _drop_idle_pools()
    monkeypatch.setenv("FRAGDROID_CHAOS_KILL", "victim")
    broken = _pid_sweep(["a", "b", "victim"])
    assert broken["victim"].fault_kind == "worker-died"
    monkeypatch.delenv("FRAGDROID_CHAOS_KILL")
    after = _pid_sweep(["a", "b", "victim"])
    assert all(outcome.ok for outcome in after.values())
    assert _pids(broken) and _pids(after).isdisjoint(_pids(broken))


def test_chaos_kill_set_after_the_pool_forked_still_kills(monkeypatch):
    """A kill set once a pool of the victim's size is warm still fires,
    and once it is unset the next sweep loses no worker."""
    from repro import FragDroidConfig
    from repro.errors import WorkerDiedError
    from repro.obs import Tracer

    victim = SWEEP_PACKAGES[-1]
    plans = [plan_for(p) for p in SWEEP_PACKAGES[-2:]]
    _drop_idle_pools()
    explore_many(plans[:1], max_workers=1, backend="process")
    monkeypatch.setenv("FRAGDROID_CHAOS_KILL", victim)
    outcomes = explore_many(plans, max_workers=1, backend="process",
                            chunksize=1)
    assert isinstance(outcomes[victim].error, WorkerDiedError)
    monkeypatch.delenv("FRAGDROID_CHAOS_KILL")
    config = FragDroidConfig(tracer=Tracer())
    explore_many(plans, config=config, max_workers=1, backend="process",
                 chunksize=1)
    # A warm worker must not have kept the kill either.
    clean = explore_many(plans, config=config, max_workers=1,
                         backend="process", chunksize=1)
    assert all(outcome.ok for outcome in clean.values())
    assert config.tracer.metrics.counter("sweep.worker.died") == 0


def test_concurrent_sweeps_never_share_workers(monkeypatch):
    """Two threads sweep at once and one of them loses a worker: the
    other's apps all come back ok, on workers of their own."""
    _drop_idle_pools()
    _pid_sweep(["w1", "w2"], workers=2)  # a warm pool for one of them
    monkeypatch.setenv("FRAGDROID_CHAOS_KILL", "victim")
    start = threading.Barrier(2)
    outcomes = {}

    def run(label, names):
        start.wait()
        outcomes[label] = _pid_sweep(names, delay=0.2, workers=2)

    threads = [
        threading.Thread(target=run,
                         args=("doomed", ["a1", "a2", "victim", "a3"])),
        threading.Thread(target=run,
                         args=("healthy", ["b1", "b2", "b3", "b4"])),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert outcomes["doomed"]["victim"].fault_kind == "worker-died"
    assert all(outcome.ok for outcome in outcomes["healthy"].values())
    assert _pids(outcomes["healthy"]).isdisjoint(_pids(outcomes["doomed"]))


def _tracing_memory(item) -> bool:
    import tracemalloc

    return tracemalloc.is_tracing()


def test_a_memory_sampling_sweep_leaves_no_tracing_behind():
    """A warm worker forked while the parent ran tracemalloc traces
    nothing once its app is done."""
    import tracemalloc

    _drop_idle_pools()
    tracemalloc.start()
    try:
        outcomes = explore_many([plan_for(SWEEP_PACKAGES[0])],
                                max_workers=1, backend="process")
    finally:
        tracemalloc.stop()
    assert outcomes[SWEEP_PACKAGES[0]].ok
    probe = sweep([("probe", None)], _tracing_memory,
                  key=lambda item: item[0], max_workers=1,
                  backend="process")
    assert probe.outcomes["probe"].unwrap() is False


def test_leases_under_thread_contention_leak_no_pool():
    """More sweeping threads than cores, switching as often as the
    interpreter allows: when they are done, exactly one pool idles and
    every other pool they forked has been shut down (its workers
    reaped), so no lease was lost or handed out twice."""
    import multiprocessing

    _drop_idle_pools()
    before = {child.pid for child in multiprocessing.active_children()}
    errors = []

    def run(index):
        try:
            for round_ in range(3):
                outcomes = _pid_sweep([f"t{index}.{round_}.{item}"
                                       for item in range(2)])
                assert all(outcome.ok for outcome in outcomes.values())
        except BaseException as exc:  # surfaced below
            errors.append(exc)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(index,))
                   for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    live = {child.pid for child in multiprocessing.active_children()}
    assert len(live - before) == 1
    assert _pids(_pid_sweep(["last"])) == live - before


def test_usage_study_parallel_matches_serial():
    from repro.bench.runner import run_usage_study

    serial = run_usage_study(count=40, max_workers=1)
    assert serial == run_usage_study(count=40, max_workers=4,
                                     backend="thread")
    assert serial == run_usage_study(count=40, max_workers=4,
                                     backend="process")

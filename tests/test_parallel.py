"""The parallel sweep runner."""

import pytest

from repro.bench.parallel import (
    explore_many,
    explore_one,
    successful_results,
    unwrap_results,
)
from repro.corpus import TABLE1_PLANS
from repro.corpus.synth import AppPlan
from repro.corpus.table1_apps import TABLE1_EXPECTED, plan_for
from repro.errors import PackedApkError


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


def test_thaw_error_falls_back_to_remote_sweep_error():
    from repro.bench.parallel import RemoteSweepError, _thaw_error

    error = _thaw_error(("no.such.module", "GoneError", "boom"))
    assert isinstance(error, RemoteSweepError)
    assert "GoneError" in str(error) and "boom" in str(error)
    # Non-exception attributes are refused too.
    error = _thaw_error(("repro.bench.parallel", "explore_many", "boom"))
    assert isinstance(error, RemoteSweepError)


def test_non_picklable_config_falls_back_to_thread(monkeypatch):
    """A config the process backend cannot ship keeps the thread pool
    (and the sweep still completes correctly)."""
    import repro.bench.parallel as parallel
    from repro import FragDroidConfig
    from repro.obs import Tracer

    assert not parallel._picklable(
        parallel._ConfigSpec(kwargs={"hook": lambda: None})
    )
    monkeypatch.setattr(parallel, "_picklable", lambda fn: False)
    spawned = []
    monkeypatch.setattr(parallel, "ProcessPoolExecutor",
                        lambda *a, **k: spawned.append(1))
    config = FragDroidConfig(tracer=Tracer())
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


def test_usage_study_parallel_matches_serial():
    from repro.bench.runner import run_usage_study

    serial = run_usage_study(count=40)
    assert serial == run_usage_study(count=40, max_workers=4,
                                     backend="thread")
    assert serial == run_usage_study(count=40, max_workers=4,
                                     backend="process")

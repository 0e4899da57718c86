"""Every run-record writer's record loads back equal, with its id.

A writer whose record changes on the way through the registry (a tuple
read back as a list, a float as an int) would give the stored record
another content id than the one it was filed under.  One test per
writer: a sweep, the usage study, a serve job, a suite replay and an
ingested bench result.
"""

import json

from repro import Device, FragDroid, FragDroidConfig
from repro.apk import build_apk
from repro.bench.parallel import explore_many
from repro.bench.runner import run_usage_study
from repro.corpus import demo_tabbed_app
from repro.corpus.table1_apps import plan_for
from repro.obs import EventLog, RunRegistry, Tracer
from repro.rnr import ReplayScript, replay_run_record, replay_suite
from repro.serve import Job, JobJournal, JobQueue, Scheduler


class KeepingRegistry(RunRegistry):
    """A registry that also keeps each record object it was given."""

    def __init__(self, directory) -> None:
        super().__init__(directory)
        self.kept = []

    def record(self, record) -> str:
        self.kept.append(record)
        return super().record(record)


def _assert_loads_back_equal(registry) -> None:
    assert registry.kept
    for record in registry.kept:
        loaded = registry.load(record.run_id)
        assert loaded == record
        assert loaded.compute_id() == record.run_id
        assert loaded.to_json() == registry.path_of(
            record.run_id).read_text(encoding="utf-8")


def test_a_sweep_record_loads_back_equal(tmp_path):
    registry = KeepingRegistry(tmp_path)
    config = FragDroidConfig(tracer=Tracer(), event_log=EventLog(),
                             run_registry=registry)
    explore_many([plan_for("com.aircrunch.shopalerts"),
                  plan_for("com.inditex.zara")],
                 config=config, max_workers=1, backend="thread")
    assert registry.kept[0].phases and registry.kept[0].timeline
    _assert_loads_back_equal(registry)


def test_a_usage_study_record_loads_back_equal(tmp_path):
    registry = KeepingRegistry(tmp_path)
    run_usage_study(count=12, max_workers=1, registry=registry)
    assert registry.kept[0].label == "usage-study"
    _assert_loads_back_equal(registry)


def test_a_serve_job_record_loads_back_equal(tmp_path):
    registry = KeepingRegistry(tmp_path / "runs")
    tracer = Tracer()
    scheduler = Scheduler(queue=JobQueue(metrics=tracer.metrics),
                          journal=JobJournal(tmp_path / "journal"),
                          registry=registry, sweep_fn=explore_many,
                          tracer=tracer, event_log=EventLog())
    job = Job(apps=["com.serve.demo.alpha", "com.serve.demo.beta"],
              max_events=200)
    scheduler.queue.submit(job)
    scheduler.run_job(job)
    assert registry.kept[0].label == "serve-job"
    _assert_loads_back_equal(registry)


def test_a_replay_record_loads_back_equal(tmp_path):
    apk = build_apk(demo_tabbed_app())
    result = FragDroid(Device()).explore(apk)
    scripts = [ReplayScript(case.package, case.operations)
               for case in result.passing_test_cases]
    registry = KeepingRegistry(tmp_path)
    registry.record(replay_run_record(replay_suite(scripts, apk)))
    _assert_loads_back_equal(registry)


def test_an_ingested_bench_record_loads_back_equal(tmp_path):
    result = tmp_path / "bench.json"
    result.write_text(json.dumps({
        "schema": 1, "bench": "chaos",
        "data": {"mild": {"apps_ok": 15, "rate": 0.7}, "seconds": 2.5},
    }), encoding="utf-8")
    registry = KeepingRegistry(tmp_path / "runs")
    registry.ingest_bench(result)
    _assert_loads_back_equal(registry)

"""The usage study's sweep: every backend tallies alike, each app is
built once where it is classified, and the default runs on every CPU."""

import pickle

import pytest

from repro.bench.runner import run_usage_study
from repro.corpus import generate_market
from repro.corpus import market as market_module
from repro.obs.registry import RunRegistry
from repro.static.cache import StaticCache

SWEEPS = {"inline": dict(max_workers=1),
          "thread": dict(max_workers=2, backend="thread"),
          "process": dict(max_workers=2, backend="process")}


@pytest.mark.parametrize("seed", [2018, 6007])
def test_every_backend_tallies_alike_with_and_without_a_cache(tmp_path,
                                                              seed):
    expected = run_usage_study(seed=seed, max_workers=1)
    for name, sweep in SWEEPS.items():
        assert run_usage_study(seed=seed, **sweep) == expected, name
        cache = StaticCache(directory=tmp_path / name)
        assert run_usage_study(seed=seed, cache=cache, **sweep) == expected
        assert (cache.hits, cache.misses) == (0, 217), name
        assert run_usage_study(seed=seed, cache=cache, **sweep) == expected
        assert (cache.hits, cache.misses) == (217, 217), name


def _counted_builds(monkeypatch):
    builds = []
    build_app = market_module.build_app

    def counted(plan):
        builds.append(plan.package)
        return build_app(plan)

    monkeypatch.setattr(market_module, "build_app", counted)
    return builds


@pytest.mark.parametrize("warm", [False, True])
def test_a_cached_study_builds_each_app_once(tmp_path, monkeypatch, warm):
    # One worker runs inline, where the patched build_app is counted,
    # unless the environment names a backend.
    monkeypatch.delenv("FRAGDROID_SWEEP_BACKEND", raising=False)
    cache = StaticCache(directory=tmp_path / "cache")
    if warm:
        run_usage_study(count=40, seed=7, max_workers=1, cache=cache)
    builds = _counted_builds(monkeypatch)
    run_usage_study(count=40, seed=7, max_workers=1, cache=cache)
    packages = [app.package for app in generate_market(count=40, seed=7)]
    assert builds == packages


def test_the_market_builds_nothing():
    app = generate_market(count=1)[0]
    blob = pickle.dumps(app)
    assert b"AppSpec" not in blob
    assert len(blob) < 1024
    assert pickle.loads(blob).build().digest() == app.build().digest()


def _study_meta(tmp_path, **kwargs):
    registry = RunRegistry(tmp_path / "runs")
    run_usage_study(count=12, registry=registry, **kwargs)
    (record,) = registry.list()
    return {key: record.meta[key] for key in ("backend", "workers")}


def test_the_default_study_takes_processes_on_several_cpus(tmp_path,
                                                           monkeypatch):
    monkeypatch.delenv("FRAGDROID_SWEEP_BACKEND", raising=False)
    monkeypatch.setenv("FRAGDROID_WORKERS", "2")
    assert _study_meta(tmp_path / "a") == {"backend": "process",
                                           "workers": 2}
    monkeypatch.setenv("FRAGDROID_SWEEP_BACKEND", "thread")
    assert _study_meta(tmp_path / "b") == {"backend": "thread",
                                           "workers": 2}
    monkeypatch.delenv("FRAGDROID_SWEEP_BACKEND")
    monkeypatch.setenv("FRAGDROID_WORKERS", "1")
    assert _study_meta(tmp_path / "c") == {"backend": "thread",
                                           "workers": 1}


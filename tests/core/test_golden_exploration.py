"""Byte-identical exploration outputs against a committed golden fixture.

``golden/exploration_outputs.json`` pins, for every Table-I app and for
the 200-activity ``com.scale.a200f150`` the pipeline ledger's large-app
workload explores, what one FragDroid run on a fresh device produces:
the canonical report JSON, the run trace and every generated test
case's Robotium source (hashed together), plus the device step count,
the test-case count and the trace length.  Runtime optimizations may
only change how fast these arrive, never what they are.  Regenerate the
fixture only for *intentional* model changes::

    PYTHONPATH=src python tests/core/test_golden_exploration.py
"""

import hashlib
import json
import pathlib

import pytest

from repro import FragDroidConfig
from repro.android import Device
from repro.apk.builder import build_apk
from repro.bench.parallel import (
    _IDLE_POOLS,
    _drop_idle_pools,
    explore_many,
)
from repro.core.explorer import FragDroid
from repro.core.report import result_to_json
from repro.corpus import TABLE1_PLANS
from repro.corpus.synth import AppPlan, build_app
from repro.static.cache import StaticCache

GOLDEN_PATH = (pathlib.Path(__file__).parent / "golden"
               / "exploration_outputs.json")

#: Table I, plus one app far beyond its working set, where the emulator
#: rebuilds the same screens thousands of times per exploration.
PLANS = {plan.package: plan for plan in (
    *TABLE1_PLANS,
    AppPlan("com.scale.a200f150", visited_activities=200,
            visited_fragments=150),
)}


def result_entry(result) -> dict:
    """The pinned quantities one exploration result carries itself."""
    digest = hashlib.sha256()
    digest.update(result_to_json(result).encode("utf-8"))
    digest.update(result.trace_text().encode("utf-8"))
    for case in result.test_cases:
        digest.update(case.to_robotium_java().encode("utf-8"))
    return {"sha256": digest.hexdigest(),
            "test_cases": len(result.test_cases),
            "trace": len(result.trace)}


def golden_entry(package: str) -> dict:
    """The pinned quantities of one exploration of ``package``."""
    device = Device()
    result = FragDroid(device).explore(build_apk(build_app(PLANS[package])))
    return {**result_entry(result), "steps": device.steps}


def _load() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def test_fixture_covers_every_table1_app():
    assert sorted(_load()) == sorted(PLANS)


@pytest.mark.parametrize("package", sorted(PLANS))
def test_exploration_outputs_byte_identical(package):
    assert golden_entry(package) == _load()[package]


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_sweep_backends_reproduce_the_golden_outputs(backend):
    """Outputs are deterministic across sweep backends: every fixture
    app explored through explore_many matches its pinned entry (the
    device step count stays with the device, so it is not compared).
    The process sweep runs twice: on a freshly forked pool, then on the
    warm pool the first run left idle."""
    _drop_idle_pools()
    golden = _load()
    idle = []
    for _ in range(2 if backend == "process" else 1):
        outcomes = explore_many(list(PLANS.values()), max_workers=2,
                                backend=backend)
        assert sorted(outcomes) == sorted(golden)
        for package, outcome in outcomes.items():
            expected = {key: value
                        for key, value in golden[package].items()
                        if key != "steps"}
            assert result_entry(outcome.unwrap()) == expected, package
        idle.append(_IDLE_POOLS.get(2))
    if backend == "process":
        # The second sweep leased, and then idled, the first one's pool.
        assert idle[0] is not None and idle[1] is idle[0]


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_a_warm_static_cache_reproduces_the_golden_outputs(backend,
                                                           tmp_path):
    """A second sweep through one warm cache serves every app's static
    model from it and still matches every pinned entry.  The cache has
    a directory, so a process worker shares it too; one worker keeps
    the directory's hit tally exact."""
    golden = _load()
    config = FragDroidConfig(static_cache=StaticCache(tmp_path))
    for _ in range(2):
        outcomes = explore_many(list(PLANS.values()), config=config,
                                max_workers=1, backend=backend)
    assert StaticCache.persistent_stats(tmp_path)["hits"] == len(PLANS)
    for package, outcome in outcomes.items():
        expected = {key: value for key, value in golden[package].items()
                    if key != "steps"}
        assert result_entry(outcome.unwrap()) == expected, package


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps({package: golden_entry(package)
                    for package in sorted(PLANS)},
                   indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")

"""Byte-identical faulted explorations against a committed fixture.

``golden/faulted_runs.json`` pins three Table-I apps explored under the
``mild`` and ``hostile`` fault profiles with a fixed seed: the sha256
of the run trace, of the flight record's ``(kind, step, attributes)``
projection and of the observed sensitive-API invocations, the
``stats`` dict, the tracer's counters, and each profile's run-registry
discovery ``timeline`` of the three-app sweep.  The fault-free fixture
(``exploration_outputs.json``)
never exercises the resilience paths -- requeues, quarantines, ANRs,
injected adb faults -- so this one does.  Regenerate it only for
*intentional* model changes::

    PYTHONPATH=src python tests/core/test_golden_faulted.py
"""

import dataclasses
import hashlib
import json
import pathlib
import tempfile

import pytest

from repro.apk.builder import build_apk
from repro.bench.parallel import explore_many
from repro.core.config import FragDroidConfig
from repro.core.explorer import FragDroid
from repro.corpus import TABLE1_PLANS
from repro.corpus.synth import build_app
from repro.faults import make_device
from repro.obs import EventLog, Tracer
from repro.obs.registry import RunRegistry

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "faulted_runs.json"

PACKAGES = ("com.aircrunch.shopalerts", "com.c51",
            "com.cnn.mobile.android.phone")
PROFILES = ("mild", "hostile")
SEED = 7
PLANS = {plan.package: plan for plan in TABLE1_PLANS
         if plan.package in PACKAGES}

#: The event kinds the fixture pins.  Kinds added later are left out of
#: the projection, so a new kind cannot disturb the existing record.
PINNED_KINDS = frozenset((
    "run.start", "run.end", "state.discovered", "widget.clicked",
    "case.decision", "reflection.switch", "forced.start",
    "input.generated", "transition", "fault.injected", "retry",
    "quarantine", "crash.recovery",
))


def _pinned_attributes(event) -> dict:
    """The attributes the fixture pins.  An ANR's ``error`` text joined
    its ``fault.injected`` event after the fixture was written (it
    renders the trace's ``anr`` line), so it is left out."""
    if event.kind == "fault.injected" and \
            event.attributes.get("fault") == "anr":
        return {key: value for key, value in event.attributes.items()
                if key != "error"}
    return event.attributes


def _config(profile: str, **extra) -> FragDroidConfig:
    return FragDroidConfig(fault_profile=profile, fault_seed=SEED, **extra)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def event_projection(events) -> str:
    """The pinned ``(kind, step, attributes)`` rows as canonical JSON."""
    return json.dumps([[e.kind, e.step, _pinned_attributes(e)]
                       for e in events if e.kind in PINNED_KINDS],
                      sort_keys=True)


def api_rows(result) -> list:
    """The observed sensitive-API invocations as ``[step, api, class]``."""
    return [[inv.step, inv.api, inv.component.cls]
            for inv in result.api_invocations]


def result_entry(result) -> dict:
    return {"trace_sha256": _sha256(result.trace_text()),
            "trace": len(result.trace),
            "events_sha256": _sha256(event_projection(result.events)),
            "apis_sha256": _sha256(json.dumps(api_rows(result))),
            "stats": dataclasses.asdict(result.stats)}


def _explore(package: str, config: FragDroidConfig):
    device = make_device(config.fault_plan, scope=package)
    return FragDroid(device, config).explore(
        build_apk(build_app(PLANS[package])))


def golden_entry(package: str, profile: str) -> dict:
    tracer = Tracer()
    result = _explore(package, _config(profile, event_log=EventLog(),
                                       tracer=tracer))
    return {**result_entry(result), "counters": tracer.metrics.counters()}


def sweep_timeline(profile: str, backend: str = "thread") -> dict:
    """The run registry's per-app discovery timeline of the three-app
    sweep, recorded through an enabled event log."""
    with tempfile.TemporaryDirectory() as directory:
        registry = RunRegistry(directory)
        explore_many(list(PLANS.values()),
                     _config(profile, event_log=EventLog(),
                             run_registry=registry),
                     max_workers=2, backend=backend)
        (record,) = registry.list()
        return record.timeline


def _load() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def _key(package: str, profile: str) -> str:
    return f"{package}/{profile}"


def _timeline_key(profile: str) -> str:
    return f"sweep-timeline/{profile}"


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("package", PACKAGES)
def test_faulted_run_byte_identical(package, profile):
    expected = _load()[_key(package, profile)]
    assert golden_entry(package, profile) == expected
    # The event log observes the run; it never changes what the run did.
    plain = _explore(package, _config(profile))
    assert _sha256(plain.trace_text()) == expected["trace_sha256"]


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("profile", PROFILES)
def test_sweep_backends_reproduce_the_faulted_runs(backend, profile):
    outcomes = explore_many(list(PLANS.values()),
                            _config(profile, event_log=EventLog()),
                            max_workers=2, backend=backend)
    golden = _load()
    for package, outcome in outcomes.items():
        expected = dict(golden[_key(package, profile)])
        expected.pop("counters")
        assert result_entry(outcome.unwrap()) == expected, package


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("profile", PROFILES)
def test_sweep_timeline_matches_the_golden(backend, profile):
    assert sweep_timeline(profile, backend) == \
        _load()[_timeline_key(profile)]


if __name__ == "__main__":
    golden = {_key(package, profile): golden_entry(package, profile)
              for package in PACKAGES for profile in PROFILES}
    golden.update({_timeline_key(profile): sweep_timeline(profile)
                   for profile in PROFILES})
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")

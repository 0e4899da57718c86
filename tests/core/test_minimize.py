"""Test-suite minimization."""

import pytest

from repro import Device, FragDroid
from repro.apk import build_apk
from repro.core.minimize import minimize_suite
from repro.corpus import build_table1_app
from tests.conftest import make_full_demo_spec


@pytest.fixture(scope="module")
def explored():
    apk = build_apk(make_full_demo_spec())
    return FragDroid(Device()).explore(apk), apk


def test_minimized_suite_covers_everything(explored):
    result, apk = explored
    suite = minimize_suite(result, apk)
    universe = set(result.visited_activities) | set(result.visited_fragments)
    assert suite.covered == universe


def test_minimization_actually_reduces(explored):
    result, apk = explored
    suite = minimize_suite(result, apk)
    assert len(suite.cases) < suite.original_size
    assert suite.reduction > 0
    assert "fewer" in suite.render()


def test_minimized_cases_are_passing_cases(explored):
    result, apk = explored
    suite = minimize_suite(result, apk)
    originals = {case.name for case in result.passing_test_cases}
    assert all(case.name in originals for case in suite.cases)


def test_minimize_on_corpus_app():
    apk = build_apk(build_table1_app("org.rbc.odb"))
    result = FragDroid(Device()).explore(apk)
    suite = minimize_suite(result, apk)
    universe = set(result.visited_activities) | set(result.visited_fragments)
    assert suite.covered == universe
    assert len(suite.cases) <= suite.original_size

def test_truncated_probe_is_counted_not_swallowed():
    """The satellite bug: a probe that breaks mid-replay must flag the
    truncation instead of silently under-counting coverage."""
    from types import SimpleNamespace

    from repro.core.minimize import _coverage_of_case
    from repro.core.queue import click_op, launch_op
    from repro.core.testcase import TestCase
    from repro.obs import Tracer

    apk = build_apk(make_full_demo_spec())
    package = apk.package
    good = TestCase(package, "Good", (launch_op(), click_op("btn_next")))
    broken = TestCase(package, "Broken",
                      (launch_op(), click_op("no_such_widget")))
    universe = {f"{package}.MainActivity", f"{package}.SecondActivity"}

    covered, truncated = _coverage_of_case(good, apk, universe)
    assert not truncated
    assert covered == universe

    covered, truncated = _coverage_of_case(broken, apk, universe)
    assert truncated
    # The prefix before the break still counts.
    assert f"{package}.MainActivity" in covered

    tracer = Tracer()
    result = SimpleNamespace(
        visited_activities=sorted(universe), visited_fragments=[],
        passing_test_cases=[good, broken],
    )
    suite = minimize_suite(result, apk, tracer=tracer)
    assert suite.truncated_probes == 1
    assert tracer.metrics.counter("minimize.truncated_probes") == 1
    assert "1 coverage probe truncated" in suite.render()


def test_untruncated_suite_renders_unchanged(explored):
    result, apk = explored
    suite = minimize_suite(result, apk)
    assert suite.truncated_probes == 0
    assert "truncated" not in suite.render()


def test_greedy_tie_break_picks_lowest_index():
    """Equal-gain candidates must resolve to the lowest case index, not
    dict insertion order."""
    from types import SimpleNamespace

    from repro.core.queue import click_op, launch_op
    from repro.core.testcase import TestCase

    apk = build_apk(make_full_demo_spec())
    package = apk.package
    # Three identical cases: all cover the same two components.
    cases = [
        TestCase(package, f"Twin{i}", (launch_op(), click_op("btn_next")))
        for i in range(3)
    ]
    result = SimpleNamespace(
        visited_activities=[f"{package}.MainActivity",
                            f"{package}.SecondActivity"],
        visited_fragments=[],
        passing_test_cases=cases,
    )
    suite = minimize_suite(result, apk)
    assert [case.name for case in suite.cases] == ["Twin0"]


def _prefix_replay_oracle(case, apk, known_components):
    """The minimiser's former probe, kept as an oracle: replay every
    prefix of the case with ``TestCase.run`` on one scratch device,
    restarting the app before each, and sample after each prefix."""
    from repro.adb import Adb
    from repro.adb.instrumentation import instrument_manifest
    from repro.core.testcase import TestCase
    from repro.errors import ReproError
    from repro.robotium import Solo

    device = Device()
    adb = Adb(device)
    adb.install(instrument_manifest(apk))
    solo = Solo(device)
    covered = set()
    try:
        for index in range(1, len(case.operations) + 1):
            prefix = TestCase(case.package, "Probe", case.operations[:index])
            device.force_stop(case.package)
            prefix.run(solo, adb)
            activity = device.current_activity_name()
            if activity in known_components:
                covered.add(activity)
            for fragment in device.current_fragment_classes():
                if fragment in known_components:
                    covered.add(fragment)
    except ReproError:
        return covered, True
    return covered, False


def _equivalence_specs():
    from repro.corpus import TABLE1_PLANS, demo_tabbed_app

    specs = {"demo:full": make_full_demo_spec, "demo:tabs": demo_tabbed_app}
    for plan in TABLE1_PLANS:
        specs[plan.package] = (
            lambda package=plan.package: build_table1_app(package))
    return specs


@pytest.mark.parametrize("app", sorted(_equivalence_specs()))
def test_one_pass_probe_matches_prefix_replay(app):
    """One replay per case observes what replaying every prefix did:
    the same ``(covered, truncated)`` for every passing case, on its own
    APK and on a version whose first clicked widget was renamed (where
    probes truncate)."""
    from repro.core.minimize import _coverage_of_case
    from repro.core.queue import OpKind
    from repro.corpus.mutations import rename_widget

    spec = _equivalence_specs()[app]()
    apk = build_apk(spec)
    result = FragDroid(Device()).explore(apk)
    universe = set(result.visited_activities) | set(result.visited_fragments)
    assert result.passing_test_cases
    versions = [apk]
    clicked = sorted(op.target for case in result.passing_test_cases
                     for op in case.operations if op.kind is OpKind.CLICK)
    if clicked:
        versions.append(build_apk(rename_widget(spec, clicked[0], "gone")))
    for version in versions:
        for case in result.passing_test_cases:
            assert _coverage_of_case(case, version, universe) == \
                _prefix_replay_oracle(case, version, universe), case.name

"""An install parses its resource table and builds its component
blueprints once; its processes share them.

Every cold start (a force-stopped or crashed app started again) builds a
new :class:`AppProcess`, and the explorer cold-starts the app for every
UI-queue item.  The parse and blueprint counts are therefore pinned as
work, not time: they must not grow with the number of starts.
"""

from collections import Counter

import pytest

from repro.android import Device, app_runtime
from repro.android.app_runtime import AppBlueprints
from repro.apk import build_apk
from repro.apk.resources import ResourceTable
from repro.bench.parallel import explore_one
from repro.core.explorer import FragDroid
from repro.corpus.synth import AppPlan, build_app
from repro.corpus.table1_apps import build_table1_app, plan_for

PACKAGE = "com.example.demo"


@pytest.fixture
def counts(monkeypatch):
    """Calls of the resource-table parse and of ``Device.start_activity``."""
    tally = {"parses": 0, "starts": 0}
    parse = ResourceTable.from_public_xml.__func__
    start = Device.start_activity

    def counting_parse(cls, package, text):
        tally["parses"] += 1
        return parse(cls, package, text)

    def counting_start(self, *args, **kwargs):
        tally["starts"] += 1
        return start(self, *args, **kwargs)

    monkeypatch.setattr(ResourceTable, "from_public_xml",
                        classmethod(counting_parse))
    monkeypatch.setattr(Device, "start_activity", counting_start)
    return tally


PLANS = [
    plan_for("com.aircrunch.shopalerts"),
    AppPlan("com.scale.a60f40", visited_activities=60, visited_fragments=40),
]


@pytest.fixture
def builds(monkeypatch):
    """Blueprint builds per component name, and installs."""
    tally = Counter()
    activity_blueprint = app_runtime.activity_blueprint
    fragment_blueprint = app_runtime.fragment_blueprint
    install = Device.install

    def counting_activity(spec, *args):
        tally[spec.name] += 1
        return activity_blueprint(spec, *args)

    def counting_fragment(spec, *args):
        tally[spec.name] += 1
        return fragment_blueprint(spec, *args)

    def counting_install(self, apk):
        tally["<installs>"] += 1
        return install(self, apk)

    monkeypatch.setattr(app_runtime, "activity_blueprint", counting_activity)
    monkeypatch.setattr(app_runtime, "fragment_blueprint", counting_fragment)
    monkeypatch.setattr(Device, "install", counting_install)
    return tally


@pytest.mark.parametrize("plan", PLANS, ids=lambda plan: plan.package)
def test_explore_parses_resources_at_decode_and_install_only(counts, plan):
    outcome = explore_one(plan)
    assert outcome.ok
    assert counts["starts"] > 2
    assert counts["parses"] <= 2


def test_cold_starts_share_the_installed_table(device, demo_apk):
    device.install(demo_apk)
    installed = device._app(PACKAGE).resources
    assert device.launch_app(PACKAGE)
    first = device.foreground
    assert first.resources is installed

    device.force_stop(PACKAGE)
    assert device.launch_app(PACKAGE)
    restarted = device.foreground
    assert restarted is not first
    assert restarted.resources is installed

    device.click_widget("btn_next")
    device.click_widget("btn_crash")
    assert device.crash_count == 1 and not device.app_alive
    assert device.launch_app(PACKAGE)
    assert device.foreground is not restarted
    assert device.foreground.resources is installed


def test_exploration_never_mutates_the_installed_table():
    apk = build_apk(build_table1_app("com.aircrunch.shopalerts"))
    device = Device()
    FragDroid(device).explore(apk)
    installed = device._app(apk.package).resources
    assert installed.to_public_xml() == apk.public_xml


def test_reinstall_gets_a_fresh_table(device, demo_apk):
    device.install(demo_apk)
    old = device._app(PACKAGE).resources
    device.install(demo_apk)
    fresh = device._app(PACKAGE).resources
    assert fresh is not old
    assert fresh.to_public_xml() == old.to_public_xml()
    assert device.launch_app(PACKAGE)
    assert device.foreground.resources is fresh

    device.uninstall(PACKAGE)
    assert not device.is_installed(PACKAGE)
    device.install(demo_apk)
    again = device._app(PACKAGE).resources
    assert again is not old and again is not fresh


# -- component blueprints ---------------------------------------------------

@pytest.mark.parametrize("plan", PLANS, ids=lambda plan: plan.package)
def test_explore_builds_each_blueprint_once_per_install(builds, counts,
                                                        plan):
    outcome = explore_one(plan)
    assert outcome.ok
    installs = builds.pop("<installs>")
    spec = build_app(plan)
    names = [c.name for c in spec.activities + spec.fragments]
    assert counts["starts"] > len(spec.activities)
    assert builds == Counter({name: installs for name in names})


def test_crash_restarts_reuse_the_blueprints(builds, device, demo_apk):
    device.install(demo_apk)
    blueprints = device._app(PACKAGE).blueprints
    built = dict(builds)
    for _ in range(3):
        assert device.launch_app(PACKAGE)
        device.click_widget("btn_next")
        device.click_widget("btn_crash")
        assert not device.app_alive
        assert device.launch_app(PACKAGE)
        device.force_stop(PACKAGE)
    assert device.crash_count == 3
    assert builds == built
    assert device._app(PACKAGE).blueprints is blueprints


def test_restart_builds_fresh_widgets(device, demo_apk):
    device.install(demo_apk)
    assert device.launch_app(PACKAGE)
    before = {id(w): w for w in device.ui_dump()}
    device.enter_text("password", "typed before")

    device.force_stop(PACKAGE)
    assert device.launch_app(PACKAGE)
    after = device.ui_dump()
    assert [w.widget_id for w in after] == \
        [w.widget_id for w in before.values()]
    assert not any(id(w) in before for w in after)
    password = next(w for w in after if w.widget_id == "password")
    assert password.entered_text == ""


def test_reinstall_builds_fresh_blueprints(device, demo_apk):
    device.install(demo_apk)
    old = device._app(PACKAGE).blueprints
    device.install(demo_apk)
    fresh = device._app(PACKAGE).blueprints
    assert fresh is not old
    assert fresh.activity("MainActivity") == old.activity("MainActivity")
    assert device.launch_app(PACKAGE)
    assert device.foreground.blueprints is fresh

    device.uninstall(PACKAGE)
    device.install(demo_apk)
    assert device._app(PACKAGE).blueprints not in (old, fresh)


def _snapshot(blueprints: AppBlueprints) -> str:
    spec = blueprints.spec
    return repr([blueprints.activity(a.name) for a in spec.activities]
                + [blueprints.fragment(f.name) for f in spec.fragments])


@pytest.mark.parametrize("plan", PLANS, ids=lambda plan: plan.package)
def test_exploration_never_mutates_a_blueprint(plan):
    apk = build_apk(build_app(plan))
    device = Device()
    FragDroid(device).explore(apk)
    explored = device._app(apk.package).blueprints
    # Built from a second, untouched copy of the app.
    untouched = build_apk(build_app(plan))
    reference = AppBlueprints(
        untouched.runtime_spec(),
        ResourceTable.from_public_xml(untouched.package,
                                      untouched.public_xml))
    assert _snapshot(explored) == _snapshot(reference)

"""Targeted driving: reach a specific component or sensitive API.

SmartDroid (Section IX) creates "an Activity switch path that leads to
the sensitive API calls"; FragDroid's AFTM plus its recorded queue-item
paths provide the same capability at Fragment granularity: after an
exploration, every visited component has a concrete, replayable
operation path, and every observed API maps to the components that
invoked it.  This module packages that into a one-call targeted mode —
"the capability of detecting arbitrary API calls" (Abstract).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.android.device import Device
from repro.apk.package import ApkPackage
from repro.core.explorer import ExplorationResult
from repro.core.testcase import TestCase
from repro.errors import ExplorationError, TestCaseError
from repro.rnr.recorder import ReplayScript
from repro.rnr.replay import replay_script
from repro.robotium.solo import Solo


def components_invoking(result: ExplorationResult, api: str) -> List[str]:
    """The component classes observed invoking a sensitive API."""
    return sorted({
        invocation.component.cls
        for invocation in result.api_invocations
        if invocation.api == api
    })


def path_to_component(result: ExplorationResult,
                      component: str) -> Tuple:
    """The recorded operation path that first reached a component."""
    try:
        return result.paths[component]
    except KeyError:
        raise ExplorationError(
            f"{component} was never reached; no path recorded"
        ) from None


def drive_to_component(
    result: ExplorationResult,
    apk: ApkPackage,
    device: Device,
    component: str,
    name: str = "TargetedTest",
) -> TestCase:
    """Replay the recorded path to ``component`` on a device.

    Installs the instrumented package (paths may include forced starts),
    replays the path, and returns it as a test case — the reusable
    artifact a security analyst hands to a colleague.  Raises
    :class:`TestCaseError` when the path no longer applies.
    """
    operations = path_to_component(result, component)
    outcome = replay_script(ReplayScript(apk.package, operations), device,
                            apk=apk, name=name)
    if not outcome.ok:
        raise TestCaseError(outcome.detail)
    return TestCase(package=apk.package, name=name, operations=operations)


def drive_to_api(
    result: ExplorationResult,
    apk: ApkPackage,
    device: Device,
    api: str,
) -> Tuple[TestCase, str]:
    """Drive straight to (one component invoking) a sensitive API.

    Returns the test case and the component chosen.  Raises
    :class:`ExplorationError` when the exploration never observed the
    API (nothing to target).
    """
    candidates = components_invoking(result, api)
    if not candidates:
        raise ExplorationError(f"API {api!r} was never observed")
    component = candidates[0]
    before = len(device.api_monitor.invocations)
    case = drive_to_component(result, apk, device, component,
                              name="TargetedApiTest")

    def fired() -> bool:
        return any(
            invocation.api == api
            for invocation in device.api_monitor.invocations[before:]
        )

    if not fired():
        # Lifecycle alone didn't fire it: the call sits in a click
        # handler, so exercise the target component's own widgets
        # (identified through the resource dependency, as always).
        dep = result.info.resource_dep
        own_widgets = set(dep.widgets_of_fragment(component)) | set(
            dep.widgets_of_activity(component)
        )
        solo = Solo(device)
        for widget in solo.clickable_widgets():
            if widget.widget_id not in own_widgets:
                continue
            solo.click_on_view(widget.widget_id)
            if fired():
                break
    if not fired():
        raise ExplorationError(
            f"replayed path to {component} but {api!r} did not fire"
        )
    return case, component

"""Activity-level model-based testing — the "traditional approach".

This is the tool class the paper compares against (A3E's targeted
exploration, TrimDroid's Activity transition models): it performs the
same static analysis and systematic clicking as FragDroid, but treats
the Activity as one fixed UI state.  Consequences, all observable in the
benches:

* each Activity's interface is processed exactly once — a Fragment
  transformation or drawer opening does not create a new state, so the
  widgets it reveals are never enumerated (Challenge 1 / Challenge 2);
* there is no reflection switching, so Fragments reachable only through
  hidden relationships are never shown;
* every sensitive-API invocation is attributed to the Activity on top —
  calls made by Fragment code are misattributed, and calls in
  never-shown Fragments are missed entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.adb.bridge import Adb
from repro.adb.instrumentation import instrument_manifest
from repro.android.device import Device
from repro.apk.package import ApkPackage
from repro.core.queue import Operation, click_op, force_start_op, launch_op
from repro.core.testcase import apply_operation
from repro.core.ui_driver import UiDriver
from repro.errors import ReproError
from repro.obs import NULL_TRACER, Tracer
from repro.robotium.solo import Solo
from repro.static.extractor import StaticInfo, extract_static_info
from repro.types import ApiInvocation, InvocationSource


@dataclass
class ActivityOnlyResult:
    """What an Activity-level tool reports for one app."""

    package: str
    visited_activities: Set[str] = field(default_factory=set)
    # The tool's own attribution: (api, activity-it-blamed).
    attributed: List[Tuple[str, str]] = field(default_factory=list)
    # Ground truth of what actually fired while it ran (for scoring).
    ground_truth: List[ApiInvocation] = field(default_factory=list)
    events: int = 0
    crashes: int = 0

    def detected_apis(self) -> Set[str]:
        return {api for api, _ in self.attributed}

    def misattributed_fragment_calls(self) -> int:
        """Invocations that really came from Fragments but were blamed
        on an Activity."""
        return sum(
            1 for inv in self.ground_truth
            if inv.source is InvocationSource.FRAGMENT
        )


class ActivityExplorer:
    """A systematic Activity-state explorer."""

    def __init__(self, device: Device, max_events: int = 20000,
                 forced_start: bool = True,
                 tracer: Optional[Tracer] = None) -> None:
        self.device = device
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.adb = Adb(device, tracer=self.tracer)
        self.solo = Solo(device)
        self.max_events = max_events
        self.forced_start = forced_start

    def run(self, apk: ApkPackage,
            info: Optional[StaticInfo] = None) -> ActivityOnlyResult:
        with self.tracer.span("baseline.activity_mbt", app=apk.package):
            return self._run(apk, info)

    def _run(self, apk: ApkPackage,
             info: Optional[StaticInfo] = None) -> ActivityOnlyResult:
        if info is None:
            info = extract_static_info(apk, tracer=self.tracer)
        installed = instrument_manifest(apk) if self.forced_start else apk
        self.adb.install(installed)
        package = apk.package
        result = ActivityOnlyResult(package=package)
        driver = UiDriver(self.solo, info)
        api_cursor = len(self.device.api_monitor.invocations)

        def consume_api_log() -> None:
            nonlocal api_cursor
            fresh = self.device.api_monitor.invocations[api_cursor:]
            api_cursor = len(self.device.api_monitor.invocations)
            blamed = self.device.current_activity_name()
            for invocation in fresh:
                if invocation.component.package != package:
                    continue
                result.ground_truth.append(invocation)
                result.attributed.append(
                    (invocation.api, blamed or invocation.component.cls)
                )

        # Work list: operation paths reaching unprocessed activities.
        pending: List[Tuple[Tuple[Operation, ...], str]] = []
        processed: Set[str] = set()

        def replay(path: Tuple[Operation, ...]) -> bool:
            """Relaunch and re-run ``path``; False once a step fails."""
            self.device.force_stop(package)
            for op in (launch_op(),) + path:
                try:
                    apply_operation(op, package, self.solo, self.adb)
                except ReproError:
                    return False
                finally:
                    consume_api_log()
            return True

        pending.append(((), "entry"))
        while pending and self.device.steps < self.max_events:
            path, _label = pending.pop(0)
            if not replay(path):
                result.crashes = self.device.crash_count
                continue
            activity = self.device.current_activity_name()
            if activity is None:
                continue
            result.visited_activities.add(activity)
            if activity in processed:
                continue
            processed.add(activity)
            # One sweep per Activity over the widgets present on arrival —
            # the fixed-UI-state assumption.
            driver.fill_inputs()
            consume_api_log()
            widget_ids = driver.clickable_ids()
            for widget_id in widget_ids:
                if self.device.steps >= self.max_events:
                    break
                if not self.device.app_alive and not replay(path):
                    break
                before = self.device.current_activity_name()
                try:
                    self.tracer.inc("clicks")
                    self.solo.click_on_view(widget_id)
                except ReproError:
                    continue
                consume_api_log()
                after = self.device.current_activity_name()
                if after is None:
                    result.crashes = self.device.crash_count
                    replay(path)
                    continue
                if any(w.layer in ("dialog", "popup")
                       for w in self.device.ui_dump()):
                    # Same popup handling as FragDroid: dismiss via blank
                    # space and keep clicking.
                    self.device.tap(1040, 1900)
                    continue
                if after != before:
                    result.visited_activities.add(after)
                    if after not in processed:
                        pending.append(
                            (path + (click_op(widget_id),), after)
                        )
                    replay(path)

        if self.forced_start:
            for activity in info.activities:
                if (activity in result.visited_activities
                        or self.device.steps >= self.max_events):
                    continue
                component = f"{package}/{activity}"
                if replay((force_start_op(component),)):
                    current = self.device.current_activity_name()
                    if current == activity:
                        result.visited_activities.add(activity)
        result.events = self.device.steps
        result.crashes = self.device.crash_count
        self.tracer.inc("events.injected", result.events)
        return result

"""A device that misbehaves on purpose.

:class:`FaultyDevice` is a :class:`~repro.android.device.Device` whose
widget clicks can fail the two ways real phones fail mid-sweep:

* **ANR** — the widget swallows the tap and the instrumentation times
  out waiting for a reaction (:class:`~repro.errors.CommandTimeoutError`);
* **spurious crash** — the app force-closes even though nothing in the
  app logic would (the paper's "FC" case, minus the app's fault).

Both still consume an input event — the tap happened, the phone just
didn't cooperate — so the event budget accounting matches a real run.
Faults draw from the plan's seeded stream; with the same plan and the
same operation sequence, the same clicks fail on every run.  Each one
is a ``fault.injected`` event in the run record, wherever the click
came from: a click sweep, a queue item's test case or a replay.
"""

from __future__ import annotations

from typing import Optional

from repro.android.device import Device
from repro.errors import CommandTimeoutError
from repro.faults.plan import FaultInjector, FaultPlan
from repro.obs.events import FAULT_INJECTED, NULL_EVENT_LOG, EventLog


class FaultyDevice(Device):
    """One emulated device plus an injected-fault stream."""

    def __init__(self, plan: FaultPlan, scope: str = "",
                 injector: Optional[FaultInjector] = None) -> None:
        super().__init__()
        self.plan = plan
        self.injector = injector if injector is not None \
            else plan.injector(scope)
        # The run record its faults go into (not the input event_log).
        self.events: EventLog = NULL_EVENT_LOG

    def click_widget(self, widget_id: str) -> None:
        if not self.app_alive:
            super().click_widget(widget_id)
            return
        fault = self.injector.click_fault()
        if fault is None:
            super().click_widget(widget_id)
            return
        self.steps += 1
        self._record_event("tap", target=widget_id)
        if fault == "anr":
            self.logcat.log("W", "ActivityManager",
                            f"ANR: {widget_id} not responding", self.steps)
            error = f"widget {widget_id!r} unresponsive (ANR)"
            self.events.emit(FAULT_INJECTED, step=self.steps, fault=fault,
                             widget=widget_id, error=error)
            raise CommandTimeoutError(error)
        self.events.emit(FAULT_INJECTED, step=self.steps, fault=fault,
                         widget=widget_id)
        package = self.foreground.package
        self.logcat.log("E", "AndroidRuntime",
                        f"FATAL EXCEPTION (injected) in {package}",
                        self.steps)
        self._handle_crash(package)


def make_device(plan: Optional[FaultPlan], scope: str = "") -> Device:
    """A device matching the plan: faulty when one is active, plain
    otherwise — the single construction point sweeps and the CLI use."""
    if plan is None or not plan.enabled:
        return Device()
    return FaultyDevice(plan, scope=scope)

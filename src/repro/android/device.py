"""The device: install apps, deliver input events, expose the screen.

The emulator's public surface mirrors what an instrumented phone offers
an automation harness:

* package management (``install`` / ``uninstall`` / ``force_stop``);
* activity management (:meth:`start_activity`, exported checks, crash
  handling) — the ActivityManagerService role;
* input events (``tap``, ``click_widget``, ``enter_text``,
  ``press_back``, ``swipe_from_left``) with a global step counter;
* observation (``ui_dump``, ``current_activity_name``, ``logcat``,
  the sensitive-API monitor).

Ground-truth inspection helpers (``current_fragment_classes``) exist for
the test suite and for computing oracle coverage; the FragDroid explorer
does not use them — it identifies fragments via the resource dependency,
as the paper does.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.android.activity import ActivityInstance
from repro.android.api_monitor import ApiMonitor
from repro.android.app_runtime import AppBlueprints, AppProcess
from repro.android.events import EventLog, InputEvent
from repro.android.intent import Intent
from repro.android.logcat import Logcat
from repro.android.views import RuntimeWidget, widget_at
from repro.apk.manifest import Manifest
from repro.apk.package import ApkPackage
from repro.apk.resources import ResourceTable
from repro.errors import (
    ActivityNotFoundError,
    AppCrashError,
    AppNotInstalledError,
    SecurityException,
    WidgetNotFoundError,
)
from repro.types import ComponentName


class _InstalledApp:
    """An installed package.  Its manifest and resource table are parsed,
    and its component blueprints built, once, here; every process of the
    install shares them read-only."""

    def __init__(self, apk: ApkPackage) -> None:
        self.apk = apk
        self.manifest = Manifest.from_xml(apk.manifest_xml)
        self.resources = ResourceTable.from_public_xml(apk.package,
                                                       apk.public_xml)
        self.blueprints = AppBlueprints(apk.runtime_spec(), self.resources)


class Device:
    """One emulated Android device."""

    def __init__(self) -> None:
        self._installed: Dict[str, _InstalledApp] = {}
        self._processes: Dict[str, AppProcess] = {}
        self.foreground: Optional[AppProcess] = None
        self.logcat = Logcat()
        self.api_monitor = ApiMonitor()
        self.event_log = EventLog()
        self.steps = 0
        self.crash_count = 0

    def _record_event(self, kind: str, x: int = 0, y: int = 0,
                      target: str = "", text: str = "") -> None:
        self.event_log.record(
            InputEvent(step=self.steps, kind=kind, x=x, y=y,
                       target=target, text=text)
        )

    # -- package management -----------------------------------------------------

    def install(self, apk: ApkPackage) -> None:
        self._installed[apk.package] = _InstalledApp(apk)
        self.logcat.log("I", "PackageManager",
                        f"installed {apk.apk_name}", self.steps)

    def uninstall(self, package: str) -> None:
        self.force_stop(package)
        self._installed.pop(package, None)

    def is_installed(self, package: str) -> bool:
        return package in self._installed

    def installed_packages(self) -> List[str]:
        return sorted(self._installed)

    def manifest_of(self, package: str) -> Manifest:
        return self._app(package).manifest

    def force_stop(self, package: str) -> None:
        process = self._processes.pop(package, None)
        if process is not None and self.foreground is process:
            self.foreground = None
        self.logcat.log("I", "ActivityManager",
                        f"force-stop {package}", self.steps)

    def _app(self, package: str) -> _InstalledApp:
        try:
            return self._installed[package]
        except KeyError:
            raise AppNotInstalledError(package) from None

    def _process(self, package: str) -> AppProcess:
        if package not in self._processes:
            app = self._app(package)
            self._processes[package] = AppProcess(app.apk, self,
                                                  app.blueprints)
        return self._processes[package]

    # -- activity management ------------------------------------------------------

    def start_activity(
        self,
        component: Optional[ComponentName] = None,
        action: Optional[str] = None,
        extras: Optional[Dict[str, str]] = None,
        from_shell: bool = True,
    ) -> bool:
        """The ActivityManagerService entry point (``am start``).

        Returns True when the target Activity ends up resident in the
        foreground.  Shell starts require the target to be exported.
        """
        self.steps += 1
        if component is not None:
            self._record_event("start", target=component.flat)
        elif action is not None:
            self._record_event("start", target=f"action:{action}")
        if component is None:
            if action is None:
                raise ActivityNotFoundError("neither component nor action given")
            component = self._resolve_action(action)
        app = self._app(component.package)
        decl = app.manifest.activity(component.cls)
        if decl is None:
            raise ActivityNotFoundError(component.flat)
        if from_shell and not decl.exported:
            raise SecurityException(
                f"{component.flat} not exported; shell start denied"
            )
        process = self._process(component.package)
        intent = Intent(component=component, action=action,
                        extras=dict(extras or {}))
        try:
            resident = process.start_activity(decl.name, intent)
        except AppCrashError:
            self._handle_crash(component.package)
            return False
        self.foreground = process
        return resident and process.top_activity is not None

    def _resolve_action(self, action: str) -> ComponentName:
        for package, app in sorted(self._installed.items()):
            for decl in app.manifest.resolve_action(action):
                return ComponentName(package, decl.name)
        raise ActivityNotFoundError(f"no activity handles {action!r}")

    def launch_app(self, package: str) -> bool:
        """Start the launcher Activity (``am start -n ... -a MAIN``)."""
        app = self._app(package)
        launcher = app.manifest.launcher_activity
        if launcher is None:
            raise ActivityNotFoundError(f"{package} has no launcher activity")
        return self.start_activity(
            ComponentName(package, launcher.name), from_shell=True
        )

    def _handle_crash(self, package: str) -> None:
        self.crash_count += 1
        self._processes.pop(package, None)
        if self.foreground is not None and self.foreground.package == package:
            self.foreground = None

    # -- observation -------------------------------------------------------------------

    def ui_dump(self) -> List[RuntimeWidget]:
        """The visible widget tree (empty when no app is foreground)."""
        if self.foreground is None or self.foreground.top_activity is None:
            return []
        return self.foreground.top_activity.visible_widgets()

    def current_activity_name(self) -> Optional[str]:
        if self.foreground is None or self.foreground.top_activity is None:
            return None
        return self.foreground.top_activity.class_name

    def current_fragment_classes(self) -> List[str]:
        """Ground truth for tests/oracles — not used by the explorer."""
        if self.foreground is None or self.foreground.top_activity is None:
            return []
        return sorted(
            fragment.class_name
            for fragment in self.foreground.top_activity.all_fragments()
        )

    def render_screen(self, width: int = 64) -> str:
        """An ASCII sketch of the current screen — the debugging
        'screenshot'.  One row per widget, layer-annotated, proportional
        horizontal placement."""
        widgets = self.ui_dump()
        if not widgets:
            return "[no app in foreground]"
        from repro.android.views import SCREEN_WIDTH

        activity = self.current_activity_name() or "?"
        lines = [f"┌─ {activity} ".ljust(width - 1, "─") + "┐"]
        for widget in sorted(widgets, key=lambda w: (w.bounds.top,
                                                     w.bounds.left)):
            left_pad = int(widget.bounds.left / SCREEN_WIDTH * (width - 10))
            marker = {
                "content": "·", "drawer": "≡", "dialog": "□", "popup": "▤",
            }.get(widget.layer, "?")
            label = f"{marker} [{widget.kind.value}] "
            label += widget.text or widget.widget_id
            if widget.accepts_text and widget.entered_text:
                label += f" ({widget.entered_text!r})"
            if not widget.clickable:
                label += " (inert)"
            body = (" " * left_pad + label)[: width - 4]
            lines.append(f"│ {body.ljust(width - 4)} │")
        lines.append("└" + "─" * (width - 2) + "┘")
        return "\n".join(lines)

    @property
    def app_alive(self) -> bool:
        return (self.foreground is not None
                and self.foreground.top_activity is not None)

    # -- input events ----------------------------------------------------------------------

    def tap(self, x: int, y: int) -> None:
        """Inject a tap.  Blank-space taps dismiss overlays/drawers —
        the paper's Case 3 dialog handling."""
        self.steps += 1
        self._record_event("tap", x=x, y=y)
        if self.foreground is None:
            return
        activity = self.foreground.top_activity
        if activity is None:
            return
        self._tap_on(activity, activity.visible_widgets(), x, y)

    def _tap_on(self, activity: ActivityInstance,
                widgets: List[RuntimeWidget], x: int, y: int) -> None:
        """Deliver a tap at (x, y) to ``activity``'s screen, already laid
        out as ``widgets``."""
        target = widget_at(widgets, x, y)
        if target is None:
            overlay = activity.top_overlay
            if overlay is not None and not overlay.window.contains(x, y):
                activity.dismiss_top_overlay()
            elif activity.drawer_open:
                activity.drawer_open = False
            return
        if not target.clickable:
            return
        try:
            self.foreground.dispatch_click(target)
        except AppCrashError:
            self._handle_crash(self.foreground.package)

    def click_widget(self, widget_id: str) -> None:
        """Tap the center of a widget found by its ID.  The screen found
        by the search is the one tapped: nothing changes in between, so
        it is laid out once."""
        widgets = self.ui_dump()
        for widget in widgets:
            if widget.widget_id == widget_id:
                x, y = widget.bounds.center
                self.steps += 1
                self._record_event("tap", x=x, y=y)
                self._tap_on(self.foreground.top_activity, widgets, x, y)
                return
        raise WidgetNotFoundError(widget_id)

    def enter_text(self, widget_id: str, text: str) -> None:
        self.steps += 1
        self._record_event("text", target=widget_id, text=text)
        for widget in self.ui_dump():
            if widget.widget_id == widget_id and widget.accepts_text:
                widget.entered_text = text
                return
        raise WidgetNotFoundError(f"{widget_id} (EditText)")

    def press_back(self) -> None:
        """Back: dismiss overlay > close drawer > pop fragment back
        stack > pop activity."""
        self.steps += 1
        self._record_event("back")
        if self.foreground is None:
            return
        activity = self.foreground.top_activity
        if activity is None:
            return
        if activity.dismiss_top_overlay():
            return
        if activity.drawer_open:
            activity.drawer_open = False
            return
        if activity.fragment_manager.pop_back_stack():
            return
        self.foreground.finish_top()
        if self.foreground.top_activity is None:
            self.foreground = None

    def swipe_from_left(self) -> None:
        """An edge swipe: opens the navigation drawer when one exists."""
        self.steps += 1
        self._record_event("swipe")
        if self.foreground is None:
            return
        activity = self.foreground.top_activity
        if activity is not None and activity.spec.drawer is not None:
            activity.drawer_open = True

"""The app process: activity stack plus behaviour execution.

Where a real phone executes DEX bytecode, the emulator executes the
behavioural spec the APK was compiled from (see DESIGN.md).  The
observable semantics — lifecycle order, FragmentTransaction effects,
Intent resolution, dialogs, drawers, crashes, sensitive-API logging —
match what the compiled smali describes, because both are generated from
the same spec.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Union

from repro.apk.appspec import (
    Action,
    AppSpec,
    Chain,
    Crash,
    FinishActivity,
    InvokeApi,
    Noop,
    OpenDrawer,
    ShowDialog,
    ShowFragment,
    ShowPopupMenu,
    StartActivity,
    StartActivityByAction,
    SubmitForm,
    ToggleWidget,
)
from repro.android.activity import ActivityInstance, activity_blueprint
from repro.android.fragment import FragmentInstance, fragment_blueprint
from repro.android.intent import Intent
from repro.android.views import Blueprint, RuntimeWidget
from repro.apk.package import ApkPackage
from repro.apk.resources import ResourceTable
from repro.errors import ApkError, AppCrashError
from repro.types import ComponentName, InvocationSource

if TYPE_CHECKING:  # pragma: no cover
    from repro.android.device import Device

Owner = Union[ActivityInstance, FragmentInstance]


class AppBlueprints:
    """One install's component blueprints, built once at install.

    FragDroid restarts the app before every UI-queue item, so the same
    screens are built thousands of times per exploration.  Everything
    about them that cannot change between starts (spec lookup by name,
    qualified class names, widget ids, resource values, handler specs)
    is resolved here, once; a start only creates the widgets.  Every
    process of the install shares this object and only reads it.
    """

    def __init__(self, spec: AppSpec, resources: ResourceTable) -> None:
        self.spec = spec
        self.resources = resources
        self._activities: Dict[str, Blueprint] = {
            activity.name: activity_blueprint(
                activity, spec.qualify(activity.name), resources)
            for activity in spec.activities
        }
        self._fragments: Dict[str, Blueprint] = {
            fragment.name: fragment_blueprint(
                fragment, spec.qualify(fragment.name), resources)
            for fragment in spec.fragments
        }

    def activity(self, name: str) -> Blueprint:
        """The blueprint of an Activity, by simple or qualified name."""
        try:
            return self._activities[name.rsplit(".", 1)[-1]]
        except KeyError:
            raise ApkError(f"{self.spec.package}: no activity named "
                           f"{name!r}") from None

    def fragment(self, name: str) -> Blueprint:
        """The blueprint of a Fragment, by simple or qualified name."""
        try:
            return self._fragments[name.rsplit(".", 1)[-1]]
        except KeyError:
            raise ApkError(f"{self.spec.package}: no fragment named "
                           f"{name!r}") from None


class AppProcess:
    """One running application.

    ``blueprints`` (and through it ``resources``, the parsed resource
    table) belong to the install and are shared by every process of it;
    the runtime only reads them.
    """

    def __init__(self, apk: ApkPackage, device: "Device",
                 blueprints: AppBlueprints) -> None:
        self.apk = apk
        self.blueprints = blueprints
        self.spec: AppSpec = blueprints.spec
        self.resources = blueprints.resources
        self.package = apk.package
        self.device = device
        self.stack: List[ActivityInstance] = []

    # -- stack ------------------------------------------------------------------

    @property
    def top_activity(self) -> Optional[ActivityInstance]:
        return self.stack[-1] if self.stack else None

    def start_activity(self, activity_name: str, intent: Intent) -> bool:
        """Instantiate and push an Activity; returns True when it stays
        resident (didn't immediately finish or crash)."""
        blueprint = self.blueprints.activity(activity_name)
        if blueprint.spec.crashes_on_launch:
            self.crash(f"{activity_name} crashed in onCreate",
                       self.spec.qualify(activity_name))
            return False
        instance = ActivityInstance(blueprint, self, intent)
        if not instance.on_create():
            return False
        self.stack.append(instance)
        return True

    def finish_top(self) -> None:
        if self.stack:
            self.stack.pop()

    def crash(self, reason: str, component: str) -> None:
        """Force close: log, clear, and raise to the device layer."""
        self.device.logcat.log(
            "E", "AndroidRuntime",
            f"FATAL EXCEPTION in {self.package}: {reason}",
            self.device.steps,
        )
        self.stack.clear()
        raise AppCrashError(self.package, component, reason)

    # -- widgets ----------------------------------------------------------------------

    def inflate(self, owner: Owner) -> List[RuntimeWidget]:
        """Fresh widgets for ``owner``'s blueprint rows, in screen order,
        each carrying its click handler (owned by ``owner``)."""
        owner_class = owner.class_name
        owner_is_fragment = isinstance(owner, FragmentInstance)
        return [
            RuntimeWidget(widget_id, kind, text, owner_class,
                          owner_is_fragment, resource_value,
                          clickable=clickable, layer=layer,
                          handler=None if handler is None
                          else (handler, owner))
            for (widget_id, kind, text, resource_value, clickable, layer,
                 handler) in owner.blueprint.rows
        ]

    # -- event dispatch -----------------------------------------------------------------

    def dispatch_click(self, widget: RuntimeWidget) -> None:
        """Run a widget's click handler (if any)."""
        activity = self.top_activity
        # Clicking a drawer item or popup/dialog button closes its layer,
        # whether or not the widget has its own handler.
        if activity is not None and widget.clickable:
            if widget.layer == "drawer":
                activity.drawer_open = False
            elif widget.layer in ("dialog", "popup"):
                activity.dismiss_top_overlay()
        entry = widget.handler
        if entry is None:
            return
        spec, owner = entry
        if spec.on_click is None:
            if widget.kind.name in ("CHECK_BOX", "SWITCH"):
                widget.checked = not widget.checked
            return
        self.perform(spec.on_click, owner, widget)

    # -- behaviour execution ---------------------------------------------------------------

    def perform(self, action: Action, owner: Owner,
                widget: Optional[RuntimeWidget] = None) -> None:
        host = self._host_activity(owner)
        if isinstance(action, Noop):
            return
        if isinstance(action, Chain):
            for child in action.actions:
                self.perform(child, owner, widget)
            return
        if isinstance(action, InvokeApi):
            self._record_api(action.api, owner)
            return
        if isinstance(action, StartActivity):
            intent = Intent(
                component=ComponentName(
                    self.package, self.spec.qualify(action.target)
                )
            ).put_extra("origin", self._owner_class(owner))
            self.start_activity(action.target, intent)
            return
        if isinstance(action, StartActivityByAction):
            self._start_by_action(action.action, owner)
            return
        if isinstance(action, ShowFragment):
            if host is None:
                return
            self.attach_fragment(
                host, action.fragment, action.container_id,
                mode=action.mode, via="transaction",
                add_to_back_stack=action.add_to_back_stack,
            )
            return
        if isinstance(action, OpenDrawer):
            if host is not None and host.spec.drawer is not None:
                host.drawer_open = True
            return
        if isinstance(action, ShowDialog):
            if host is not None:
                host.show_dialog(
                    action.message, list(action.buttons),
                    self._owner_class(owner),
                    isinstance(owner, FragmentInstance),
                )
            return
        if isinstance(action, ShowPopupMenu):
            if host is not None:
                host.show_popup(
                    list(action.items), self._owner_class(owner),
                    isinstance(owner, FragmentInstance),
                )
            return
        if isinstance(action, Crash):
            self.crash(action.reason, self._owner_class(owner))
            return
        if isinstance(action, FinishActivity):
            self.finish_top()
            return
        if isinstance(action, ToggleWidget):
            if host is not None:
                for candidate in host.visible_widgets():
                    if candidate.widget_id == action.widget_id:
                        candidate.checked = not candidate.checked
            return
        if isinstance(action, SubmitForm):
            if host is None:
                return
            if self._form_satisfied(host, action):
                self.perform(action.on_success, owner, widget)
            else:
                self.perform(action.on_failure, owner, widget)
            return
        raise TypeError(f"unhandled action: {type(action).__name__}")

    # -- fragment attachment -------------------------------------------------------------

    def attach_fragment(self, host: ActivityInstance, fragment_name: str,
                        container_id: str, mode: str, via: str,
                        add_to_back_stack: bool = False
                        ) -> FragmentInstance:
        blueprint = self.blueprints.fragment(fragment_name)
        instance = FragmentInstance(blueprint, host, container_id, via=via)
        if blueprint.spec.managed:
            transaction = host.fragment_manager.begin_transaction()
            if mode == "replace":
                transaction.replace(container_id, instance)
            else:
                transaction.add(container_id, instance)
            if add_to_back_stack:
                transaction.add_to_back_stack()
            transaction.commit()
        else:
            # Direct attachment without a FragmentManager (dubsmash mode):
            # the view appears but no manager records the fragment.  Apps
            # replace an already-attached instance of the same class
            # rather than stacking duplicates.
            host.direct_fragments = [
                f for f in host.direct_fragments
                if f.class_name != instance.class_name
            ]
            host.direct_fragments.append(instance)
            instance.on_create_view()
        return instance

    # -- helpers --------------------------------------------------------------------------

    def _host_activity(self, owner: Owner) -> Optional[ActivityInstance]:
        if isinstance(owner, FragmentInstance):
            return owner.host
        return owner

    def _owner_class(self, owner: Owner) -> str:
        return owner.class_name

    def _record_api(self, api: str, owner: Owner) -> None:
        source = (InvocationSource.FRAGMENT
                  if isinstance(owner, FragmentInstance)
                  else InvocationSource.ACTIVITY)
        self.device.api_monitor.record(
            api, ComponentName(self.package, owner.class_name),
            source, self.device.steps,
        )

    def _start_by_action(self, action_string: str, owner: Owner) -> None:
        manifest_targets = [
            decl for decl in self.device.manifest_of(self.package).activities
            if decl.handles_action(action_string)
        ]
        if manifest_targets:
            intent = Intent(action=action_string).put_extra(
                "origin", self._owner_class(owner)
            )
            self.start_activity(manifest_targets[0].name, intent)
            return
        # No in-app handler: resolve across installed apps, as the
        # ActivityManagerService would (cross-app implicit intent).
        from repro.errors import ActivityNotFoundError, SecurityException

        try:
            # Cross-app targets must be exported, same as for the shell.
            self.device.start_activity(
                action=action_string,
                extras={"origin": self._owner_class(owner)},
                from_shell=True,
            )
        except (ActivityNotFoundError, SecurityException):
            self.device.logcat.log(
                "W", "ActivityManager",
                f"no activity handles action {action_string}",
                self.device.steps,
            )

    def _form_satisfied(self, host: ActivityInstance,
                        form: SubmitForm) -> bool:
        from repro.apk.inputs import validate

        visible = {w.widget_id: w for w in host.visible_widgets()}
        for widget_id, expected in form.required.items():
            widget = visible.get(widget_id)
            if widget is None or widget.entered_text != expected:
                return False
        for widget_id, rule in form.rules.items():
            widget = visible.get(widget_id)
            if widget is None or not validate(rule, widget.entered_text):
                return False
        return True

"""Runtime Activity instances: lifecycle, view tree, overlays, drawer.

An ActivityInstance owns its content widgets, a FragmentManager for
managed fragments, a list of *directly attached* (unmanaged) fragments,
modal overlays (dialogs and popup menus) and the navigation-drawer
state.  :meth:`visible_widgets` is the single source of truth for what
is on screen, with the modality rules the paper's Case 3 relies on:
dialogs/popups eclipse everything; an open drawer eclipses the content.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.apk.appspec import ActivitySpec, WidgetSpec
from repro.apk.resources import ResourceTable
from repro.android.fragment import FragmentInstance
from repro.android.fragment_manager import FragmentManager
from repro.android.intent import Intent
from repro.android.views import (
    Blueprint,
    RuntimeWidget,
    WidgetRow,
    dialog_bounds,
    layout_content,
    layout_dialog,
    layout_drawer,
    Rect,
    synthetic_id,
)
from repro.types import ComponentName, InvocationSource, WidgetKind

if TYPE_CHECKING:  # pragma: no cover
    from repro.android.app_runtime import AppProcess


@dataclass
class Overlay:
    """A modal dialog or popup menu."""

    kind: str  # "dialog" | "popup"
    message: str
    widgets: List[RuntimeWidget] = field(default_factory=list)
    window: Rect = field(default_factory=lambda: dialog_bounds(1))


def activity_blueprint(spec: ActivitySpec, class_name: str,
                       resources: ResourceTable) -> Blueprint:
    """The Activity's content and drawer widgets, resolved against the
    install's resource table."""
    drawer = spec.drawer
    drawer_item_ids = {w.id for w in drawer.items} if drawer else set()
    rows: List[WidgetRow] = []
    for widget_spec in spec.all_widgets():
        is_drawer_item = widget_spec.id in drawer_item_ids
        layer = "drawer" if is_drawer_item else "content"
        if is_drawer_item and drawer.navigation_view:
            # NavigationView renders menu rows internally: they carry
            # runtime IDs, not the layout resource IDs, and no handler.
            rows.append((synthetic_id(class_name, widget_spec.id),
                         widget_spec.kind, widget_spec.text, None, False,
                         layer, None))
            continue
        rid = resources.get("id", widget_spec.id)
        rows.append((widget_spec.id, widget_spec.kind, widget_spec.text,
                     rid.value if rid else None,
                     widget_spec.on_click is not None
                     or widget_spec.kind.clickable,
                     layer, widget_spec))
    return Blueprint(spec, class_name, tuple(rows))


class ActivityInstance:
    """One live Activity on the stack."""

    def __init__(self, blueprint: Blueprint, app: "AppProcess",
                 intent: Intent) -> None:
        self.blueprint = blueprint
        self.spec: ActivitySpec = blueprint.spec
        self.app = app
        self.intent = intent
        self.class_name = blueprint.class_name
        self.fragment_manager = FragmentManager(self)
        self.direct_fragments: List[FragmentInstance] = []
        self.overlays: List[Overlay] = []
        self.drawer_open = False
        self.finished = False
        self.content_widgets: List[RuntimeWidget] = []
        self.drawer_widgets: List[RuntimeWidget] = []

    @property
    def component(self) -> ComponentName:
        return ComponentName(self.app.package, self.class_name)

    # -- lifecycle ----------------------------------------------------------

    def on_create(self) -> bool:
        """Run onCreate.  Returns False when the Activity finishes
        immediately (missing Intent extras under a forced start)."""
        if self.spec.requires_intent_extras and self.intent.is_empty:
            self.app.device.logcat.log(
                "W", "ActivityManager",
                f"{self.class_name} finished in onCreate: missing extras",
                self.app.device.steps,
            )
            self.finished = True
            return False
        device = self.app.device
        for api in self.spec.api_calls:
            device.api_monitor.record(
                api, self.component, InvocationSource.ACTIVITY, device.steps
            )
        self._build_content_widgets()
        if self.spec.initial_fragment:
            self.app.attach_fragment(
                self, self.spec.initial_fragment,
                self.spec.container_id or "fragment_container",
                mode="replace", via="transaction",
            )
        for container, fragment_name in self.spec.panes:
            self.app.attach_fragment(
                self, fragment_name, container,
                mode="add", via="transaction",
            )
        return True

    def _build_content_widgets(self) -> None:
        for widget in self.app.inflate(self):
            if widget.layer == "drawer":
                self.drawer_widgets.append(widget)
            else:
                self.content_widgets.append(widget)

    # -- fragments ------------------------------------------------------------

    def all_fragments(self) -> List[FragmentInstance]:
        return self.fragment_manager.fragments() + list(self.direct_fragments)

    # -- overlays ----------------------------------------------------------------

    def show_dialog(self, message: str, buttons: List[WidgetSpec],
                    shown_by_class: str, shown_by_fragment: bool) -> Overlay:
        overlay = Overlay(kind="dialog", message=message)
        self._populate_overlay(overlay, buttons, shown_by_class,
                               shown_by_fragment)
        self.overlays.append(overlay)
        return overlay

    def show_popup(self, items: List[WidgetSpec], shown_by_class: str,
                   shown_by_fragment: bool) -> Overlay:
        overlay = Overlay(kind="popup", message="")
        self._populate_overlay(overlay, items, shown_by_class,
                               shown_by_fragment)
        self.overlays.append(overlay)
        return overlay

    def _populate_overlay(self, overlay: Overlay, specs: List[WidgetSpec],
                          owner_class: str, owner_is_fragment: bool) -> None:
        if overlay.kind == "dialog":
            # Every AlertDialog shows its message; a button-less builder
            # still gets the default OK button.
            message_row = RuntimeWidget(
                widget_id=synthetic_id(owner_class, "dialog_message"),
                kind=WidgetKind.TEXT_VIEW,
                text=overlay.message,
                owner_class=owner_class,
                owner_is_fragment=owner_is_fragment,
                clickable=False,
                layer="dialog",
            )
            overlay.widgets.append(message_row)
            if not specs:
                specs = [WidgetSpec(id="dialog_ok", text="OK")]
        for widget_spec in specs:
            widget = RuntimeWidget(
                widget_id=synthetic_id(owner_class, widget_spec.id),
                kind=widget_spec.kind,
                text=widget_spec.text or widget_spec.id,
                owner_class=owner_class,
                owner_is_fragment=owner_is_fragment,
                resource_value=None,
                clickable=True,
                layer=overlay.kind,
                handler=(widget_spec, self),
            )
            overlay.widgets.append(widget)
        overlay.window = dialog_bounds(len(overlay.widgets))
        layout_dialog(overlay.widgets)

    def dismiss_top_overlay(self) -> bool:
        if self.overlays:
            self.overlays.pop()
            return True
        return False

    @property
    def top_overlay(self) -> Optional[Overlay]:
        return self.overlays[-1] if self.overlays else None

    # -- screen ----------------------------------------------------------------------

    def visible_widgets(self) -> List[RuntimeWidget]:
        """What is on screen right now, layout refreshed."""
        overlay = self.top_overlay
        if overlay is not None:
            layout_dialog(overlay.widgets)
            return list(overlay.widgets)
        if self.drawer_open:
            layout_drawer(self.drawer_widgets)
            return list(self.drawer_widgets)
        widgets = list(self.content_widgets)
        for fragment in self.all_fragments():
            widgets.extend(fragment.widgets)
        layout_content(widgets)
        return widgets

    def __repr__(self) -> str:
        return f"<Activity {self.spec.name}>"

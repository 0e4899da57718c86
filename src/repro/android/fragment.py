"""Runtime Fragment instances.

A Fragment instance is created when a FragmentTransaction commits (or,
for unmanaged fragments, when the app attaches the view directly); its
``onCreateView`` builds runtime widgets and fires the fragment's
sensitive-API calls through the monitor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.apk.appspec import FragmentSpec
from repro.android.views import (
    Blueprint,
    RuntimeWidget,
    WidgetRow,
    synthetic_id,
)
from repro.apk.resources import ResourceTable
from repro.types import ComponentName, InvocationSource

if TYPE_CHECKING:  # pragma: no cover
    from repro.android.activity import ActivityInstance
    from repro.android.device import Device


def fragment_blueprint(spec: FragmentSpec, class_name: str,
                       resources: ResourceTable) -> Blueprint:
    """The Fragment's widgets, resolved against the install's resource
    table."""
    rows: List[WidgetRow] = []
    for widget_spec in spec.widgets:
        if spec.managed:
            rid = resources.get("id", widget_spec.id)
            widget_id = widget_spec.id
            resource_value = rid.value if rid else None
        else:
            # Programmatic views: IDs generated at runtime, invisible
            # to the resource dependency (the dubsmash failure mode).
            widget_id = synthetic_id(class_name, widget_spec.id)
            resource_value = None
        rows.append((widget_id, widget_spec.kind, widget_spec.text,
                     class_name, True, resource_value,
                     widget_spec.on_click is not None
                     or widget_spec.kind.clickable,
                     "content", widget_spec))
    return Blueprint(spec, class_name, tuple(rows))


class FragmentInstance:
    """One attached Fragment.  It keeps its host's package and name,
    not the host: the host owns it."""

    def __init__(self, blueprint: Blueprint, host: "ActivityInstance",
                 container_id: str, via: str) -> None:
        self.blueprint = blueprint
        self.spec: FragmentSpec = blueprint.spec
        self.package = host.package
        self.host_name = host.spec.name
        self.container_id = container_id
        self.via = via  # "transaction" | "direct" | "reflection"
        self.class_name = blueprint.class_name
        self.widgets: List[RuntimeWidget] = []
        self._created = False

    @property
    def component(self) -> ComponentName:
        return ComponentName(self.package, self.class_name)

    @property
    def managed(self) -> bool:
        return self.spec.managed

    def on_create_view(self, device: "Device") -> None:
        """Inflate widgets and run the fragment's onCreateView API calls
        through ``device``'s monitor."""
        if self._created:
            return
        self._created = True
        for api in self.spec.api_calls:
            device.api_monitor.record(
                api, self.component, InvocationSource.FRAGMENT, device.steps
            )
        self.widgets = self.blueprint.inflate()

    def __repr__(self) -> str:
        return f"<Fragment {self.spec.name} in {self.host_name}>"

"""Resource dependency (paper Algorithm 3).

Matches widget resource-IDs from layout files against the IDs referenced
in component code, producing the AFRM model M = (A, F, RID): for every
widget, the Activity *or* Fragment it belongs to.  The dynamic UI driver
uses this to decide, from the IDs visible on screen, which Activity and
which Fragment the current UI state is (Section V-B: "the listener of the
tab belongs to an Activity, but the list below is implemented in a
Fragment").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.smali.apktool import DecodedApk
from repro.smali.model import SmaliClass
from repro.types import Positional


@dataclass(frozen=True, slots=True)
class ResourceBinding(Positional):
    """One row of the AFRM model: a widget and its owning component."""

    widget_id: str
    resource_value: int
    activity: Optional[str]  # exactly one of activity/fragment is set
    fragment: Optional[str]


@dataclass
class ResourceDependency:
    """The complete AFRM model for one app."""

    bindings: List[ResourceBinding] = field(default_factory=list)
    _by_widget: Dict[str, ResourceBinding] = field(default_factory=dict)

    def add(self, binding: ResourceBinding) -> None:
        self.bindings.append(binding)
        self._by_widget.setdefault(binding.widget_id, binding)

    def owner_of(self, widget_id: str) -> Tuple[Optional[str], Optional[str]]:
        """``(activity, fragment)`` owning a widget; ``(None, None)`` for
        widgets created at runtime without a stable resource-ID."""
        binding = self._by_widget.get(widget_id)
        if binding is None:
            return (None, None)
        return (binding.activity, binding.fragment)

    def widgets_of_fragment(self, fragment: str) -> List[str]:
        return [b.widget_id for b in self.bindings if b.fragment == fragment]

    def widgets_of_activity(self, activity: str) -> List[str]:
        return [b.widget_id for b in self.bindings if b.activity == activity]

    def identify_fragments(self, widget_ids: List[str]) -> Set[str]:
        """The Fragments whose widgets appear in the given on-screen IDs —
        the driver's Fragment-identification primitive."""
        found: Set[str] = set()
        for widget_id in widget_ids:
            _, fragment = self.owner_of(widget_id)
            if fragment is not None:
                found.add(fragment)
        return found


def _ids_referenced_by(decoded: DecodedApk, class_name: str) -> Set[int]:
    """All ``const`` operands in a class (plus inners) that are id-type
    resources — ``getAID`` / ``getFID`` of Algorithm 3."""
    values: Set[int] = set()
    classes: List[SmaliClass] = []
    if decoded.has_class(class_name):
        classes.append(decoded.class_by_name(class_name))
    classes.extend(decoded.inner_classes_of(class_name))
    for cls in classes:
        for method in cls.methods:
            for instruction in method.instructions:
                if instruction.opcode == "const":
                    value = instruction.args[-1]
                    if isinstance(value, int):
                        values.add(value)
    return values


def _layouts_among(decoded: DecodedApk, values: Set[int]) -> Set[str]:
    """The layout-type resources among a component's ``const`` operands:
    the layouts it inflates (``setContentView``/``inflate``)."""
    names: Set[str] = set()
    resources = decoded.resources
    for value in values:
        try:
            rtype, name = resources.reverse(value)
        except Exception:
            continue
        if rtype == "layout":
            names.add(name)
    return names


def extract_resource_dependency(
    decoded: DecodedApk,
    activities: List[str],
    fragments: List[str],
) -> ResourceDependency:
    """Algorithm 3, with the same precedence: try Activities first, then
    Fragments; non-interactive widgets never declared in code are ruled
    out by the ``l ∈ a`` layout check."""
    model = ResourceDependency()
    activity_ids = {a: _ids_referenced_by(decoded, a) for a in activities}
    fragment_ids = {f: _ids_referenced_by(decoded, f) for f in fragments}
    activity_layouts = {a: _layouts_among(decoded, activity_ids[a])
                        for a in activities}
    fragment_layouts = {f: _layouts_among(decoded, fragment_ids[f])
                        for f in fragments}
    # Layout -> the components inflating it, each list in the order of
    # ``activities``/``fragments``: scanning these finds the same first
    # match as scanning every component per widget.
    inflaters: Dict[str, Tuple[List[str], List[str]]] = {}
    for activity in activities:
        for layout_name in activity_layouts[activity]:
            inflaters.setdefault(layout_name, ([], []))[0].append(activity)
    for fragment in fragments:
        for layout_name in fragment_layouts[fragment]:
            inflaters.setdefault(layout_name, ([], []))[1].append(fragment)

    for layout_name, layout in sorted(decoded.layouts.items()):
        layout_activities, layout_fragments = inflaters.get(layout_name,
                                                            ([], []))
        for widget_id in layout.widget_ids():
            rid = decoded.resources.get("id", widget_id)
            if rid is None:
                continue
            activity = next((a for a in layout_activities
                             if rid.value in activity_ids[a]), None)
            fragment = None
            if activity is None:
                fragment = next((f for f in layout_fragments
                                 if rid.value in fragment_ids[f]), None)
            if activity is None and fragment is None:
                # Layout-membership fallback: a widget that no code
                # declares still belongs to the component that inflates
                # its layout — the "repeatedly appears in both layout and
                # resource files" reading of Section V-B.  Without this,
                # fragments composed purely of passive widgets would be
                # unidentifiable.
                if layout_activities:
                    activity = layout_activities[0]
                elif layout_fragments:
                    fragment = layout_fragments[0]
            if activity is not None or fragment is not None:
                model.add(ResourceBinding(widget_id, rid.value,
                                          activity, fragment))
    return model

"""Static trigger bindings: which widget statically fires which edge.

The AFTM (Algorithm 1) records *that* ``A0 -> A1`` exists, but its
static edges all carry ``trigger="static"`` — the widget that fires the
transition is only learned dynamically.  The attribution engine
(``repro.obs.attribution``) needs that widget *statically*: when a
target was never reached, the first question is "which control would
have taken us there, and what happened to it?".

This pass recovers the binding from the decompiled units the same way
Algorithm 1 recovers edges.  A unit contains lines such as::

    this.findViewById(2130771971).setOnClickListener(new com.app.MainActivity$1(this));

pairing a view (resolved to its resource name through the reverse
resource table) with a listener inner class, and the listener's
``onClick`` body contains the navigation statement
(``new Intent(this$0, A1.class)``, ``F1.newInstance()``, ``new F1()``)
naming the edge's destination.  Joining the two yields
``(source component, destination) -> widget``.

Listeners that are *never* paired with a ``findViewById`` — popup-menu
items, drawer adapters, dialog buttons wired through framework
callbacks — surface as **unbound** bindings (``widget=None``).  That
absence is itself evidence: the trigger exists but lives somewhere the
Case-3 click sweep dismisses rather than operates.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.apk.resources import ResourceError
from repro.smali.apktool import DecodedApk
from repro.static.edges import (
    _RE_INTENT_CLASS,
    _RE_NEW_FRAGMENT,
    _RE_NEW_INSTANCE,
    _RE_SET_CLASS,
    decompiled_unit,
)

# ``this.findViewById(2130771971).setOnClickListener(new com.app.A$1(this))``
_RE_LISTENER_BINDING = re.compile(
    r"findViewById\((\d+)\)\.setOnClickListener\(new\s+([\w.$]+)\("
)
# Any listener construction, bound or not (popup items, adapters, ...).
_RE_LISTENER_NEW = re.compile(r"new\s+([\w.$]+\$\d+)\(")


@dataclass(frozen=True)
class TriggerBinding:
    """One statically recovered trigger: a widget (or an unbound
    listener) on ``source`` whose handler navigates to ``targets``."""

    source: str                 # component whose unit declares the listener
    widget: Optional[str]       # resource name; None = unbound listener
    listener: str               # listener class (inner-class name)
    targets: Tuple[str, ...]    # destination components named in the handler

    @property
    def bound(self) -> bool:
        return self.widget is not None


class TriggerMap:
    """All of one app's trigger bindings, queryable per edge."""

    def __init__(self, bindings: List[TriggerBinding]) -> None:
        # Unbound listeners (widget None) sort after bound widgets.
        self.bindings = sorted(
            bindings,
            key=lambda b: (b.source, b.widget is None, b.widget or "",
                           b.listener))
        self._by_edge: Dict[Tuple[str, str], List[TriggerBinding]] = {}
        for binding in self.bindings:
            for target in binding.targets:
                self._by_edge.setdefault(
                    (binding.source, target), []).append(binding)

    def bindings_for(self, source: str, target: str) -> List[TriggerBinding]:
        return list(self._by_edge.get((source, target), ()))

    def widget_for(self, source: str, target: str) -> Optional[str]:
        """The first bound widget that fires ``source -> target``."""
        for binding in self.bindings_for(source, target):
            if binding.widget is not None:
                return binding.widget
        return None

    def unbound_for(self, source: str, target: str) -> Optional[TriggerBinding]:
        """An unbound listener for the edge, if the only trigger hides
        behind a framework callback (popup item, adapter row)."""
        for binding in self.bindings_for(source, target):
            if binding.widget is None:
                return binding
        return None


def extract_trigger_map(decoded: DecodedApk,
                        activities: List[str],
                        fragments: List[str]) -> TriggerMap:
    """Scan every component unit for listener bindings (see module doc).

    Deterministic: components are scanned in sorted order and bindings
    sort by ``(source, widget, listener)``.
    """
    activity_set = set(activities)
    fragment_set = set(fragments)
    bindings: List[TriggerBinding] = []
    for component in sorted(activity_set | fragment_set):
        bindings.extend(_component_bindings(
            decoded, component, activity_set, fragment_set))
    return TriggerMap(bindings)


def _component_bindings(decoded: DecodedApk, component: str,
                        activity_set: Set[str],
                        fragment_set: Set[str]) -> List[TriggerBinding]:
    if not decoded.has_class(component):
        return []
    unit = decompiled_unit(decoded, component)
    return _scan_unit(decoded, component, unit, activity_set, fragment_set)


class LazyTriggerMap:
    """A :class:`TriggerMap` that scans one source's unit on first
    query instead of the whole app up front.

    The attribution classifier only ever asks about the blocking edge
    of each witness path — a handful of sources per app — so eager
    extraction over every component is mostly wasted work on the
    benchmark-pinned path.  Per-source results are identical to the
    eager map's (same scanner, same inputs)."""

    def __init__(self, decoded: DecodedApk, activities: List[str],
                 fragments: List[str]) -> None:
        self._decoded = decoded
        self._activity_set = set(activities)
        self._fragment_set = set(fragments)
        self._by_source: Dict[str, TriggerMap] = {}

    def _source_map(self, source: str) -> TriggerMap:
        cached = self._by_source.get(source)
        if cached is None:
            cached = TriggerMap(_component_bindings(
                self._decoded, source, self._activity_set,
                self._fragment_set))
            self._by_source[source] = cached
        return cached

    def bindings_for(self, source: str, target: str) -> List[TriggerBinding]:
        return self._source_map(source).bindings_for(source, target)

    def widget_for(self, source: str, target: str) -> Optional[str]:
        return self._source_map(source).widget_for(source, target)

    def unbound_for(self, source: str,
                    target: str) -> Optional[TriggerBinding]:
        return self._source_map(source).unbound_for(source, target)


def trigger_map_of(info) -> Optional[TriggerMap]:
    """The trigger map of a :class:`~repro.static.extractor.StaticInfo`,
    or ``None`` when the info has no decoded APK (a model read back
    from JSON without its APK); attribution then degrades gracefully.

    Memoized on the info object — explaining the same result twice
    (regress then explain, the serve endpoint, a diff) extracts once.
    """
    decoded = getattr(info, "decoded", None)
    if decoded is None:
        return None
    key = (len(info.activities), len(info.fragments))
    cached = info.__dict__.get("_trigger_map_cache")
    if cached is not None and cached[0] == key:
        return cached[1]
    trigger_map = LazyTriggerMap(decoded, list(info.activities),
                                 list(info.fragments))
    info.__dict__["_trigger_map_cache"] = (key, trigger_map)
    return trigger_map


# -- unit scanning -----------------------------------------------------------

def _scan_unit(decoded: DecodedApk, component: str, unit: str,
               activities: Set[str], fragments: Set[str],
               ) -> List[TriggerBinding]:
    package = component.rsplit(".", 1)[0]
    sections = _class_sections(unit)
    # Pass 1: explicit findViewById -> listener pairings.
    bound_listeners: Set[str] = set()
    bindings: List[TriggerBinding] = []
    for match in _RE_LISTENER_BINDING.finditer(unit):
        resid, listener = int(match.group(1)), match.group(2)
        bound_listeners.add(listener)
        widget = _widget_name(decoded, resid)
        targets = _targets_in(
            sections.get(_section_key(listener), ""),
            package, activities, fragments, component)
        if targets:
            bindings.append(TriggerBinding(
                source=component, widget=widget,
                listener=listener, targets=targets))
    # Pass 2: listeners constructed but never bound to a view — their
    # navigation targets are reachable only through framework callbacks
    # the click sweep does not drive (popup items, adapter rows).
    seen_unbound: Set[str] = set()
    for match in _RE_LISTENER_NEW.finditer(unit):
        listener = match.group(1)
        if listener in bound_listeners or listener in seen_unbound:
            continue
        seen_unbound.add(listener)
        targets = _targets_in(
            sections.get(_section_key(listener), ""),
            package, activities, fragments, component)
        if targets:
            bindings.append(TriggerBinding(
                source=component, widget=None,
                listener=listener, targets=targets))
    # Pass 3: listener classes that are never even *constructed* in the
    # unit — popup-menu items and adapter rows instantiated inside the
    # framework.  The inner-class section exists (and navigates), but no
    # ``new`` names it.
    simple = component.rsplit(".", 1)[-1]
    for key, section in sections.items():
        if not key.startswith(f"{simple}_"):
            continue
        suffix = key[len(simple) + 1:]
        if not suffix.isdigit():
            continue
        listener = f"{component}${suffix}"
        if listener in bound_listeners or listener in seen_unbound:
            continue
        targets = _targets_in(section, package, activities, fragments,
                              component)
        if targets:
            seen_unbound.add(listener)
            bindings.append(TriggerBinding(
                source=component, widget=None,
                listener=listener, targets=targets))
    return bindings


def _class_sections(unit: str) -> Dict[str, str]:
    """Split a decompiled unit into per-class text sections, keyed by
    the rendered simple class name (``$`` rendered as ``_``)."""
    sections: Dict[str, str] = {}
    name: Optional[str] = None
    lines: List[str] = []
    for line in unit.splitlines():
        if line.startswith("public class "):
            if name is not None:
                sections[name] = "\n".join(lines)
            name = line.split()[2]
            lines = []
        else:
            lines.append(line)
    if name is not None:
        sections[name] = "\n".join(lines)
    return sections


def _section_key(listener: str) -> str:
    return listener.rsplit(".", 1)[-1].replace("$", "_")


def _widget_name(decoded: DecodedApk, resid: int) -> str:
    resources = decoded.resources
    try:
        rtype, name = resources.reverse(resid)
    except ResourceError:
        return f"0x{resid:08x}"
    return name


def _targets_in(section: str, package: str, activities: Set[str],
                fragments: Set[str], component: str) -> Tuple[str, ...]:
    targets: List[str] = []
    for line in section.splitlines():
        for pattern in (_RE_INTENT_CLASS, _RE_SET_CLASS,
                        _RE_NEW_INSTANCE, _RE_NEW_FRAGMENT):
            if pattern is _RE_NEW_INSTANCE and ".newInstance(" not in line:
                continue
            for match in pattern.finditer(line):
                name = match.group(1)
                qualified = name if "." in name else f"{package}.{name}"
                if qualified == component:
                    continue
                if qualified in activities or qualified in fragments:
                    if qualified not in targets:
                        targets.append(qualified)
    return tuple(sorted(targets))

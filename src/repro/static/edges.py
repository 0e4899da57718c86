"""Transition-edge extraction (paper Algorithm 1).

Works on the decompiled Java units (``A0.java`` / ``F0.java``, outer class
merged with its inner listener classes), exactly as the paper describes:

* ``new Intent(ctx, A1.class)`` / ``setClass(..., A1.class)`` → ``A0 → A1``;
* ``new Intent("action")`` / ``setAction("action")`` → resolve the action
  in AndroidManifest.xml and add the edge to the declaring Activity;
* ``new F1()`` / ``F1.newInstance()`` / ``instanceof F1`` → ``A0 → F1``
  when F1 belongs to A0, or ``F0 → F1`` when both belong to one Activity.

Statically invisible navigation — targets routed through
``Class.forName`` on runtime-built strings — produces none of these line
shapes, so those edges are (correctly) missing until the dynamic phase
discovers them.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.smali.apktool import DecodedApk
from repro.smali.javagen import JavaDecompiler
from repro.static.aftm import AFTM, Node, activity_node, fragment_node

# The context argument may itself be a call chain (`getActivity()` from
# fragment code), so it is matched loosely; the target class is the part
# Algorithm 1 cares about.
_RE_INTENT_CLASS = re.compile(
    r"new\s+(?:[\w.]+\.)?Intent\(\s*[^,]+,\s*([\w.$]+)\.class\s*\)"
)
_RE_SET_CLASS = re.compile(
    r"\.setClass\(\s*[^,]+,\s*([\w.$]+)\.class\s*\)"
)
_RE_INTENT_ACTION = re.compile(r'new\s+(?:[\w.]+\.)?Intent\(\s*"([^"]+)"\s*\)')
_RE_SET_ACTION = re.compile(r'\.setAction\(\s*"([^"]+)"\s*\)')
_RE_NEW_FRAGMENT = re.compile(r"new\s+([\w.$]+)\(\s*\)")
# The lookbehind starts a match only at the first character of a name,
# so a qualified name is not retried from each of its characters.  Any
# match extends left to the name's first character anyway, so finditer
# returns the same matches as without it.
_RE_NEW_INSTANCE = re.compile(r"(?<![\w.$])([\w.$]+)\.newInstance\(")
_RE_INSTANCEOF = re.compile(r"instanceof\s+([\w.$]+)")


# A line can only match one of the patterns above if it contains one of
# these substrings: every pattern embeds a literal "new" (``new Intent``,
# ``new F1()``, ``.newInstance``), ".set" (``.setClass``/``.setAction``)
# or "instanceof".  Substring scans are C-speed; the regexes are not.
_PREFILTER = ("new", ".set", "instanceof")


def decompiled_unit(decoded: DecodedApk, decompiler: JavaDecompiler,
                    class_name: str) -> str:
    """The ``.java`` file for a top-level class: itself plus inner classes.

    Memoized per decoded APK (``JavaDecompiler`` is stateless, so the
    text depends only on the class list): activities and fragments that
    share inner classes — and repeated Algorithm 1/2/3 passes over the
    same component — never re-decompile.  The memo is invalidated when
    the class list changes size, mirroring the ``_ClassIndex`` policy.
    """
    size = len(decoded.classes)
    cache = decoded.__dict__.get("_unit_cache")
    if cache is None or cache[0] != size:
        cache = (size, {})
        decoded.__dict__["_unit_cache"] = cache
    units = cache[1]
    unit = units.get(class_name)
    if unit is None:
        outer = decoded.class_by_name(class_name)
        inners = decoded.inner_classes_of(class_name)
        unit = decompiler.decompile_unit(outer, inners)
        units[class_name] = unit
    return unit


def build_aftm(
    decoded: DecodedApk,
    activities: List[str],
    fragments: List[str],
    hosts: Dict[str, List[str]],
) -> AFTM:
    """Run Algorithm 1 over every Activity and Fragment unit."""
    aftm = AFTM(decoded.package)
    launcher = decoded.manifest.launcher_activity
    if launcher is not None and launcher.name in activities:
        aftm.set_entry(activity_node(launcher.name))
    decompiler = JavaDecompiler()
    activity_set = set(activities)
    fragment_set = set(fragments)

    for activity in activities:
        if not decoded.has_class(activity):
            continue
        unit = decompiled_unit(decoded, decompiler, activity)
        _edges_from_activity(
            aftm, decoded, activity, unit, activity_set, fragment_set
        )
    for fragment in fragments:
        if not decoded.has_class(fragment):
            continue
        unit = decompiled_unit(decoded, decompiler, fragment)
        _edges_from_fragment(
            aftm, decoded, fragment, unit, fragment_set, activity_set, hosts
        )
    # Isolated nodes are not "working" components (Section IV-B.2).
    aftm.prune_isolated()
    return aftm


# -- function GetEdgeAtoA_or_AtoF -------------------------------------------------

def _edges_from_activity(
    aftm: AFTM,
    decoded: DecodedApk,
    activity: str,
    unit: str,
    activities: Set[str],
    fragments: Set[str],
) -> None:
    package = decoded.package
    for line in unit.splitlines():
        if not _may_match(line):
            continue
        has_intentish = "Intent" in line or ".set" in line
        if has_intentish:
            for match in _iter_matches((_RE_INTENT_CLASS, _RE_SET_CLASS), line):
                target = _qualify(match, package)
                if target in activities and target != activity:
                    aftm.add_transition(
                        activity_node(activity), activity_node(target)
                    )
            for match in _iter_matches((_RE_INTENT_ACTION, _RE_SET_ACTION), line):
                for decl in decoded.manifest.resolve_action(match):
                    if decl.name in activities and decl.name != activity:
                        aftm.add_transition(
                            activity_node(activity), activity_node(decl.name)
                        )
        for match in _fragment_statements(line, package, fragments):
            aftm.add_transition(
                activity_node(activity), fragment_node(match),
                host=activity,
            )


# -- function GetEdgeFtoF ----------------------------------------------------------

def _edges_from_fragment(
    aftm: AFTM,
    decoded: DecodedApk,
    fragment: str,
    unit: str,
    fragments: Set[str],
    activities: Set[str],
    hosts: Dict[str, List[str]],
) -> None:
    src_hosts = set(hosts.get(fragment, ()))
    package = _package_of(fragment)

    def _add_host_edges(target: str) -> None:
        # The Section IV-A merge: F -> A_o becomes A_host -> A_o.
        if target in activities:
            for host in sorted(src_hosts):
                if host != target:
                    aftm.add_transition(
                        activity_node(host), activity_node(target)
                    )

    # One split, two passes: intent edges first, then fragment edges —
    # preserving the historical per-pass match (and edge append) order.
    lines = unit.splitlines()
    for line in lines:
        if "Intent" not in line and ".set" not in line:
            continue
        for match in _iter_matches((_RE_INTENT_CLASS, _RE_SET_CLASS), line):
            _add_host_edges(_qualify(match, package))
        for match in _iter_matches((_RE_INTENT_ACTION, _RE_SET_ACTION), line):
            for decl in decoded.manifest.resolve_action(match):
                _add_host_edges(decl.name)
    for line in lines:
        for target in _fragment_statements(line, _package_of(fragment), fragments):
            if target == fragment:
                continue
            shared = src_hosts & set(hosts.get(target, ()))
            # The paper requires F0, F1 ∈ one Activity.  When the target's
            # host set is empty it is hosted *through* F0, so F0's host
            # carries over.
            if not hosts.get(target) and src_hosts:
                shared = src_hosts
            for host in sorted(shared):
                aftm.add_transition(
                    fragment_node(fragment), fragment_node(target), host=host
                )


# -- helpers -------------------------------------------------------------------------

def _may_match(line: str) -> bool:
    """Cheap substring prefilter: False means no pattern can match."""
    return "new" in line or ".set" in line or "instanceof" in line


def _iter_matches(patterns: Tuple[re.Pattern, ...], line: str) -> Iterable[str]:
    for pattern in patterns:
        for match in pattern.finditer(line):
            yield match.group(1)


def _fragment_statements(line: str, package: str,
                         fragments: Set[str]) -> Iterable[str]:
    if "new" not in line and "instanceof" not in line:
        return
    for match in _RE_NEW_FRAGMENT.finditer(line):
        name = _qualify(match.group(1), package)
        if name in fragments:
            yield name
    for match in _RE_NEW_INSTANCE.finditer(line):
        name = _qualify(match.group(1), package)
        if name in fragments:
            yield name
    for match in _RE_INSTANCEOF.finditer(line):
        name = _qualify(match.group(1), package)
        if name in fragments:
            yield name


def _qualify(name: str, package: str) -> str:
    return name if "." in name else f"{package}.{name}"


def _package_of(class_name: str) -> str:
    return class_name.rsplit(".", 1)[0]
